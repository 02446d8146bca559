package sched

import (
	"math"
	"testing"

	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/pid"
	"hcapp/internal/psn"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
	"hcapp/internal/vr"
)

// cubicLoad is a minimal component drawing k·V³ with a fixed work pool.
type cubicLoad struct {
	name   string
	k      float64
	work   float64
	done   float64
	doneAt sim.Time
	rate   float64 // work per second
}

func newCubicLoad(name string, k, work, rate float64) *cubicLoad {
	return &cubicLoad{name: name, k: k, work: work, rate: rate, doneAt: -1}
}

func (c *cubicLoad) Name() string { return c.name }
func (c *cubicLoad) Step(now sim.Time, dt sim.Time, vdd float64) sim.StepResult {
	if c.Done() {
		return sim.StepResult{Power: 0.1}
	}
	w := c.rate * sim.Seconds(dt) * vdd
	c.done += w
	if c.Done() && c.doneAt < 0 {
		c.doneAt = now
	}
	return sim.StepResult{Power: c.k * vdd * vdd * vdd, Work: w}
}
func (c *cubicLoad) Done() bool { return c.work > 0 && c.done >= c.work }
func (c *cubicLoad) Progress() float64 {
	if c.work <= 0 {
		return 0
	}
	return math.Min(1, c.done/c.work)
}
func (c *cubicLoad) CompletionTime() sim.Time { return c.doneAt }
func (c *cubicLoad) Reset()                   { c.done = 0; c.doneAt = -1 }

const dt = 100 * sim.Nanosecond

func testParts(t *testing.T, withGlobal bool, work float64) (*Engine, *cubicLoad) {
	t.Helper()
	gvrCfg := vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95, TransitionTime: 150, SlewRate: 5e6}
	gvr := vr.MustRegulator(gvrCfg)
	sensor := vr.MustSensor(vr.SensorConfig{Delay: 60, FilterTau: 200}, dt)
	line := psn.MustDelayLine(75, dt, 0.95)
	var global *core.Global
	if withGlobal {
		global = core.MustGlobal(core.GlobalConfig{
			Period:      sim.Microsecond,
			TargetPower: 80,
			PID: pid.Config{
				KP: 0.006, KI: 2500, FeedForward: 0.95,
				OutMin: 0.6, OutMax: 1.2, OverGain: 6,
			},
		})
	}
	domCfg := config.DomainConfig{
		Scale: 1.0, VMin: 0.6, VMax: 1.2,
		VR: vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95, TransitionTime: 130, SlewRate: 5e6},
	}
	dom := core.MustDomain("load", domCfg)
	load := newCubicLoad("load", 80/(0.95*0.95*0.95), work, 1e6)
	rec := trace.MustRecorder(dt)
	eng := MustNew(Config{
		DT:       dt,
		GlobalVR: gvr,
		Sensor:   sensor,
		PSN:      line,
		Global:   global,
		Slots:    []Slot{{Domain: dom, Comp: load}},
		Recorder: rec,
	})
	return eng, load
}

func TestNewValidation(t *testing.T) {
	gvr := vr.MustRegulator(vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95})
	sensor := vr.MustSensor(vr.SensorConfig{}, dt)
	line := psn.MustDelayLine(0, dt, 0.95)
	rec := trace.MustRecorder(dt)
	dom := core.MustDomain("x", config.DomainConfig{
		Scale: 1, VMin: 0.6, VMax: 1.2,
		VR: vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95},
	})
	load := newCubicLoad("x", 1, 0, 1)
	ok := Config{DT: dt, GlobalVR: gvr, Sensor: sensor, PSN: line,
		Slots: []Slot{{Domain: dom, Comp: load}}, Recorder: rec}

	if _, err := New(ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero dt", func(c *Config) { c.DT = 0 }},
		{"nil vr", func(c *Config) { c.GlobalVR = nil }},
		{"nil sensor", func(c *Config) { c.Sensor = nil }},
		{"nil psn", func(c *Config) { c.PSN = nil }},
		{"no slots", func(c *Config) { c.Slots = nil }},
		{"nil recorder", func(c *Config) { c.Recorder = nil }},
		{"incomplete slot", func(c *Config) { c.Slots = []Slot{{}} }},
	}
	for _, c := range cases {
		cfg := ok
		c.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestFixedVoltageHoldsRail(t *testing.T) {
	eng, _ := testParts(t, false, 0)
	eng.RunFor(50 * sim.Microsecond)
	rec := eng.Recorder()
	// At a fixed 0.95 V rail the cubic load draws exactly 80 W.
	if got := rec.AvgPower(); math.Abs(got-80) > 1 {
		t.Fatalf("fixed-voltage avg power = %g, want ≈80", got)
	}
	// And power variance must be essentially zero.
	if maxP := rec.MaxWindowAvg(dt); maxP > 81 {
		t.Fatalf("fixed rail fluctuated: max %g", maxP)
	}
}

func TestRunStopsOnCompletion(t *testing.T) {
	// Work sized so completion happens at ~1 ms (rate·V = 0.95e6/s).
	eng, load := testParts(t, false, 950)
	res := eng.Run(10 * sim.Millisecond)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Duration >= 2*sim.Millisecond {
		t.Fatalf("run dragged to %s", sim.FormatTime(res.Duration))
	}
	ct, ok := res.Completion["load"]
	if !ok {
		t.Fatal("completion time missing")
	}
	if ct != load.CompletionTime() {
		t.Fatal("completion time mismatch")
	}
}

func TestRunHitsDeadline(t *testing.T) {
	eng, _ := testParts(t, false, 1e12) // unreachable work
	res := eng.Run(1 * sim.Millisecond)
	if res.Completed {
		t.Fatal("impossible work completed")
	}
	if res.Duration < 1*sim.Millisecond {
		t.Fatalf("stopped early at %s", sim.FormatTime(res.Duration))
	}
}

func TestRunForExactDuration(t *testing.T) {
	eng, _ := testParts(t, false, 0)
	eng.RunFor(123 * sim.Microsecond)
	if eng.Now() != 123*sim.Microsecond {
		t.Fatalf("Now = %s", sim.FormatTime(eng.Now()))
	}
	if eng.Recorder().Steps() != 1230 {
		t.Fatalf("steps = %d", eng.Recorder().Steps())
	}
}

func TestGlobalControlDrivesPowerToTarget(t *testing.T) {
	eng, _ := testParts(t, true, 0)
	// Load draws 80 W at 0.95 V and the target is 80 W: the controller
	// should hold the rail near 0.95 and power near 80.
	eng.RunFor(200 * sim.Microsecond)
	rec := eng.Recorder()
	// Skip the startup transient by averaging the second half.
	pts := rec.Series(10 * sim.Microsecond)
	tail := pts[len(pts)/2:]
	sum := 0.0
	for _, p := range tail {
		sum += p.P
	}
	avg := sum / float64(len(tail))
	if math.Abs(avg-80) > 4 {
		t.Fatalf("controlled power = %g, want ≈80", avg)
	}
}

func TestControlCyclesCounted(t *testing.T) {
	eng, _ := testParts(t, true, 0)
	res := eng.Run(10 * sim.Microsecond)
	if res.ControlCycles != 10 {
		t.Fatalf("control cycles = %d, want 10", res.ControlCycles)
	}
}

func TestEngineAccessors(t *testing.T) {
	eng, load := testParts(t, false, 0)
	if eng.Domain("load") == nil {
		t.Fatal("Domain lookup failed")
	}
	if eng.Domain("nope") != nil {
		t.Fatal("unknown domain found")
	}
	if eng.Component("load") != sim.Component(load) {
		t.Fatal("Component lookup failed")
	}
	if eng.Component("nope") != nil {
		t.Fatal("unknown component found")
	}
	if len(eng.Slots()) != 1 {
		t.Fatal("Slots length")
	}
}

func TestResetReproducesRun(t *testing.T) {
	eng, _ := testParts(t, true, 500)
	res1 := eng.Run(5 * sim.Millisecond)
	avg1 := eng.Recorder().AvgPower()
	eng.Reset()
	if eng.Now() != 0 || eng.Recorder().Steps() != 0 {
		t.Fatal("reset incomplete")
	}
	res2 := eng.Run(5 * sim.Millisecond)
	avg2 := eng.Recorder().AvgPower()
	if res1.Duration != res2.Duration {
		t.Fatalf("durations diverged: %d vs %d", res1.Duration, res2.Duration)
	}
	if math.Abs(avg1-avg2) > 1e-9 {
		t.Fatalf("avg power diverged: %g vs %g", avg1, avg2)
	}
}

func TestDroopReducesDeliveredVoltage(t *testing.T) {
	mk := func(r float64) float64 {
		gvr := vr.MustRegulator(vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95})
		sensor := vr.MustSensor(vr.SensorConfig{}, dt)
		line := psn.MustDelayLine(0, dt, 0.95)
		dom := core.MustDomain("load", config.DomainConfig{
			Scale: 1, VMin: 0.4, VMax: 1.2,
			VR: vr.RegulatorConfig{VMin: 0.4, VMax: 1.2, VInit: 0.95},
		})
		load := newCubicLoad("load", 100, 0, 1)
		rec := trace.MustRecorder(dt)
		eng := MustNew(Config{
			DT: dt, GlobalVR: gvr, Sensor: sensor, PSN: line,
			Droop: psn.Droop{R: r},
			Slots: []Slot{{Domain: dom, Comp: load}}, Recorder: rec,
		})
		eng.RunFor(10 * sim.Microsecond)
		return rec.AvgPower()
	}
	if noDroop, withDroop := mk(0), mk(0.001); withDroop >= noDroop {
		t.Fatalf("droop did not reduce power: %g vs %g", withDroop, noDroop)
	}
}

// TestVoltageTracking: a step observer reads the post-PSN rail through
// LastRail and each domain's output voltage from its samples; their
// 1 µs means settle at the commanded 0.95 V and the domain's scaled
// 0.7125 V.
func TestVoltageTracking(t *testing.T) {
	gvr := vr.MustRegulator(vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95})
	sensor := vr.MustSensor(vr.SensorConfig{}, dt)
	line := psn.MustDelayLine(0, dt, 0.95)
	dom := core.MustDomain("load", config.DomainConfig{
		Scale: 0.75, VMin: 0.5, VMax: 1.0,
		VR: vr.RegulatorConfig{VMin: 0.5, VMax: 1.0, VInit: 0.7125},
	})
	load := newCubicLoad("load", 50, 0, 1)
	eng := MustNew(Config{
		DT: dt, GlobalVR: gvr, Sensor: sensor, PSN: line,
		Slots:    []Slot{{Domain: dom, Comp: load}},
		Recorder: trace.MustRecorder(dt),
	})
	log := NewSlotLog(eng)
	eng.SetObserver(log)
	eng.RunFor(20 * sim.Microsecond)
	rail := ComponentSeries(log.Rail, dt, sim.Microsecond)
	if len(rail) == 0 {
		t.Fatal("no rail voltage series recorded")
	}
	if math.Abs(rail[len(rail)-1].P-0.95) > 0.01 {
		t.Fatalf("rail voltage %g, want ≈0.95", rail[len(rail)-1].P)
	}
	domV := ComponentSeries(log.Voltage[0], dt, sim.Microsecond)
	if len(domV) == 0 {
		t.Fatal("no domain voltage series recorded")
	}
	if math.Abs(domV[len(domV)-1].P-0.7125) > 0.01 {
		t.Fatalf("domain voltage %g, want ≈0.7125", domV[len(domV)-1].P)
	}
}
