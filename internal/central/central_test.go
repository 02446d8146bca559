package central

import (
	"testing"

	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/noc"
	"hcapp/internal/psn"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
	"hcapp/internal/vr"
)

func baseConfig() Config {
	return Config{
		TargetPower: 60,
		Domains:     []string{"a", "b"},
		Network:     noc.DefaultBus(),
		Nodes:       24,
		Floor:       20 * sim.Microsecond,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(baseConfig()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero target", func(c *Config) { c.TargetPower = 0 }},
		{"no domains", func(c *Config) { c.Domains = nil }},
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero floor", func(c *Config) { c.Floor = 0 }},
		{"huge step", func(c *Config) { c.Step = 0.9 }},
		{"inverted priorities", func(c *Config) { c.PrioMin, c.PrioMax = 1.2, 0.8 }},
		{"dead band 1", func(c *Config) { c.DeadBand = 1 }},
		{"bad network", func(c *Config) { c.Network.MsgSerialization = 0 }},
	}
	for _, c := range cases {
		cfg := baseConfig()
		c.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestPeriodBoundedByNetwork(t *testing.T) {
	small := MustNew(baseConfig())
	if small.Period() != 20*sim.Microsecond {
		t.Fatalf("small-system period %d, want floor", small.Period())
	}
	big := baseConfig()
	big.Nodes = 2000
	c := MustNew(big)
	if c.Period() <= 20*sim.Microsecond {
		t.Fatal("large-system period did not grow past the floor")
	}
}

// wattComp draws fixed power scaled by voltage and progresses at a
// configurable rate per volt.
type wattComp struct {
	name     string
	watts    float64
	rate     float64
	progress float64
}

func (c *wattComp) Name() string { return c.name }
func (c *wattComp) Step(_ sim.Time, dt sim.Time, vdd float64) sim.StepResult {
	c.progress += c.rate * sim.Seconds(dt) * vdd
	if c.progress > 1 {
		c.progress = 1
	}
	return sim.StepResult{Power: c.watts * vdd}
}
func (c *wattComp) Done() bool         { return c.progress >= 1 }
func (c *wattComp) Progress() float64  { return c.progress }
func (c *wattComp) LastPower() float64 { return c.watts }
func (c *wattComp) Reset()             { c.progress = 0 }

func buildEngine(t *testing.T, sup sched.Supervisor, aWatts, bWatts float64) (*sched.Engine, *wattComp, *wattComp) {
	t.Helper()
	dt := sim.Time(100)
	gvr := vr.MustRegulator(vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 1.0})
	sensor := vr.MustSensor(vr.SensorConfig{}, dt)
	line := psn.MustDelayLine(0, dt, 1.0)
	domCfg := config.DomainConfig{
		Scale: 1, VMin: 0.6, VMax: 1.2,
		VR: vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 1.0},
	}
	// a produces far more progress per watt than b.
	a := &wattComp{name: "a", watts: aWatts, rate: 100}
	b := &wattComp{name: "b", watts: bWatts, rate: 10}
	eng := sched.MustNew(sched.Config{
		DT: dt, GlobalVR: gvr, Sensor: sensor, PSN: line,
		Slots: []sched.Slot{
			{Domain: core.MustDomain("a", domCfg), Comp: a},
			{Domain: core.MustDomain("b", domCfg), Comp: b},
		},
		Recorder:   trace.MustRecorder(dt),
		Supervisor: sup,
	})
	return eng, a, b
}

func TestThrottlesLeastProductiveWhenOver(t *testing.T) {
	cfg := baseConfig()
	cfg.TargetPower = 90 // a+b draw ~100 W at 1.0 V: moderately over
	ctl := MustNew(cfg)
	eng, _, _ := buildEngine(t, ctl, 50, 50)
	eng.RunFor(2 * sim.Millisecond)
	prios := ctl.Priorities()
	// b converts watts to progress 10× worse → must be the throttled one.
	if prios["b"] >= prios["a"] {
		t.Fatalf("least-productive domain not throttled: %v", prios)
	}
	if prios["b"] < cfg.PrioMin && cfg.PrioMin != 0 {
		t.Fatalf("throttle went below floor: %v", prios)
	}
	if ctl.Actions() == 0 {
		t.Fatal("controller took no actions")
	}
}

func TestBoostsMostProductiveWhenUnder(t *testing.T) {
	cfg := baseConfig()
	cfg.TargetPower = 200 // far above the ~100 W draw
	ctl := MustNew(cfg)
	eng, _, _ := buildEngine(t, ctl, 50, 50)
	eng.RunFor(2 * sim.Millisecond)
	prios := ctl.Priorities()
	if prios["a"] <= 1.0 {
		t.Fatalf("most-productive domain not boosted: %v", prios)
	}
	if prios["a"] > 1.15 {
		t.Fatalf("boost exceeded cap: %v", prios)
	}
}

func TestDeadBandHoldsSteady(t *testing.T) {
	cfg := baseConfig()
	cfg.TargetPower = 100 // exactly the draw at 1.0 V
	cfg.DeadBand = 0.10
	ctl := MustNew(cfg)
	eng, _, _ := buildEngine(t, ctl, 50, 50)
	eng.RunFor(1 * sim.Millisecond)
	if ctl.Actions() != 0 {
		t.Fatalf("controller acted inside the dead band: %d actions", ctl.Actions())
	}
}

func TestPrioritiesStayBounded(t *testing.T) {
	cfg := baseConfig()
	cfg.TargetPower = 5 // impossible: everything throttles to the floor
	ctl := MustNew(cfg)
	eng, _, _ := buildEngine(t, ctl, 50, 50)
	eng.RunFor(5 * sim.Millisecond)
	for name, p := range ctl.Priorities() {
		if p < 0.75-1e-9 || p > 1.15+1e-9 {
			t.Fatalf("%s priority %g escaped bounds", name, p)
		}
	}
}

func TestCentralizedCannotTrackFastBursts(t *testing.T) {
	// A burst shorter than the controller's period must complete before
	// any reaction: the 20 µs window max is untouched by control.
	cfg := baseConfig()
	cfg.TargetPower = 80
	ctl := MustNew(cfg)
	if ctl.Period() < 20*sim.Microsecond {
		t.Fatalf("period %s unexpectedly fast", sim.FormatTime(ctl.Period()))
	}
	// The scaling experiment in internal/experiment exercises the full
	// consequence; here we just pin the period math.
	lat, err := cfg.Network.CollectionLatency(cfg.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Period() < lat {
		t.Fatal("period shorter than one collection pass")
	}
}
