package sched

import (
	"testing"

	"hcapp/internal/chiplet"
	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/fault"
	"hcapp/internal/pid"
	"hcapp/internal/power"
	"hcapp/internal/psn"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
	"hcapp/internal/vr"
	"hcapp/internal/workload"
)

// trackingEngine builds a fully loaded engine — global controller,
// safety clamp and a fault injector with live events — so the Reset
// and allocation guards below, which attach per-step observers to it,
// exercise every piece of per-step state the engine owns.
func trackingEngine(t *testing.T) *Engine {
	t.Helper()
	gvr := vr.MustRegulator(vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95, TransitionTime: 150, SlewRate: 5e6})
	sensor := vr.MustSensor(vr.SensorConfig{Delay: 60, FilterTau: 200}, dt)
	line := psn.MustDelayLine(75, dt, 0.95)
	global := core.MustGlobal(core.GlobalConfig{
		Period:      sim.Microsecond,
		TargetPower: 80,
		PID: pid.Config{
			KP: 0.006, KI: 2500, FeedForward: 0.95,
			OutMin: 0.6, OutMax: 1.2, OverGain: 6,
		},
	})
	dom := core.MustDomain("load", config.DomainConfig{
		Scale: 1.0, VMin: 0.6, VMax: 1.2,
		VR: vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95, TransitionTime: 130, SlewRate: 5e6},
	})
	load := newCubicLoad("load", 80/(0.95*0.95*0.95), 0, 1e6)
	rec := trace.MustRecorder(dt, 20*sim.Microsecond)
	inj := fault.MustNew(fault.Plan{Name: "mid-run-noise", Seed: 17, Events: []fault.Event{
		{Class: fault.SensorNoise, Start: 100 * sim.Microsecond, End: 200 * sim.Microsecond, Param: 3},
	}})
	clamp := core.MustClamp(core.ClampConfig{CapW: 95, DT: dt})
	return MustNew(Config{
		DT: dt, GlobalVR: gvr, Sensor: sensor, PSN: line, Global: global,
		Slots:    []Slot{{Domain: dom, Comp: load}},
		Recorder: rec,
		Injector: inj,
		Clamp:    clamp,
	})
}

// TestRunForWholeStepsOnly pins the duration-clamp fix: a span that is
// not a multiple of DT must stop at the last step boundary inside it,
// never overshoot past it. The leftover fraction is not banked — a
// later RunFor measures from the current (clamped) position.
func TestRunForWholeStepsOnly(t *testing.T) {
	eng, _ := testParts(t, false, 0)
	eng.RunFor(1050 * sim.Nanosecond) // 10.5 steps
	if eng.Now() != 1000*sim.Nanosecond {
		t.Fatalf("Now = %d, want 1000 (no overshoot)", eng.Now())
	}
	if eng.Recorder().Steps() != 10 {
		t.Fatalf("steps = %d, want 10", eng.Recorder().Steps())
	}
	eng.RunFor(50 * sim.Nanosecond) // less than one step: no motion
	if eng.Now() != 1000*sim.Nanosecond {
		t.Fatalf("sub-step RunFor moved the clock to %d", eng.Now())
	}
	eng.RunFor(150 * sim.Nanosecond) // one whole step fits
	if eng.Now() != 1100*sim.Nanosecond {
		t.Fatalf("Now = %d, want 1100", eng.Now())
	}
}

// TestRunWholeStepsOnly is the same contract for Run's deadline: with
// unreachable work, a maxDur of 10.5 steps stops at step 10 — and a
// deadline exactly on a boundary includes that final step.
func TestRunWholeStepsOnly(t *testing.T) {
	eng, _ := testParts(t, false, 1e12)
	res := eng.Run(1050 * sim.Nanosecond)
	if res.Duration != 1000*sim.Nanosecond {
		t.Fatalf("Duration = %d, want 1000 (no overshoot)", res.Duration)
	}
	eng2, _ := testParts(t, false, 1e12)
	if res := eng2.Run(1 * sim.Microsecond); res.Duration != 1*sim.Microsecond {
		t.Fatalf("exact-multiple deadline cut short: %d", res.Duration)
	}
}

// TestResetRunByteIdentical is the Reset audit's acceptance test: on a
// fully loaded engine (global controller, clamp, injector with mid-run
// events), Run → Reset → Run must reproduce the power trace and every
// step's rail, per-slot power and domain voltage bit for bit — any
// engine field missed by Reset shows up here as a diverging sample.
func TestResetRunByteIdentical(t *testing.T) {
	eng := trackingEngine(t)
	const span = 300 * sim.Microsecond // crosses the fault window both ways

	capture := func() (TotalLog, *SlotLog) {
		var total TotalLog
		log := NewSlotLog(eng)
		eng.SetObserver(Observers(&total, log))
		eng.RunFor(span)
		return total, log
	}

	t1, l1 := capture()
	eng.Reset()
	if eng.Now() != 0 || eng.Steps() != 0 || eng.Recorder().Steps() != 0 {
		t.Fatal("reset left the clock or trace non-empty")
	}
	t2, l2 := capture()

	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ after reset: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("totals diverge at step %d: %g vs %g", i, t1[i], t2[i])
		}
	}
	if d := l1.Diff(l2); d != "" {
		t.Fatalf("per-step log diverges after reset: %s", d)
	}
}

// TestStepSteadyStateZeroAllocs is the zero-allocation contract on the
// fully traced hot path: once the trace buffers are sized, stepping
// the engine — including global control, the clamp comparator, an
// attached injector and the per-component sampler `hcappsim trace
// -fig 3` draws with — allocates nothing. Sampler capacity is reserved
// up front and the recorder's window is full after the warm-up, so the
// guard measures the step loop, not slice growth.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates in instrumented code")
	}
	eng := trackingEngine(t)
	const span = 1024 // steps per measured run
	const runs = 5
	const bucket = 10 // steps per sampler bucket
	sampler := NewSampler(eng, bucket*dt)
	eng.SetObserver(sampler)
	// Warm-up faults in code paths (including the fault window, so the
	// injector's active-event machinery is exercised and sized).
	eng.RunFor(300 * sim.Microsecond)
	sampler.Grow((runs+2)*span/bucket + 1)
	before := len(sampler.Rail())
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < span; i++ {
			eng.now += dt
			eng.step()
		}
	})
	if got := len(sampler.Rail()) - before; got < runs*span/bucket {
		t.Fatalf("sampler closed %d buckets over the measured runs, want at least %d", got, runs*span/bucket)
	}
	if allocs != 0 {
		t.Fatalf("steady-state step allocates %.1f times per %d steps, want 0", allocs, span)
	}

	// The strided path with an observer attached: a fixed-rail engine of
	// constant loads strides through every run, and each stride reaches
	// the observer in one call — still with nothing allocated.
	defer SetFixedStep(false)()
	obs := &recordingObserver{}
	st := stridingEngine(t, obs)
	st.RunFor(sim.Microsecond) // settle the delay lines
	allocs = testing.AllocsPerRun(runs, func() {
		st.RunFor(span * dt)
	})
	if st.StridedSteps() == 0 || obs.steps != st.Steps() {
		t.Fatalf("observed engine strided %d of %d steps, observer saw %d", st.StridedSteps(), st.Steps(), obs.steps)
	}
	if allocs != 0 {
		t.Fatalf("observed strided run allocates %.1f times per %d steps, want 0", allocs, span)
	}

	// The chiplet's per-voltage table on a moving rail: the global
	// controller re-commands the rail every period and the units sit at
	// mixed local ratios, so steps both hit and miss the table.
	mixed, chip := mixedRatioEngine(t)
	mixed.RunFor(50 * sim.Microsecond)
	lo, hi := mixed.vdom[0], mixed.vdom[0]
	allocs = testing.AllocsPerRun(runs, func() {
		for i := 0; i < span; i++ {
			mixed.now += dt
			mixed.step()
			lo, hi = min(lo, mixed.vdom[0]), max(hi, mixed.vdom[0])
		}
	})
	if lo == hi {
		t.Fatalf("the rail held at %g V: the table's miss path went unmeasured", lo)
	}
	if chip.UnitRatio(0) == chip.UnitRatio(1) {
		t.Fatalf("units share ratio %g: the table's mixed path went unmeasured", chip.UnitRatio(0))
	}
	if allocs != 0 {
		t.Fatalf("moving-rail mixed-ratio step allocates %.1f times per %d steps, want 0", allocs, span)
	}
}

// mixedRatioEngine is a globally controlled engine over one metered
// chiplet whose units' local controllers work in different ratio
// windows, so the units' local voltages differ and move with the rail.
func mixedRatioEngine(t *testing.T) (*Engine, *chiplet.Chiplet) {
	t.Helper()
	regCfg := vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95, TransitionTime: 130, SlewRate: 5e6}
	units := make([]chiplet.UnitSpec, 6)
	for i := range units {
		top := []float64{1.0, 0.9, 0.95}[i%3]
		units[i] = chiplet.UnitSpec{
			Trace:      workload.ConstantTrace("steady", 2e9, 20*sim.Microsecond, 1.5, 0.2, 0.6, 0.1),
			StartPhase: i,
			Local:      core.MustStaticIPC(2.5, 0.6, 0.3, 0.05, core.RatioRange{Min: 0.75, Max: top}),
		}
	}
	chip, err := chiplet.New(chiplet.Config{
		Name:  "cpu",
		Units: units,
		Model: power.Model{
			DVFS: power.DVFS{FMax: 2e9, FMin: 0.8e9, VNom: 1.10, VMin: 0.60, VT: 0.55, Alpha: 2.0},
			CEff: 4.6e-9, LeakNom: 0.9, LeakExp: 1.5, IdleAct: 0.03,
		},
		LocalEpoch: 2 * sim.Microsecond,
		UncoreLeak: 1.0, UncoreDyn: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	chip.EnableUnitMeter()
	eng := MustNew(Config{
		DT:       dt,
		GlobalVR: vr.MustRegulator(regCfg),
		Sensor:   vr.MustSensor(vr.SensorConfig{Delay: 60, FilterTau: 200}, dt),
		PSN:      psn.MustDelayLine(75, dt, 0.95),
		Global: core.MustGlobal(core.GlobalConfig{
			Period:      sim.Microsecond,
			TargetPower: 40,
			PID: pid.Config{
				KP: 0.006, KI: 2500, FeedForward: 0.95,
				OutMin: 0.6, OutMax: 1.2, OverGain: 6,
			},
		}),
		Slots: []Slot{{
			Domain: core.MustDomain("cpu", config.DomainConfig{Scale: 1.0, VMin: 0.6, VMax: 1.2, VR: regCfg}),
			Comp:   chip,
		}},
		Recorder: trace.MustRecorder(dt, 20*sim.Microsecond),
	})
	return eng, chip
}

// stridingEngine is a fixed-rail engine of two constant loads under obs: every slot can bulk-step and nothing perturbs the
// rail, so once the delay lines fill every run is one long stride.
func stridingEngine(t *testing.T, obs StepObserver) *Engine {
	t.Helper()
	regCfg := vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95, TransitionTime: 130, SlewRate: 5e6}
	domCfg := config.DomainConfig{Scale: 1.0, VMin: 0.6, VMax: 1.2, VR: regCfg}
	return MustNew(Config{
		DT:       dt,
		GlobalVR: vr.MustRegulator(regCfg),
		Sensor:   vr.MustSensor(vr.SensorConfig{Delay: 60, FilterTau: 200}, dt),
		PSN:      psn.MustDelayLine(75, dt, 0.95),
		Slots: []Slot{
			{Domain: core.MustDomain("cpu", domCfg), Comp: chiplet.NewConstant("cpu", 30)},
			{Domain: core.MustDomain("mem", domCfg), Comp: chiplet.NewConstant("mem", 5)},
		},
		Recorder: trace.MustRecorder(dt, 20*sim.Microsecond),
		Observer: obs,
	})
}
