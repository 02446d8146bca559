package sched

import (
	"testing"

	"hcapp/internal/chiplet"
	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/fault"
	"hcapp/internal/pid"
	"hcapp/internal/psn"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
	"hcapp/internal/vr"
)

// trackingEngine builds a fully loaded engine — global controller,
// component tracking, safety clamp and a fault injector with live
// events — so the Reset and allocation guards below exercise every
// piece of per-step state the engine owns.
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
	rec := trace.MustRecorder(dt, true)
	inj := fault.MustNew(fault.Plan{Name: "mid-run-noise", Seed: 17, Events: []fault.Event{
		{Class: fault.SensorNoise, Start: 100 * sim.Microsecond, End: 200 * sim.Microsecond, Param: 3},
	}})
	clamp := core.MustClamp(core.ClampConfig{CapW: 95, DT: dt})
	return MustNew(Config{
		DT: dt, GlobalVR: gvr, Sensor: sensor, PSN: line, Global: global,
		Slots:           []Slot{{Domain: dom, Comp: load}},
		Recorder:        rec,
		TrackComponents: true,
		Injector:        inj,
		Clamp:           clamp,
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
// fully loaded engine (global controller, tracking recorder, clamp,
// injector with mid-run events), Run → Reset → Run must reproduce the
// trace bit for bit — any engine field missed by Reset shows up here
// as a diverging sample.
func TestResetRunByteIdentical(t *testing.T) {
	eng := trackingEngine(t)
	const span = 300 * sim.Microsecond // crosses the fault window both ways

	capture := func() ([]float64, map[string][]float64) {
		eng.RunFor(span)
		rec := eng.Recorder()
		totals := append([]float64(nil), rec.Totals()...)
		cols := make(map[string][]float64)
		for _, name := range rec.ComponentNames() {
			pts := rec.ComponentSeries(name, dt)
			vals := make([]float64, len(pts))
			for i, p := range pts {
				vals[i] = p.P
			}
			cols[name] = vals
		}
		return totals, cols
	}

	t1, c1 := capture()
	eng.Reset()
	if eng.Now() != 0 || eng.Steps() != 0 || eng.Recorder().Steps() != 0 {
		t.Fatal("reset left the clock or trace non-empty")
	}
	t2, c2 := capture()

	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ after reset: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("totals diverge at step %d: %g vs %g", i, t1[i], t2[i])
		}
	}
	if len(c1) != len(c2) {
		t.Fatalf("column sets differ: %d vs %d", len(c1), len(c2))
	}
	for name, v1 := range c1 {
		v2, ok := c2[name]
		if !ok {
			t.Fatalf("column %q missing after reset", name)
		}
		if len(v1) != len(v2) {
			t.Fatalf("column %q lengths differ: %d vs %d", name, len(v1), len(v2))
		}
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("column %q diverges at %d: %g vs %g", name, i, v1[i], v2[i])
			}
		}
	}
}

// TestStepSteadyStateZeroAllocs is the zero-allocation contract on the
// fully tracked hot path: once the trace buffers are sized, stepping
// the engine — including global control, component tracking, the
// clamp comparator and an attached injector — allocates nothing.
// Recorder capacity is reserved up front so the guard measures the
// step loop, not slice growth.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates in instrumented code")
	}
	eng := trackingEngine(t)
	const span = 1024 // steps per measured run
	const runs = 5
	// Warm-up faults in code paths (including the fault window, so the
	// injector's active-event machinery is exercised and sized).
	eng.RunFor(300 * sim.Microsecond)
	eng.Recorder().Grow((runs + 2) * span)
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < span; i++ {
			eng.now += dt
			eng.step()
		}
	})
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
	st.Recorder().Grow((runs + 2) * span)
	allocs = testing.AllocsPerRun(runs, func() {
		st.RunFor(span * dt)
	})
	if st.StridedSteps() == 0 || obs.steps != st.Steps() {
		t.Fatalf("observed engine strided %d of %d steps, observer saw %d", st.StridedSteps(), st.Steps(), obs.steps)
	}
	if allocs != 0 {
		t.Fatalf("observed strided run allocates %.1f times per %d steps, want 0", allocs, span)
	}
}

// stridingEngine is a fixed-rail, fully tracked engine of two constant
// loads under obs: every slot can bulk-step and nothing perturbs the
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
		Recorder:        trace.MustRecorder(dt, true),
		TrackComponents: true,
		Observer:        obs,
	})
}
