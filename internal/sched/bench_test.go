package sched

import (
	"testing"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/fault"
	"hcapp/internal/pid"
	"hcapp/internal/psn"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
	"hcapp/internal/vr"
)

// benchEngine builds the one-domain benchmark engine, optionally with
// an injector attached.
func benchEngine(inj *fault.Injector) *Engine {
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
	rec := trace.MustRecorder(dt)
	return MustNew(Config{
		DT: dt, GlobalVR: gvr, Sensor: sensor, PSN: line, Global: global,
		Slots:    []Slot{{Domain: dom, Comp: load}},
		Recorder: rec,
		Injector: inj,
	})
}

func BenchmarkStepNoInjector(b *testing.B) {
	eng := benchEngine(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.now += dt
		eng.step()
	}
}

func BenchmarkStepIdleInjector(b *testing.B) {
	eng := benchEngine(fault.MustNew(fault.Plan{Name: "healthy", Seed: 42}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.now += dt
		eng.step()
	}
}

func BenchmarkStepActiveInjector(b *testing.B) {
	eng := benchEngine(fault.MustNew(fault.Plan{Name: "noisy", Seed: 42, Events: []fault.Event{
		{Class: fault.SensorNoise, Start: 0, End: 1 << 60, Param: 3},
	}}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.now += dt
		eng.step()
	}
}

// TestFaultInjectionStepOverhead is the ISSUE's no-fault-path cost
// guard: an attached-but-idle injector may not slow the engine step by
// more than 2% versus no injector at all (the idle path is one cached
// time comparison). Both variants run on the SAME engine object with
// the injector swapped in and out between trials: two separately-built
// engines differ in heap layout, and at ~30 ns/step that alignment
// jitter alone exceeds the 2% margin. Timing noise is suppressed by
// taking the best of several interleaved trials — the minimum is the
// run least disturbed by the scheduler, which is the quantity the
// contract is about.
func TestFaultInjectionStepOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation disables the inlining the contract measures")
	}
	const steps = 200_000
	const trials = 9
	inj := fault.MustNew(fault.Plan{Name: "healthy", Seed: 42})
	eng := benchEngine(inj)
	run := func(with *fault.Injector) time.Duration {
		eng.cfg.Injector = with
		eng.Reset() // keeps trace capacity: no slice growth in the timed loop
		start := time.Now()
		for i := 0; i < steps; i++ {
			eng.now += dt
			eng.step()
		}
		return time.Since(start)
	}
	// Warm-up pass sizes the trace buffers and faults in the code.
	run(nil)
	run(inj)
	// A 2% budget is tight enough that a co-scheduled test package (the
	// full suite runs packages in parallel) can push a whole round over
	// it; a real regression is systematic, so only consistent failure
	// across independent rounds counts.
	var bare, idle time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		bare, idle = time.Duration(1<<62-1), time.Duration(1<<62-1)
		// Interleave paired trials so drift (thermal, scheduler) hits
		// both variants equally.
		for trial := 0; trial < trials; trial++ {
			if d := run(nil); d < bare {
				bare = d
			}
			if d := run(inj); d < idle {
				idle = d
			}
		}
		if idle <= bare+bare/50 { // within +2%
			t.Logf("bare %v, idle-injector %v (%.2f%%)", bare, idle,
				100*(float64(idle)/float64(bare)-1))
			return
		}
		t.Logf("round %d over budget (bare %v, idle %v); re-measuring", attempt, bare, idle)
	}
	t.Fatalf("idle injector step cost %v exceeds 1.02× bare %v in every round", idle, bare)
}
