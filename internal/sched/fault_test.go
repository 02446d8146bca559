package sched

import (
	"testing"

	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/fault"
	"hcapp/internal/pid"
	"hcapp/internal/psn"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
	"hcapp/internal/vr"
)

// faultOpts parameterizes faultParts.
type faultOpts struct {
	injector *fault.Injector
	clamp    *core.Clamp
	holdover core.HoldoverConfig
	watchdog core.WatchdogConfig
	target   float64
}

// faultParts builds a one-domain engine with the resilience stack wired
// the way experiment.Build does: holdover in the global controller, a
// watchdog on the domain, the clamp after the controller.
func faultParts(t *testing.T, o faultOpts) (*Engine, *cubicLoad) {
	t.Helper()
	gvr := vr.MustRegulator(vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95, TransitionTime: 150, SlewRate: 5e6})
	sensor := vr.MustSensor(vr.SensorConfig{Delay: 60, FilterTau: 200}, dt)
	line := psn.MustDelayLine(75, dt, 0.95)
	if o.target == 0 {
		o.target = 80
	}
	global := core.MustGlobal(core.GlobalConfig{
		Period:      sim.Microsecond,
		TargetPower: o.target,
		PID: pid.Config{
			KP: 0.006, KI: 2500, FeedForward: 0.95,
			OutMin: 0.6, OutMax: 1.2, OverGain: 6,
		},
		Holdover: o.holdover,
	})
	dom := core.MustDomain("load", config.DomainConfig{
		Scale: 1.0, VMin: 0.6, VMax: 1.2,
		VR: vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95, TransitionTime: 130, SlewRate: 5e6},
	})
	if o.watchdog.Timeout > 0 {
		dom.EnableWatchdog(o.watchdog)
	}
	load := newCubicLoad("load", 80/(0.95*0.95*0.95), 0, 1e6)
	rec := trace.MustRecorder(dt)
	eng := MustNew(Config{
		DT:       dt,
		GlobalVR: gvr,
		Sensor:   sensor,
		PSN:      line,
		Global:   global,
		Slots:    []Slot{{Domain: dom, Comp: load}},
		Recorder: rec,
		Injector: o.injector,
		Clamp:    o.clamp,
	})
	return eng, load
}

// TestIdleInjectorMatchesNilTrace: an attached injector whose plan has
// no active events must be behaviorally invisible — the power trace is
// bit-identical to a run without any injector.
func TestIdleInjectorMatchesNilTrace(t *testing.T) {
	run := func(inj *fault.Injector) []float64 {
		eng, _ := faultParts(t, faultOpts{injector: inj})
		eng.RunFor(200 * sim.Microsecond)
		return append([]float64(nil), eng.Recorder().Totals()...)
	}
	bare := run(nil)
	idle := run(fault.MustNew(fault.Plan{Name: "healthy", Seed: 42}))
	if len(bare) != len(idle) {
		t.Fatalf("trace lengths differ: %d vs %d", len(bare), len(idle))
	}
	for i := range bare {
		if bare[i] != idle[i] {
			t.Fatalf("step %d: %g (nil) vs %g (idle injector)", i, bare[i], idle[i])
		}
	}
}

// TestInjectedRunIsDeterministic: the same plan re-run (via Reset and
// via a fresh engine) reproduces the identical perturbed trace.
func TestInjectedRunIsDeterministic(t *testing.T) {
	plan := fault.Plan{Name: "mix", Seed: 7, Events: []fault.Event{
		{Class: fault.SensorNoise, Start: 20 * sim.Microsecond, End: 120 * sim.Microsecond, Param: 4},
		{Class: fault.SensorDropout, Start: 50 * sim.Microsecond, End: 150 * sim.Microsecond, Param: 0.5},
		{Class: fault.RailDroop, Start: 80 * sim.Microsecond, End: 100 * sim.Microsecond, Param: 0.03},
	}}
	eng, _ := faultParts(t, faultOpts{injector: fault.MustNew(plan)})
	eng.RunFor(200 * sim.Microsecond)
	first := append([]float64(nil), eng.Recorder().Totals()...)
	counts := eng.Injector().Counts()

	eng.Reset()
	eng.RunFor(200 * sim.Microsecond)
	second := eng.Recorder().Totals()
	if len(first) != len(second) {
		t.Fatalf("trace lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("step %d: %g vs %g after Reset", i, first[i], second[i])
		}
	}
	if eng.Injector().Counts() != counts {
		t.Fatalf("counts differ across identical runs: %+v vs %+v", counts, eng.Injector().Counts())
	}
	if counts.SenseDropped == 0 || counts.SensePerturbed == 0 || counts.RailSteps == 0 {
		t.Fatalf("plan did not exercise all hooks: %+v", counts)
	}
}

// TestSensorBlackoutEngagesFailSafe: with every sample dropped and
// holdover armed, the global controller must ride through MaxAge on its
// held command and then drop to the fail-safe floor.
func TestSensorBlackoutEngagesFailSafe(t *testing.T) {
	plan := fault.Plan{Name: "blackout", Events: []fault.Event{
		{Class: fault.SensorDropout, Start: 50 * sim.Microsecond, End: 250 * sim.Microsecond, Param: 1.0},
	}}
	eng, _ := faultParts(t, faultOpts{
		injector: fault.MustNew(plan),
		holdover: core.HoldoverConfig{MaxAge: 20 * sim.Microsecond},
	})
	eng.RunFor(300 * sim.Microsecond)
	g := eng.GlobalController()
	if g.HoldoverCycles() == 0 {
		t.Error("no holdover cycles during blackout onset")
	}
	if g.FailsafeCycles() == 0 {
		t.Error("fail-safe never engaged past the age bound")
	}
	// ~180 µs of blackout beyond the 20 µs bound at a 1 µs period.
	if got := g.FailsafeCycles(); got < 150 {
		t.Errorf("failsafe cycles %d, want >= 150", got)
	}
}

// TestDomainSilenceTripsWatchdog: a hung domain controller must be
// caught by its watchdog and parked at the fail-safe voltage.
func TestDomainSilenceTripsWatchdog(t *testing.T) {
	plan := fault.Plan{Name: "hang", Events: []fault.Event{
		{Class: fault.DomainSilence, Start: 50 * sim.Microsecond, End: 150 * sim.Microsecond, Domain: "load"},
	}}
	eng, _ := faultParts(t, faultOpts{
		injector: fault.MustNew(plan),
		watchdog: core.WatchdogConfig{Timeout: 20 * sim.Microsecond},
	})
	eng.RunFor(100 * sim.Microsecond) // stop mid-silence
	d := eng.Domain("load")
	if d.WatchdogTrips() != 1 {
		t.Fatalf("watchdog trips = %d, want 1", d.WatchdogTrips())
	}
	if !d.WatchdogTripped() || d.Output() != 0.6 {
		t.Fatalf("domain at %g (tripped=%v), want parked at 0.6", d.Output(), d.WatchdogTripped())
	}
	// Let the controller resume: the domain recovers and the trip clears.
	eng.RunFor(100 * sim.Microsecond)
	if d.WatchdogTripped() {
		t.Fatal("watchdog still tripped after controller resumed")
	}
}

// TestClampHoldsCapAgainstLyingSensor is the tentpole safety property
// at engine scope: a sensor stuck far below truth blinds the PID into
// commanding maximum voltage, and the clamp alone must keep the true
// power's window average under the cap.
func TestClampHoldsCapAgainstLyingSensor(t *testing.T) {
	const capW = 100.0
	window := 20 * sim.Microsecond
	plan := fault.Plan{Name: "stuck-low", Events: []fault.Event{
		{Class: fault.SensorStuck, Start: 50 * sim.Microsecond, End: 400 * sim.Microsecond, Param: 20},
	}}
	run := func(clamp *core.Clamp) float64 {
		eng, _ := faultParts(t, faultOpts{injector: fault.MustNew(plan), clamp: clamp})
		eng.RunFor(500 * sim.Microsecond)
		return eng.Recorder().MaxWindowAvg(window)
	}
	unprotected := run(nil)
	if unprotected <= capW {
		t.Fatalf("setup: lying sensor did not breach the cap (max %g)", unprotected)
	}
	clamp := core.MustClamp(core.ClampConfig{CapW: capW, Window: window, DT: dt})
	protected := run(clamp)
	if protected > capW {
		t.Fatalf("clamp failed: window max %g above cap %g", protected, capW)
	}
	if clamp.Trips() == 0 {
		t.Fatal("clamp never tripped while the sensor lied")
	}
}

// TestVRSlewDegradationRestored: the injector degrades the global VR
// slew only inside the event window and restores it after.
func TestVRSlewDegradationRestored(t *testing.T) {
	plan := fault.Plan{Name: "slew", Events: []fault.Event{
		{Class: fault.VRSlew, Start: 10 * sim.Microsecond, End: 20 * sim.Microsecond, Param: 0.25},
	}}
	eng, _ := faultParts(t, faultOpts{injector: fault.MustNew(plan)})
	eng.RunFor(15 * sim.Microsecond)
	if s := eng.cfg.GlobalVR.SlewScale(); s != 0.25 {
		t.Fatalf("slew scale %g mid-event, want 0.25", s)
	}
	eng.RunFor(10 * sim.Microsecond)
	if s := eng.cfg.GlobalVR.SlewScale(); s != 1 {
		t.Fatalf("slew scale %g after event, want restored to 1", s)
	}
	if c := eng.Injector().Counts(); c.SlewSteps == 0 {
		t.Fatal("slew steps not counted")
	}
}
