package swctl

import (
	"math"
	"testing"

	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/psn"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
	"hcapp/internal/vr"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, sim.Millisecond, []string{"cpu"}); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := New(Neutral{}, 0, []string{"cpu"}); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := New(Neutral{}, sim.Millisecond, nil); err == nil {
		t.Fatal("empty domain list accepted")
	}
	if _, err := New(Neutral{}, sim.Millisecond, []string{"cpu"}); err != nil {
		t.Fatalf("valid supervisor rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(nil, sim.Millisecond, []string{"cpu"})
}

func TestStaticPolicy(t *testing.T) {
	p := Static{Component: "gpu"}
	tel := Telemetry{Progress: map[string]float64{"cpu": 0.5, "gpu": 0.4, "sha": 0.6}}
	out := p.Decide(tel)
	if out["gpu"] != 1.0 {
		t.Fatalf("prioritized gpu = %g", out["gpu"])
	}
	if out["cpu"] != 0.9 || out["sha"] != 0.9 {
		t.Fatalf("others = %v, want 0.9 (paper §5.3)", out)
	}
	if p.Name() != "static-gpu" {
		t.Fatalf("name %q", p.Name())
	}
	custom := Static{Component: "cpu", Others: 0.8}
	if got := custom.Decide(tel)["gpu"]; got != 0.8 {
		t.Fatalf("custom others = %g", got)
	}
}

func TestProgressBalancer(t *testing.T) {
	p := ProgressBalancer{Gain: 0.2, Floor: 0.8}
	tel := Telemetry{Progress: map[string]float64{"cpu": 0.2, "gpu": 0.5, "sha": 0.9}}
	out := p.Decide(tel)
	// The laggard gets full priority.
	if out["cpu"] != 1.0 {
		t.Fatalf("laggard priority = %g", out["cpu"])
	}
	// Leaders are de-prioritized proportionally to their lead, with a
	// floor.
	if !(out["gpu"] < 1.0 && out["gpu"] > out["sha"]) {
		t.Fatalf("ordering broken: %v", out)
	}
	if out["sha"] < 0.8 {
		t.Fatalf("floor violated: %g", out["sha"])
	}
	// The default configuration floors deep deficits.
	deep := ProgressBalancer{}.Decide(tel)
	if deep["sha"] != 0.85 {
		t.Fatalf("default floor = %g, want 0.85", deep["sha"])
	}
	if p.Decide(Telemetry{}) != nil {
		t.Fatal("empty telemetry should decide nothing")
	}
}

func TestProgressBalancerEqualProgress(t *testing.T) {
	p := ProgressBalancer{}
	out := p.Decide(Telemetry{Progress: map[string]float64{"a": 0.5, "b": 0.5}})
	if out["a"] != 1.0 || out["b"] != 1.0 {
		t.Fatalf("equal progress should be neutral: %v", out)
	}
}

func TestCriticalPath(t *testing.T) {
	p := &CriticalPath{}
	// First sample: no rate yet.
	if out := p.Decide(Telemetry{
		Now:      sim.Millisecond,
		Progress: map[string]float64{"cpu": 0.1, "gpu": 0.1},
	}); out != nil {
		t.Fatalf("first sample decided %v", out)
	}
	// Second sample: cpu progressed 0.4, gpu only 0.1 → gpu projected
	// last → prioritized.
	out := p.Decide(Telemetry{
		Now:      2 * sim.Millisecond,
		Progress: map[string]float64{"cpu": 0.5, "gpu": 0.2},
	})
	if out["gpu"] != 1.0 {
		t.Fatalf("critical component priority = %v", out)
	}
	if out["cpu"] != 0.9 {
		t.Fatalf("non-critical priority = %v", out)
	}
}

func TestCriticalPathStalledComponentWins(t *testing.T) {
	p := &CriticalPath{}
	p.Decide(Telemetry{Now: sim.Millisecond, Progress: map[string]float64{"a": 0.3, "b": 0.3}})
	out := p.Decide(Telemetry{Now: 2 * sim.Millisecond, Progress: map[string]float64{"a": 0.3, "b": 0.6}})
	if out["a"] != 1.0 {
		t.Fatalf("stalled component not critical: %v", out)
	}
}

func TestCriticalPathFinishedExcluded(t *testing.T) {
	p := &CriticalPath{}
	p.Decide(Telemetry{Now: sim.Millisecond, Progress: map[string]float64{"a": 0.5, "b": 0.9}})
	out := p.Decide(Telemetry{Now: 2 * sim.Millisecond, Progress: map[string]float64{"a": 0.6, "b": 1.0}})
	if out["a"] != 1.0 {
		t.Fatalf("unfinished component should be critical: %v", out)
	}
}

func TestNeutral(t *testing.T) {
	var n Neutral
	if n.Decide(Telemetry{Progress: map[string]float64{"a": 0.5}}) != nil {
		t.Fatal("neutral policy decided something")
	}
	if n.Name() != "neutral" {
		t.Fatalf("name %q", n.Name())
	}
}

// progComp is a minimal component with controllable progress and power.
type progComp struct {
	name     string
	progress float64
	power    float64
}

func (c *progComp) Name() string { return c.name }
func (c *progComp) Step(_ sim.Time, _ sim.Time, vdd float64) sim.StepResult {
	c.progress += 0.0001 * vdd
	return sim.StepResult{Power: c.power * vdd}
}
func (c *progComp) Done() bool         { return c.progress >= 1 }
func (c *progComp) Progress() float64  { return math.Min(1, c.progress) }
func (c *progComp) LastPower() float64 { return c.power }
func (c *progComp) Reset()             { c.progress = 0 }

// buildEngine assembles a two-component engine with a supervisor.
func buildEngine(t *testing.T, sup sched.Supervisor) (*sched.Engine, *progComp, *progComp) {
	t.Helper()
	dt := sim.Time(100)
	gvr := vr.MustRegulator(vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95})
	sensor := vr.MustSensor(vr.SensorConfig{}, dt)
	line := psn.MustDelayLine(0, dt, 0.95)
	domCfg := config.DomainConfig{
		Scale: 1, VMin: 0.6, VMax: 1.2,
		VR: vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95},
	}
	a := &progComp{name: "cpu", power: 30}
	b := &progComp{name: "gpu", power: 30}
	eng := sched.MustNew(sched.Config{
		DT: dt, GlobalVR: gvr, Sensor: sensor, PSN: line,
		Slots: []sched.Slot{
			{Domain: core.MustDomain("cpu", domCfg), Comp: a},
			{Domain: core.MustDomain("gpu", domCfg), Comp: b},
		},
		Recorder:   trace.MustRecorder(dt),
		Supervisor: sup,
	})
	return eng, a, b
}

func TestSupervisorWritesPriorities(t *testing.T) {
	sup := MustNew(Static{Component: "cpu"}, 100*sim.Microsecond, []string{"cpu", "gpu"})
	eng, _, _ := buildEngine(t, sup)
	eng.RunFor(350 * sim.Microsecond)
	if got := eng.Domain("cpu").Priority(); got != 1.0 {
		t.Fatalf("cpu priority = %g", got)
	}
	if got := eng.Domain("gpu").Priority(); got != 0.9 {
		t.Fatalf("gpu priority = %g", got)
	}
	if sup.Ticks() != 3 {
		t.Fatalf("ticks = %d, want 3", sup.Ticks())
	}
	if eng.SupervisorTicks() != 3 {
		t.Fatalf("engine ticks = %d", eng.SupervisorTicks())
	}
}

func TestSupervisorTelemetryGathering(t *testing.T) {
	var captured Telemetry
	spy := policyFunc{
		name: "spy",
		fn: func(tel Telemetry) map[string]float64 {
			captured = tel
			return nil
		},
	}
	sup := MustNew(spy, 50*sim.Microsecond, []string{"cpu", "gpu"})
	eng, a, _ := buildEngine(t, sup)
	eng.RunFor(60 * sim.Microsecond)
	if captured.Now == 0 {
		t.Fatal("no telemetry gathered")
	}
	if captured.Power["cpu"] != a.LastPower() {
		t.Fatalf("cpu power telemetry %g", captured.Power["cpu"])
	}
	if captured.Progress["cpu"] <= 0 {
		t.Fatal("cpu progress telemetry missing")
	}
	if captured.DomainV["gpu"] <= 0 {
		t.Fatal("gpu domain voltage telemetry missing")
	}
	if captured.TotalPower <= 0 {
		t.Fatal("total power telemetry missing")
	}
}

func TestSupervisorUnknownDomainIgnored(t *testing.T) {
	sup := MustNew(Static{Component: "nope"}, 50*sim.Microsecond, []string{"nope", "cpu"})
	eng, _, _ := buildEngine(t, sup)
	eng.RunFor(120 * sim.Microsecond) // must not panic
	if got := eng.Domain("cpu").Priority(); got != 0.9 {
		t.Fatalf("cpu priority = %g", got)
	}
}

func TestBalancerConvergesProgress(t *testing.T) {
	// Two components where one progresses per volt identically, but the
	// balancer shifts voltage toward the laggard; with supervision the
	// progress gap at the end must be smaller than without.
	gap := func(sup sched.Supervisor) float64 {
		eng, a, b := buildEngine(t, sup)
		b.progress = 0.3 // head start
		eng.RunFor(500 * sim.Microsecond)
		return math.Abs(b.Progress() - a.Progress())
	}
	without := gap(nil)
	with := gap(MustNew(ProgressBalancer{}, 50*sim.Microsecond, []string{"cpu", "gpu"}))
	if with >= without {
		t.Fatalf("balancer did not close the gap: %g vs %g", with, without)
	}
}

type policyFunc struct {
	name string
	fn   func(Telemetry) map[string]float64
}

func (p policyFunc) Name() string                          { return p.name }
func (p policyFunc) Decide(t Telemetry) map[string]float64 { return p.fn(t) }
