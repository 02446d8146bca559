package sched

import (
	"testing"

	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/psn"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
	"hcapp/internal/vr"
)

// recordingObserver captures what the engine publishes per step.
type recordingObserver struct {
	steps   int64
	lastNow sim.Time
	lastTot float64
	domains []string
	powerOK bool
}

func (o *recordingObserver) ObserveSteps(now, dt sim.Time, n int64, total float64, domains []DomainSample) {
	o.steps += n
	o.lastNow = now + sim.Time(n-1)*dt
	o.lastTot = total
	if o.domains == nil {
		for _, d := range domains {
			o.domains = append(o.domains, d.Domain)
		}
	}
	sum := 0.0
	for _, d := range domains {
		sum += d.Power
		if d.Voltage <= 0 {
			return
		}
	}
	// Total includes VR conversion loss on top of the component sum;
	// with the lossless test regulator they must match exactly.
	o.powerOK = sum == total
}

func observedEngine(t *testing.T, obs StepObserver) *Engine {
	t.Helper()
	gvrCfg := vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95, TransitionTime: 150, SlewRate: 5e6}
	domCfg := config.DomainConfig{
		Scale: 1.0, VMin: 0.6, VMax: 1.2,
		VR: vr.RegulatorConfig{VMin: 0.6, VMax: 1.2, VInit: 0.95, TransitionTime: 130, SlewRate: 5e6},
	}
	return MustNew(Config{
		DT:       dt,
		GlobalVR: vr.MustRegulator(gvrCfg),
		Sensor:   vr.MustSensor(vr.SensorConfig{Delay: 60, FilterTau: 200}, dt),
		PSN:      psn.MustDelayLine(75, dt, 0.95),
		Slots: []Slot{
			{Domain: core.MustDomain("cpu", domCfg), Comp: newCubicLoad("cpu", 30, 0, 1e6)},
			{Domain: core.MustDomain("gpu", domCfg), Comp: newCubicLoad("gpu", 50, 0, 1e6)},
		},
		Recorder: trace.MustRecorder(dt),
		Observer: obs,
	})
}

func TestObserverSeesEveryStep(t *testing.T) {
	obs := &recordingObserver{}
	eng := observedEngine(t, obs)
	eng.RunFor(10 * sim.Microsecond)

	wantSteps := int64(10 * sim.Microsecond / dt)
	if obs.steps != wantSteps {
		t.Fatalf("observer saw %d steps, want %d", obs.steps, wantSteps)
	}
	if eng.Steps() != wantSteps {
		t.Fatalf("engine.Steps() = %d, want %d", eng.Steps(), wantSteps)
	}
	if obs.lastNow != 10*sim.Microsecond {
		t.Fatalf("last observed now = %d, want %d", obs.lastNow, 10*sim.Microsecond)
	}
	if len(obs.domains) != 2 || obs.domains[0] != "cpu" || obs.domains[1] != "gpu" {
		t.Fatalf("observed domains = %v", obs.domains)
	}
	if !obs.powerOK {
		t.Fatal("per-domain powers do not sum to the observed total")
	}
	if obs.lastTot <= 0 {
		t.Fatalf("observed total power %g not positive", obs.lastTot)
	}
}

func TestObserverResetRestartsStepCount(t *testing.T) {
	obs := &recordingObserver{}
	eng := observedEngine(t, obs)
	eng.RunFor(2 * sim.Microsecond)
	eng.Reset()
	if eng.Steps() != 0 {
		t.Fatalf("Steps() after Reset = %d", eng.Steps())
	}
	eng.RunFor(sim.Microsecond)
	if eng.Steps() != int64(sim.Microsecond/dt) {
		t.Fatalf("Steps() after rerun = %d", eng.Steps())
	}
}

// TestObserverZeroAllocSteps pins the hot-path contract: an observed
// engine step allocates nothing for the observation itself.
func TestObserverZeroAllocSteps(t *testing.T) {
	obs := &recordingObserver{}
	eng := observedEngine(t, obs)
	eng.RunFor(sim.Microsecond) // warm-up: recorder growth, name capture
	allocs := testing.AllocsPerRun(100, func() {
		eng.RunFor(dt)
	})
	// The trace recorder's append may occasionally grow its backing
	// array; anything beyond that means the observer path allocates.
	if allocs > 1 {
		t.Fatalf("observed step allocates %.1f/op", allocs)
	}
}

// TestSetObserverAttachDetach: an observer attached mid-run sees every
// later step with named, consistent samples, and a detached one sees
// none.
func TestSetObserverAttachDetach(t *testing.T) {
	eng := observedEngine(t, nil)
	eng.RunFor(2 * sim.Microsecond)
	obs := &recordingObserver{}
	eng.SetObserver(obs)
	eng.RunFor(3 * sim.Microsecond)
	if want := int64(3 * sim.Microsecond / dt); obs.steps != want {
		t.Fatalf("attached observer saw %d steps, want %d", obs.steps, want)
	}
	if len(obs.domains) != 2 || obs.domains[0] != "cpu" || obs.domains[1] != "gpu" {
		t.Fatalf("observed domains = %v", obs.domains)
	}
	if !obs.powerOK {
		t.Fatal("per-domain powers do not sum to the observed total")
	}
	eng.SetObserver(nil)
	eng.RunFor(sim.Microsecond)
	if obs.steps != int64(3*sim.Microsecond/dt) {
		t.Fatalf("detached observer saw %d steps", obs.steps)
	}
}
