package fault

import (
	"fmt"
	"math/rand"

	"hcapp/internal/sim"
)

// Injector evaluates a Plan against simulated time. The engine calls
// BeginStep once per step; when it returns false (no active event) every
// other hook is skipped, so an idle injector costs one time comparison
// per step and a disabled (nil) injector costs one pointer comparison.
//
// All stochastic draws happen in step order from a private PRNG seeded
// by the plan, so a given (plan, seed) is bit-reproducible.
type Injector struct {
	plan   Plan
	events []Event // sorted by Start
	rng    *rand.Rand

	next       int   // index of the next not-yet-activated event
	active     []int // indices of currently active events
	nextChange sim.Time

	// Per-step resolved state, valid when stepActive.
	stepActive  bool
	slewScale   float64
	railDelta   float64
	senseStuck  bool
	senseStuckW float64
	senseNoiseW float64
	senseDrop   bool

	counts Counts
}

// Counts tallies the perturbations an injector has applied — the
// fault-side numbers the resilience counters in internal/telemetry
// export (see Metrics).
type Counts struct {
	// SenseDropped counts power samples dropped on the sensing path.
	SenseDropped int64
	// SensePerturbed counts samples altered (stuck or noisy).
	SensePerturbed int64
	// TelemetryLost counts per-domain metric deliveries dropped.
	TelemetryLost int64
	// TelemetryStale counts per-domain deliveries aged by delay events.
	TelemetryStale int64
	// SilencedSteps counts domain-controller steps executed silent.
	SilencedSteps int64
	// RailSteps counts steps with a rail-droop perturbation applied.
	RailSteps int64
	// SlewSteps counts steps with a degraded global-VR slew.
	SlewSteps int64
}

// New builds an injector for a validated plan.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		plan:   plan,
		events: sortedEvents(plan.Events),
	}
	in.Reset()
	return in, nil
}

// MustNew is New that panics on an invalid plan.
func MustNew(plan Plan) *Injector {
	in, err := New(plan)
	if err != nil {
		panic(err)
	}
	return in
}

// Plan returns the plan the injector evaluates.
func (in *Injector) Plan() Plan { return in.plan }

// Counts returns the perturbation tallies so far.
func (in *Injector) Counts() Counts { return in.counts }

// Reset rewinds the injector for another run: the PRNG is reseeded, so
// a re-run reproduces the identical perturbation sequence.
func (in *Injector) Reset() {
	in.rng = rand.New(rand.NewSource(in.plan.Seed))
	in.next = 0
	in.active = in.active[:0]
	in.nextChange = 0
	in.stepActive = false
	in.counts = Counts{}
	if len(in.events) > 0 {
		in.nextChange = in.events[0].Start
	} else {
		in.nextChange = sim.Time(1<<62 - 1)
	}
}

// NextChange returns the next time the active-event set can change.
// While the injector is idle (BeginStep returned false), every step
// strictly before NextChange is guaranteed idle too — the bound the
// engine uses to end strides before a fault window opens.
func (in *Injector) NextChange() sim.Time { return in.nextChange }

// BeginStep advances the injector to time now and reports whether any
// event is active this step. It must be called once per engine step,
// with monotonically increasing now. The idle fast path (no active
// event, next boundary not reached) is two comparisons and inlines into
// the engine step — the property the <2% no-fault overhead guard in
// sched's bench_test.go depends on.
func (in *Injector) BeginStep(now sim.Time) bool {
	if now < in.nextChange && len(in.active) == 0 {
		return false
	}
	return in.beginSlow(now)
}

// beginSlow is BeginStep off the idle fast path: cross an event
// boundary and/or resolve the active set for this step.
func (in *Injector) beginSlow(now sim.Time) bool {
	if now >= in.nextChange {
		in.advance(now)
	}
	if len(in.active) == 0 {
		in.stepActive = false
		return false
	}
	in.resolveStep()
	return true
}

// advance updates the active set and the next time it can change.
func (in *Injector) advance(now sim.Time) {
	// Retire ended events.
	kept := in.active[:0]
	for _, i := range in.active {
		if in.events[i].End > now {
			kept = append(kept, i)
		}
	}
	in.active = kept
	// Admit newly started ones.
	for in.next < len(in.events) && in.events[in.next].Start <= now {
		if in.events[in.next].End > now {
			in.active = append(in.active, in.next)
		}
		in.next++
	}
	// Next boundary: earliest active end or next start.
	next := sim.Time(1<<62 - 1)
	for _, i := range in.active {
		if in.events[i].End < next {
			next = in.events[i].End
		}
	}
	if in.next < len(in.events) && in.events[in.next].Start < next {
		next = in.events[in.next].Start
	}
	in.nextChange = next
}

// resolveStep computes this step's perturbation state from the active
// events, drawing stochastic values in event order.
func (in *Injector) resolveStep() {
	in.stepActive = true
	in.slewScale = 1
	in.railDelta = 0
	in.senseStuck = false
	in.senseStuckW = 0
	in.senseNoiseW = 0
	in.senseDrop = false
	for _, i := range in.active {
		e := &in.events[i]
		switch e.Class {
		case SensorStuck:
			in.senseStuck = true
			in.senseStuckW = e.Param
		case SensorNoise:
			in.senseNoiseW += in.rng.NormFloat64() * e.Param
		case SensorDropout:
			if in.rng.Float64() < e.Param {
				in.senseDrop = true
			}
		case VRSlew:
			if e.Param < in.slewScale {
				in.slewScale = e.Param
			}
		case RailDroop:
			in.railDelta += e.Param
		}
	}
}

// SlewScale returns this step's global-VR slew degradation factor.
// Call only after BeginStep returned true.
func (in *Injector) SlewScale() float64 {
	if in.slewScale < 1 {
		in.counts.SlewSteps++
	}
	return in.slewScale
}

// Rail perturbs the post-PSN rail voltage (transient droop), floored at
// zero. Call only after BeginStep returned true.
func (in *Injector) Rail(v float64) float64 {
	if in.railDelta == 0 {
		return v
	}
	in.counts.RailSteps++
	v -= in.railDelta
	if v < 0 {
		v = 0
	}
	return v
}

// Sense perturbs the true package power sample entering the sensing
// path. ok=false means the sample was dropped: the sensor holds its
// last value and the reading's age grows. Call only after BeginStep
// returned true.
func (in *Injector) Sense(trueW float64) (w float64, ok bool) {
	if in.senseDrop {
		in.counts.SenseDropped++
		return 0, false
	}
	switch {
	case in.senseStuck:
		in.counts.SensePerturbed++
		return in.senseStuckW, true
	case in.senseNoiseW != 0:
		in.counts.SensePerturbed++
		return trueW + in.senseNoiseW, true
	}
	return trueW, true
}

// Silenced reports whether the named domain controller is hung this
// step. Call only after BeginStep returned true.
func (in *Injector) Silenced(domain string) bool {
	for _, i := range in.active {
		e := &in.events[i]
		if e.Class == DomainSilence && e.Domain == domain {
			in.counts.SilencedSteps++
			return true
		}
	}
	return false
}

// TelemetrySample models one per-domain metric delivery over the NoC
// collection path at time now: delivered=false is a lost sample, a
// positive age is a stale one. Healthy paths return (0, true). Called
// by the centralized controller at its own period (not per engine
// step), so it scans the active set directly.
func (in *Injector) TelemetrySample(now sim.Time, domain string) (age sim.Time, delivered bool) {
	delivered = true
	for _, i := range in.active {
		e := &in.events[i]
		if e.Domain != "" && e.Domain != domain {
			continue
		}
		switch e.Class {
		case TelemetryLoss:
			if in.rng.Float64() < e.Param {
				in.counts.TelemetryLost++
				delivered = false
			}
		case TelemetryDelay:
			if a := sim.Time(e.Param); a > age {
				in.counts.TelemetryStale++
				age = a
			}
		}
	}
	return age, delivered
}

// String summarizes the injector for logs.
func (in *Injector) String() string {
	return fmt.Sprintf("fault.Injector{plan=%s seed=%d events=%d}", in.plan.Name, in.plan.Seed, len(in.events))
}
