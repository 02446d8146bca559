package core

import (
	"fmt"
	"math"

	"hcapp/internal/pid"
	"hcapp/internal/sim"
	"hcapp/internal/vr"
)

// GlobalConfig parameterizes the level-1 global voltage controller.
type GlobalConfig struct {
	// Period is the control cycle time: 1 µs for HCAPP, 100 µs for the
	// RAPL-like variant, 10 ms for the SW-like variant (§4.6).
	Period sim.Time
	// TargetPower is PSPEC in Eq. 1, watts. The paper is explicit that
	// this is a *target*, not the limit: "HCAPP will have maximum values
	// above the power target and those cannot exceed the power limit"
	// (§5.1), so the target carries the guardband for a given limit
	// window.
	TargetPower float64
	// PID holds the Eq. 2 gains. FeedForward is VOffset, "set to
	// approximately the average voltage expected throughout execution"
	// (§3.1). OutMin/OutMax are the global VR's range.
	PID pid.Config
	// Holdover, when non-zero, arms stale-sample resilience: see
	// HoldoverConfig.
	Holdover HoldoverConfig
}

// HoldoverConfig arms the global controller against a sensing path that
// stops delivering samples (sensor dropout, ADC hang). While the last
// good sample is younger than MaxAge the controller holds its last
// command — last-known-good holdover, no PID update, so stale data
// cannot wind up the integrator. Once the age bound is exceeded the
// controller stops trusting the sensing path entirely and commands
// FailSafeV: with the rail at the fail-safe floor the package
// physically cannot exceed its cap, which is the only guarantee
// available without a sensor.
type HoldoverConfig struct {
	// MaxAge bounds how stale the held sample may grow before fail-safe
	// engages. Zero disables holdover (legacy behaviour: stale samples
	// are consumed as if fresh).
	MaxAge sim.Time
	// FailSafeV is the voltage commanded past the age bound; zero
	// defaults to the PID's OutMin (the regulator floor).
	FailSafeV float64
}

// Validate reports whether the configuration is usable.
func (c GlobalConfig) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("core: non-positive control period %d", c.Period)
	}
	if c.TargetPower <= 0 {
		return fmt.Errorf("core: non-positive power target %g", c.TargetPower)
	}
	if c.Holdover.MaxAge < 0 {
		return fmt.Errorf("core: negative holdover age bound %d", c.Holdover.MaxAge)
	}
	return c.PID.Validate()
}

// Global is the level-1 controller. On each control cycle it converts the
// power error to a voltage error via the cube root (the approximate cubic
// relationship between power and voltage, Eq. 1), runs the PID law
// (Eq. 2) and commands the global voltage regulator.
type Global struct {
	cfg      GlobalConfig
	pid      *pid.Controller
	nextFire sim.Time
	lastCmd  float64
	cycles   int64
	accum    float64 // ∑ sensed power over the current control window
	samples  int64
	lastAvg  float64

	// Stale-sample resilience counters (Holdover armed).
	holdoverCycles int64
	failsafeCycles int64
	inFailsafe     bool
}

// NewGlobal constructs the controller.
func NewGlobal(cfg GlobalConfig) (*Global, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := pid.New(cfg.PID)
	if err != nil {
		return nil, err
	}
	// The first action waits for one full control window so the
	// controller never acts on an empty energy counter.
	return &Global{cfg: cfg, pid: p, lastCmd: cfg.PID.FeedForward, nextFire: cfg.Period}, nil
}

// MustGlobal is NewGlobal that panics on invalid configuration.
func MustGlobal(cfg GlobalConfig) *Global {
	g, err := NewGlobal(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Config returns the controller configuration.
func (g *Global) Config() GlobalConfig { return g.cfg }

// SetTargetPower retargets PSPEC (the paper notes the power limit "could
// be changed dynamically during a run without needing costly PID
// analysis", §5.2).
func (g *Global) SetTargetPower(w float64) {
	if w > 0 {
		g.cfg.TargetPower = w
	}
}

// VErr computes Eq. 1: the signed cube root of the power error.
func VErr(pspec, pnow float64) float64 { return math.Cbrt(pspec - pnow) }

// Step runs the controller at time now given the sensed package power,
// commanding reg when a control-cycle boundary is crossed. It returns
// true when a control action fired. Call once per engine step.
//
// PNOW is the *running average* of the sensed power over the controller's
// own window, the way RAPL-class controllers read energy counters rather
// than instantaneous samples. A burst shorter than the control period is
// therefore diluted in a slow controller's view — which is exactly why
// the RAPL-like and SW-like variants neither react inside bursts nor
// over-throttle after them (paper §5.2's ferret discussion).
func (g *Global) Step(now sim.Time, sensedPower float64, reg *vr.Regulator) bool {
	return g.StepSensed(now, sensedPower, 0, reg)
}

// StepSensed is Step with the sensing path's sample age attached: age
// is the simulated time since the last sample actually arrived (0 for
// a healthy path). With Holdover armed, a control cycle decided on a
// stale sample holds the last command instead of updating the PID, and
// a cycle whose staleness exceeds the holdover bound commands the
// fail-safe voltage. With Holdover disarmed, age is ignored.
func (g *Global) StepSensed(now sim.Time, sensedPower float64, age sim.Time, reg *vr.Regulator) bool {
	g.accum += sensedPower
	g.samples++
	if now < g.nextFire {
		return false
	}
	g.nextFire = now + g.cfg.Period
	avg := g.accum / float64(g.samples)
	g.accum, g.samples = 0, 0
	g.lastAvg = avg
	if g.cfg.Holdover.MaxAge > 0 && age > 0 {
		g.cycles++
		if age > g.cfg.Holdover.MaxAge {
			// Past the age bound: the sensing path is gone; drop to the
			// fail-safe floor where the cap holds without measurement.
			vsafe := g.cfg.Holdover.FailSafeV
			if vsafe == 0 {
				vsafe = g.cfg.PID.OutMin
			}
			reg.Command(now, vsafe)
			g.lastCmd = vsafe
			g.failsafeCycles++
			g.inFailsafe = true
			return true
		}
		// Bounded-age holdover: keep the last command, skip the PID so
		// the integrator never winds up on replayed data.
		reg.Command(now, g.lastCmd)
		g.holdoverCycles++
		return true
	}
	if g.inFailsafe {
		// Fresh samples are back; restart the PID cleanly rather than
		// integrating across the outage.
		g.pid.Reset()
		g.inFailsafe = false
	}
	errV := VErr(g.cfg.TargetPower, avg)
	v := g.pid.Update(errV, sim.Seconds(g.cfg.Period))
	reg.Command(now, v)
	g.lastCmd = v
	g.cycles++
	return true
}

// NextFire returns the time of the next control-cycle boundary: the
// first step whose now is >= NextFire takes a control action. The
// engine ends strides strictly before this boundary.
func (g *Global) NextFire() sim.Time { return g.nextFire }

// AccumulateN replays n steps of window accumulation at a constant
// sensed power without crossing a control-cycle boundary (the caller
// bounds n by NextFire). The repeated additions reproduce StepSensed's
// per-step accumulation bitwise — a closed-form n·sensed would round
// differently.
func (g *Global) AccumulateN(sensedPower float64, n int64) {
	for i := int64(0); i < n; i++ {
		g.accum += sensedPower
	}
	g.samples += n
}

// NotifyOverrideRelease tells the controller an external override (the
// package safety clamp) just released the rail. The PID restarts
// cleanly: while the override held the rail down, the sensed power it
// observed was an artifact of the override, and integrating it would
// carry windup into the recovery.
func (g *Global) NotifyOverrideRelease() { g.pid.Reset() }

// HoldoverCycles returns how many control cycles were decided on held
// (stale but in-bound) samples.
func (g *Global) HoldoverCycles() int64 { return g.holdoverCycles }

// FailsafeCycles returns how many control cycles commanded the
// fail-safe voltage because the sample age bound was exceeded.
func (g *Global) FailsafeCycles() int64 { return g.failsafeCycles }

// LastWindowPower returns the mean power the controller saw over its
// most recent completed control window.
func (g *Global) LastWindowPower() float64 { return g.lastAvg }

// LastCommand returns the most recent commanded voltage.
func (g *Global) LastCommand() float64 { return g.lastCmd }

// Cycles returns the number of control actions taken.
func (g *Global) Cycles() int64 { return g.cycles }

// Reset rewinds controller state for reuse across runs.
func (g *Global) Reset() {
	g.pid.Reset()
	g.nextFire = g.cfg.Period
	g.lastCmd = g.cfg.PID.FeedForward
	g.cycles = 0
	g.accum, g.samples = 0, 0
	g.lastAvg = 0
	g.holdoverCycles = 0
	g.failsafeCycles = 0
	g.inFailsafe = false
}
