package core

import (
	"fmt"

	"hcapp/internal/sim"
	"hcapp/internal/vr"
)

// ClampConfig parameterizes the package-level safety clamp.
type ClampConfig struct {
	// CapW is the hard package power cap, watts. The clamp's contract is
	// that the summed package power never averages above CapW over the
	// limit window, regardless of what the sensing path reports.
	CapW float64
	// Window is the averaging window the clamp's comparator evaluates —
	// power limits are window-defined, so the clamp matches the limit's
	// form instead of punishing sub-window bursts the controller already
	// rides out. Default 20 µs (the package-pin window).
	Window sim.Time
	// DT is the engine timestep (sizes the comparator's ring buffer).
	DT sim.Time
	// TripFrac is the fraction of CapW at which the window comparator
	// engages (default 0.90). It carries the actuation-latency margin:
	// between the trip and the rail actually falling, power keeps rising
	// for one PSN delay plus the VR transition time plus the slew-down
	// time.
	TripFrac float64
	// VSafe is the voltage forced onto the global regulator while
	// tripped (default: the regulator's VMin).
	VSafe float64
	// Hold is the minimum engagement once tripped (default 10 µs):
	// hysteresis so a borderline load doesn't chatter the rail.
	Hold sim.Time
	// VGuard is the rail ceiling after a release (default: the midpoint
	// of the regulator's range). A release does not hand the rail
	// straight back: a controller blinded by a lying sensor would
	// re-command maximum voltage, and a slew-limited rail cannot cut a
	// burst at high voltage inside one limit window. Instead the clamp
	// caps the regulator target at a ceiling that starts at VGuard and
	// ramps up at GuardRamp, so voltage only returns to the top of the
	// range through a span of demonstrated-safe operation.
	VGuard float64
	// GuardRamp is the ceiling's rise rate in V/s (default: the
	// regulator's slew rate / 10).
	GuardRamp float64
}

// withDefaults fills the zero knobs.
func (c ClampConfig) withDefaults() ClampConfig {
	if c.TripFrac == 0 {
		c.TripFrac = 0.90
	}
	if c.Hold == 0 {
		c.Hold = 10 * sim.Microsecond
	}
	if c.Window == 0 {
		c.Window = 20 * sim.Microsecond
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c ClampConfig) Validate() error {
	c = c.withDefaults()
	if c.CapW <= 0 {
		return fmt.Errorf("core: clamp cap %g not positive", c.CapW)
	}
	if c.TripFrac <= 0 || c.TripFrac > 1 {
		return fmt.Errorf("core: clamp trip fraction %g outside (0,1]", c.TripFrac)
	}
	if c.Hold < 0 {
		return fmt.Errorf("core: negative clamp hold %d", c.Hold)
	}
	if c.DT <= 0 {
		return fmt.Errorf("core: clamp needs the engine timestep, got %d", c.DT)
	}
	if c.Window < c.DT {
		return fmt.Errorf("core: clamp window %d below timestep %d", c.Window, c.DT)
	}
	if c.VGuard < 0 {
		return fmt.Errorf("core: negative guard ceiling %g", c.VGuard)
	}
	if c.GuardRamp < 0 {
		return fmt.Errorf("core: negative guard ramp %g", c.GuardRamp)
	}
	return nil
}

// Clamp is the package-level safety net: an independent comparator fed
// by the summed domain-regulator output currents — a measurement path
// separate from the (fallible) global power sensor, the way real power
// stages aggregate their per-phase current monitors. It maintains its
// own sliding-window average of true package power; when that average
// crosses TripFrac × CapW it overrides the global regulator to VSafe,
// re-commanding every step so no controller command can supersede it.
// After the average falls back below the threshold and the hold
// expires, it restores the regulator's pre-trip target (essential for
// fixed-rail systems, where nothing else re-commands the rail). It is
// the mechanism that keeps the cap honest when the sensing path lies
// low, when telemetry is stale, or when the control loop is degraded.
type Clamp struct {
	cfg       ClampConfig
	tripped   bool
	holdUntil sim.Time
	restoreV  float64 // regulator target captured at trip
	trips     int64
	steps     int64 // steps spent engaged

	// Guarded re-entry state: after a release the rail target is capped
	// at ceil, which ramps toward the regulator's VMax.
	guard bool
	ceil  float64

	// Sliding-window comparator state.
	ring []float64
	idx  int
	fill int
	sum  float64
}

// NewClamp builds the clamp.
func NewClamp(cfg ClampConfig) (*Clamp, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Clamp{cfg: cfg, ring: make([]float64, cfg.Window/cfg.DT)}, nil
}

// MustClamp is NewClamp that panics on invalid configuration.
func MustClamp(cfg ClampConfig) *Clamp {
	c, err := NewClamp(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the clamp configuration (defaults resolved).
func (c *Clamp) Config() ClampConfig { return c.cfg }

// Step evaluates the clamp at time now against the true package power
// and, while engaged, forces reg to the safe voltage. It runs after the
// global controller in the engine step so its command always wins.
// Returns whether the clamp is engaged this step.
func (c *Clamp) Step(now sim.Time, truePowerW float64, reg *vr.Regulator) bool {
	// Advance the sliding window.
	c.sum += truePowerW - c.ring[c.idx]
	c.ring[c.idx] = truePowerW
	if c.idx++; c.idx == len(c.ring) {
		c.idx = 0
	}
	if c.fill < len(c.ring) {
		c.fill++
	}
	avg := c.sum / float64(c.fill)

	rcfg := reg.Config()
	if avg >= c.cfg.CapW*c.cfg.TripFrac {
		if !c.tripped {
			c.tripped = true
			c.trips++
			c.restoreV = reg.Commanded()
		}
		c.holdUntil = now + c.cfg.Hold
	} else if c.tripped && now >= c.holdUntil {
		c.tripped = false
		// Guarded re-entry: restore the pre-trip target (a controller
		// re-commands within a cycle anyway; a fixed rail never would)
		// but capped at the guard ceiling.
		c.guard = true
		c.ceil = c.cfg.VGuard
		if c.ceil == 0 {
			c.ceil = rcfg.VMin + 0.5*(rcfg.VMax-rcfg.VMin)
		}
		v := c.restoreV
		if v > c.ceil {
			v = c.ceil
		}
		reg.Command(now, v)
		return false
	}
	if c.tripped {
		vsafe := c.cfg.VSafe
		if vsafe == 0 {
			vsafe = rcfg.VMin
		}
		// Re-command only when a controller re-targeted the rail since
		// the last override: commanding every step would restart the
		// regulator's transition timer forever and freeze the rail at
		// its pre-trip voltage (the domain controller documents the same
		// trap). The comparison is against the pending command, not the
		// landed target — the transition time exceeds the engine step,
		// so the landed target lags by design. The clamp runs after the
		// controller in the engine step, so a rogue command is corrected
		// within the same step.
		if reg.Commanded() != vsafe {
			reg.Command(now, vsafe)
		}
		c.steps++
		return true
	}
	if c.guard {
		ramp := c.cfg.GuardRamp
		if ramp == 0 {
			ramp = rcfg.SlewRate / 10
		}
		c.ceil += ramp * sim.Seconds(c.cfg.DT)
		if c.ceil >= rcfg.VMax {
			c.guard = false
		} else if reg.Commanded() > c.ceil {
			reg.Command(now, c.ceil)
		}
	}
	return false
}

// SteadyAt reports whether Step(now, p, reg) would be a pure window
// rotation with no side effects on the regulator: untripped, no guard
// ramp in flight, the window full and flat at p (so sum += p−p adds
// exactly zero), and the average strictly below the trip threshold.
// While this holds the engine replays steps with AdvanceN.
func (c *Clamp) SteadyAt(p float64) bool {
	if c.tripped || c.guard || c.fill < len(c.ring) {
		return false
	}
	for _, v := range c.ring {
		if v != p {
			return false
		}
	}
	return c.sum/float64(c.fill) < c.cfg.CapW*c.cfg.TripFrac
}

// AdvanceN replays n steps of a comparator that SteadyAt verified flat:
// each step stores the value already present and rotates the index.
func (c *Clamp) AdvanceN(n int64) {
	c.idx = int((int64(c.idx) + n) % int64(len(c.ring)))
}

// WindowAvg returns the comparator's current sliding-window average.
func (c *Clamp) WindowAvg() float64 {
	if c.fill == 0 {
		return 0
	}
	return c.sum / float64(c.fill)
}

// Engaged reports whether the clamp is currently overriding the rail.
func (c *Clamp) Engaged() bool { return c.tripped }

// Guarding reports whether the post-release ceiling is still active.
func (c *Clamp) Guarding() bool { return c.guard }

// Ceiling returns the current guard ceiling (0 when not guarding).
func (c *Clamp) Ceiling() float64 {
	if !c.guard {
		return 0
	}
	return c.ceil
}

// Trips returns how many times the clamp has engaged.
func (c *Clamp) Trips() int64 { return c.trips }

// EngagedSteps returns how many engine steps the clamp has overridden.
func (c *Clamp) EngagedSteps() int64 { return c.steps }

// Reset rewinds the clamp for another run.
func (c *Clamp) Reset() {
	c.tripped = false
	c.holdUntil = 0
	c.restoreV = 0
	c.trips = 0
	c.steps = 0
	c.guard = false
	c.ceil = 0
	for i := range c.ring {
		c.ring[i] = 0
	}
	c.idx, c.fill, c.sum = 0, 0, 0
}
