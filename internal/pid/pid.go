// Package pid implements the closed-loop controller at the heart of
// HCAPP's global voltage controller (paper Eq. 2): a PID controller with a
// feed-forward (offset) term, output clamping, anti-windup, and a filtered
// derivative. It also provides step-response tuning helpers used by
// hcappsim tune, mirroring the manual procedure in paper §3.1 (raise KP
// until instability, then raise KI until the steady state is reached).
package pid

import (
	"fmt"
	"math"
)

// Config holds the controller gains and limits.
//
// The paper's Eq. 2 is
//
//	VNEXT = VOffset + KP·VErr + KI·∫VErr dt + KD·dVErr/dt
//
// with VOffset the open-loop feed-forward value ("set to approximately the
// average voltage expected throughout execution").
type Config struct {
	KP, KI, KD  float64
	FeedForward float64 // VOffset: open-loop operating point
	OutMin      float64 // lower output clamp
	OutMax      float64 // upper output clamp
	// DerivTau is the time constant (seconds) of the first-order filter
	// applied to the derivative term; 0 disables filtering. Filtering is
	// standard practice to keep measurement noise from dominating KD.
	DerivTau float64
	// OverGain multiplies the proportional, integral and derivative
	// contributions when the error is negative (process variable above
	// the setpoint). Power capping throttles much faster than it
	// recovers: exceeding the limit is a hardware failure while
	// undershooting it only costs performance, so the downward gain
	// carries the safety margin. The asymmetry also biases the achieved
	// average slightly below the setpoint, which is the guardband the
	// paper describes between the power target and the power limit.
	// Values ≤ 0 or 1 mean symmetric gains.
	OverGain float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.OutMin >= c.OutMax {
		return fmt.Errorf("pid: output clamp [%g,%g] is empty", c.OutMin, c.OutMax)
	}
	if c.KP < 0 || c.KI < 0 || c.KD < 0 {
		return fmt.Errorf("pid: negative gains (kp=%g ki=%g kd=%g)", c.KP, c.KI, c.KD)
	}
	if c.DerivTau < 0 {
		return fmt.Errorf("pid: negative derivative filter tau %g", c.DerivTau)
	}
	if c.OverGain < 0 {
		return fmt.Errorf("pid: negative over-gain %g", c.OverGain)
	}
	return nil
}

// overGain returns the effective proportional/derivative multiplier for
// a given error sign.
func (c Config) overGain(err float64) float64 {
	if err < 0 && c.OverGain > 1 {
		return c.OverGain
	}
	return 1
}

// Controller is a discrete PID controller. The zero value is not usable;
// construct with New.
type Controller struct {
	cfg       Config
	integ     float64 // ∫err dt
	prevErr   float64
	derivFilt float64 // filtered derivative state
	primed    bool    // first Update has happened (derivative defined)
}

// New returns a controller with the given configuration.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// MustNew is New that panics on invalid configuration.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Reset clears the controller's internal state (integral, derivative
// history) without changing its gains.
func (c *Controller) Reset() {
	c.integ = 0
	c.prevErr = 0
	c.derivFilt = 0
	c.primed = false
}

// Update advances the controller by dt seconds given the current error and
// returns the clamped output.
//
// Anti-windup uses conditional integration: the integral only accumulates
// when doing so would not push a saturated output further into the clamp.
// Without this, a long stretch at the voltage regulator's ceiling (e.g. a
// mostly-idle package whose power can never reach the target) would wind
// the integral up and cause a deep voltage undershoot when load returns.
func (c *Controller) Update(err, dt float64) float64 {
	if dt <= 0 || math.IsNaN(err) || math.IsInf(err, 0) {
		// Hold the previous operating point on degenerate input.
		return clamp(c.output(c.prevErr), c.cfg.OutMin, c.cfg.OutMax)
	}

	// Derivative (filtered). Undefined on the first sample. Non-finite
	// rates (an astronomically fast error swing against a tiny dt) are
	// discarded rather than poisoning the filter state: a ±Inf deriv
	// term could meet a ∓Inf integral term and emit NaN.
	var deriv float64
	if c.primed {
		raw := (err - c.prevErr) / dt
		if math.IsInf(raw, 0) || math.IsNaN(raw) {
			raw = 0
		}
		if c.cfg.DerivTau > 0 {
			alpha := dt / (c.cfg.DerivTau + dt)
			c.derivFilt += alpha * (raw - c.derivFilt)
			deriv = c.derivFilt
		} else {
			deriv = raw
		}
	}

	// Tentative integral step with conditional anti-windup. The
	// over-gain asymmetry applies to the integral accumulation itself:
	// the sustained correction must build as fast as a burst does.
	g := c.cfg.overGain(err)
	newInteg := c.integ + g*err*dt
	out := c.cfg.FeedForward + g*c.cfg.KP*err + c.cfg.KI*newInteg + g*c.cfg.KD*deriv
	if (out > c.cfg.OutMax && err > 0) || (out < c.cfg.OutMin && err < 0) {
		// Saturated and integrating further into the clamp: freeze.
		out = c.cfg.FeedForward + g*c.cfg.KP*err + c.cfg.KI*c.integ + g*c.cfg.KD*deriv
	} else {
		c.integ = newInteg
	}

	c.prevErr = err
	c.primed = true
	return clamp(out, c.cfg.OutMin, c.cfg.OutMax)
}

// output computes the unclamped output for a given error using current
// state, without mutating anything.
func (c *Controller) output(err float64) float64 {
	return c.cfg.FeedForward + c.cfg.KP*err + c.cfg.KI*c.integ
}

// Integral exposes the accumulated integral term, useful in tests and for
// diagnosing windup.
func (c *Controller) Integral() float64 { return c.integ }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
