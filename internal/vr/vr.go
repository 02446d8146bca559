// Package vr models the voltage regulators and power sensing circuitry of
// the 2.5D package.
//
// The paper builds its control-cycle-time budget (Table 1) from the Raven
// switched-capacitor regulator's transition times (36–226 ns, doubled for
// the global+domain pair), sensing circuitry (50–60 ns) and controller
// logic (10–30 ns). This package models a regulator as a commanded target
// voltage reached through a transition delay followed by slew-limited
// settling, and a sensor as a delayed, first-order-filtered power
// measurement — enough fidelity that a controller running faster than the
// round trip will visibly misbehave, which is the paper's core argument
// for the 1 µs control period.
package vr

import (
	"fmt"

	"hcapp/internal/sim"
)

// RegulatorConfig describes a voltage regulator.
type RegulatorConfig struct {
	// VMin and VMax bound the output range; commands are clamped.
	VMin, VMax float64
	// VInit is the output voltage at reset.
	VInit float64
	// TransitionTime is the latency before a newly commanded target
	// begins to take effect at the output (Raven-style DC-DC mode
	// switch), in simulated time.
	TransitionTime sim.Time
	// SlewRate is the maximum output change rate in volts/second once a
	// transition is underway. Zero means instantaneous settling after
	// the transition time.
	SlewRate float64
	// Efficiency is the DC-DC conversion efficiency in (0,1]; the
	// regulator dissipates load·(1/Efficiency − 1) as loss, which the
	// engine charges against the package power budget. Zero means 1.0
	// (lossless), the paper's implicit assumption.
	Efficiency float64
}

// Validate reports whether the configuration is usable.
func (c RegulatorConfig) Validate() error {
	switch {
	case c.VMin >= c.VMax:
		return fmt.Errorf("vr: empty voltage range [%g,%g]", c.VMin, c.VMax)
	case c.VInit < c.VMin || c.VInit > c.VMax:
		return fmt.Errorf("vr: initial voltage %g outside [%g,%g]", c.VInit, c.VMin, c.VMax)
	case c.TransitionTime < 0:
		return fmt.Errorf("vr: negative transition time %d", c.TransitionTime)
	case c.SlewRate < 0:
		return fmt.Errorf("vr: negative slew rate %g", c.SlewRate)
	case c.Efficiency < 0 || c.Efficiency > 1:
		return fmt.Errorf("vr: efficiency %g outside (0,1]", c.Efficiency)
	}
	return nil
}

// Regulator is a slew-limited voltage regulator with a command transition
// delay. It is stepped on the engine clock.
type Regulator struct {
	cfg       RegulatorConfig
	out       float64  // current output voltage
	target    float64  // target once pending command lands
	pendingV  float64  // commanded voltage in flight
	pendingT  sim.Time // when the in-flight command takes effect (-1: none)
	slewScale float64  // degradation factor on SlewRate (1 = nominal)
}

// NewRegulator returns a regulator at its initial voltage.
func NewRegulator(cfg RegulatorConfig) (*Regulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Regulator{cfg: cfg, out: cfg.VInit, target: cfg.VInit, pendingT: -1, slewScale: 1}, nil
}

// MustRegulator is NewRegulator that panics on invalid configuration.
func MustRegulator(cfg RegulatorConfig) *Regulator {
	r, err := NewRegulator(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Command requests a new output voltage at time now. The command is
// clamped to the regulator's range and takes effect after the transition
// time. A new command supersedes any in-flight one (the controller always
// acts on the freshest information).
func (r *Regulator) Command(now sim.Time, v float64) {
	if v < r.cfg.VMin {
		v = r.cfg.VMin
	}
	if v > r.cfg.VMax {
		v = r.cfg.VMax
	}
	r.pendingV = v
	r.pendingT = now + r.cfg.TransitionTime
}

// Step advances the regulator to time now (one engine step of dt) and
// returns the output voltage.
func (r *Regulator) Step(now sim.Time, dt sim.Time) float64 {
	if r.pendingT >= 0 && now >= r.pendingT {
		r.target = r.pendingV
		r.pendingT = -1
	}
	if r.out != r.target {
		if r.cfg.SlewRate <= 0 {
			r.out = r.target
		} else {
			maxStep := r.cfg.SlewRate * r.slewScale * sim.Seconds(dt)
			switch {
			case r.out < r.target-maxStep:
				r.out += maxStep
			case r.out > r.target+maxStep:
				r.out -= maxStep
			default:
				r.out = r.target
			}
		}
	}
	return r.out
}

// SetSlewScale degrades (or restores) the regulator's effective slew
// rate: the configured SlewRate is multiplied by s on every step — the
// aging/thermal-derating fault mode a 2.5D integrator must survive.
// Values are clamped to (0, 1]; 1 restores nominal settling. A
// regulator with SlewRate 0 (instantaneous) is unaffected.
func (r *Regulator) SetSlewScale(s float64) {
	if s <= 0 {
		s = 0.01
	}
	if s > 1 {
		s = 1
	}
	r.slewScale = s
}

// SlewScale returns the current slew degradation factor.
func (r *Regulator) SlewScale() float64 { return r.slewScale }

// Output returns the current output voltage without advancing time.
func (r *Regulator) Output() float64 { return r.out }

// Target returns the voltage the output is settling toward.
func (r *Regulator) Target() float64 { return r.target }

// Commanded returns the most recently commanded voltage: the in-flight
// command if one has not yet cleared the transition time, else the
// landed target. Override logic (the package safety clamp) compares
// against this rather than Target() — when the transition time exceeds
// the engine step, re-commanding on every step where the *landed*
// target still differs would push the pending command out forever and
// freeze the output.
func (r *Regulator) Commanded() float64 {
	if r.pendingT >= 0 {
		return r.pendingV
	}
	return r.target
}

// Settled reports whether Step has become a pure no-op: no command is
// in flight and the output sits exactly on the target. The engine
// strides over settled regulators; any Command (even to the same
// voltage) re-arms the transition timer and unsettles the regulator
// until it lands again.
func (r *Regulator) Settled() bool {
	return r.pendingT < 0 && r.out == r.target
}

// Config returns the regulator's configuration.
func (r *Regulator) Config() RegulatorConfig { return r.cfg }

// Loss returns the conversion loss for a given load power, in watts.
func (r *Regulator) Loss(loadPower float64) float64 {
	eff := r.cfg.Efficiency
	if eff == 0 || eff == 1 {
		return 0
	}
	if loadPower <= 0 {
		return 0
	}
	return loadPower * (1/eff - 1)
}

// Reset returns the regulator to its initial state.
func (r *Regulator) Reset() {
	r.out = r.cfg.VInit
	r.target = r.cfg.VInit
	r.pendingT = -1
	r.slewScale = 1
}
