package core

import (
	"fmt"

	"hcapp/internal/config"
	"hcapp/internal/sim"
	"hcapp/internal/vr"
)

// Domain is the level-2 controller: it normalizes the global voltage to
// one chiplet's usable range through that chiplet's voltage regulator and
// applies the software priority register (§3.2).
//
// "The domain controller uses the priority value as a scaling factor for
// the domain voltage calculation. When a domain is de-prioritized by 10%,
// the domain voltage controller multiplies the global voltage by 0.9x
// before doing any domain-specific scaling."
type Domain struct {
	name       string
	cfg        config.DomainConfig
	reg        *vr.Regulator
	priority   float64
	out        float64
	lastTarget float64
	commanded  bool

	// Watchdog state (EnableWatchdog): the domain controller "pets" the
	// watchdog every healthy Step; StepSilent lets it starve.
	wd        WatchdogConfig
	silentFor sim.Time
	tripped   bool
	trips     int64
}

// WatchdogConfig arms a per-domain hardware watchdog: if the level-2
// controller goes silent (stops retargeting its regulator) for longer
// than Timeout, the watchdog drives the domain regulator to FailSafeV
// so a hung controller cannot strand its chiplet at an arbitrary — and
// possibly unsafe — operating point. After the controller resumes, the
// domain recovers to its commanded target within the regulator's
// transition time plus |target − FailSafeV| / SlewRate (the bound
// documented in docs/FAULTS.md and enforced by TestWatchdogRecoveryBound).
type WatchdogConfig struct {
	// Timeout is the maximum controller silence before the watchdog
	// trips. Zero leaves the watchdog disarmed.
	Timeout sim.Time
	// FailSafeV is the voltage driven on a trip; zero defaults to the
	// domain's VMin (the safe-side floor).
	FailSafeV float64
}

// NewDomain constructs a domain controller for one chiplet.
func NewDomain(name string, cfg config.DomainConfig) (*Domain, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("core: domain %q scale %g not positive", name, cfg.Scale)
	}
	if cfg.VMin > cfg.VMax {
		return nil, fmt.Errorf("core: domain %q voltage range [%g,%g] empty", name, cfg.VMin, cfg.VMax)
	}
	reg, err := vr.NewRegulator(cfg.VR)
	if err != nil {
		return nil, fmt.Errorf("core: domain %q regulator: %w", name, err)
	}
	return &Domain{name: name, cfg: cfg, reg: reg, priority: 1.0, out: cfg.VR.VInit}, nil
}

// MustDomain is NewDomain that panics on invalid configuration.
func MustDomain(name string, cfg config.DomainConfig) *Domain {
	d, err := NewDomain(name, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// Priority returns the current software priority value.
func (d *Domain) Priority() float64 { return d.priority }

// SetPriority writes the software priority register. Values are clamped
// to (0, 1.25]; 1.0 is neutral, below 1.0 de-prioritizes the domain.
// "The operating system can change the priority value dynamically by
// modifying the register value" (§3.2).
func (d *Domain) SetPriority(p float64) {
	if p <= 0 {
		p = 0.01
	}
	if p > 1.25 {
		p = 1.25
	}
	d.priority = p
}

// EnableWatchdog arms the domain watchdog.
func (d *Domain) EnableWatchdog(cfg WatchdogConfig) {
	if cfg.FailSafeV == 0 {
		cfg.FailSafeV = d.cfg.VMin
	}
	d.wd = cfg
}

// WatchdogTrips returns how many times the watchdog has fired.
func (d *Domain) WatchdogTrips() int64 { return d.trips }

// WatchdogTripped reports whether the watchdog currently holds the
// domain at its fail-safe voltage.
func (d *Domain) WatchdogTripped() bool { return d.tripped }

// StepSilent advances the domain with its controller hung (the
// DomainSilence fault): no new target is computed, the physical
// regulator keeps settling toward whatever was last commanded, and the
// watchdog — armed via EnableWatchdog — starves. Once silence exceeds
// the watchdog timeout, the regulator is driven to the fail-safe
// voltage.
func (d *Domain) StepSilent(now sim.Time, dt sim.Time) float64 {
	d.silentFor += dt
	if d.wd.Timeout > 0 && d.silentFor >= d.wd.Timeout && !d.tripped {
		d.tripped = true
		d.trips++
		d.reg.Command(now, d.wd.FailSafeV)
		// Record the fail-safe as the standing target so a resuming
		// controller re-commands even if its computed target matches the
		// pre-silence one.
		d.lastTarget = d.wd.FailSafeV
	}
	d.out = d.reg.Step(now, dt)
	return d.out
}

// Step computes the new domain voltage from the (PSN-delayed) global
// voltage and advances the domain regulator by one engine step of dt,
// returning the voltage delivered to the chiplet.
func (d *Domain) Step(now sim.Time, dt sim.Time, vglobal float64) float64 {
	d.silentFor = 0
	d.tripped = false
	var target float64
	if d.cfg.Fixed {
		// Constant-voltage domain (memory): ignore the global rail.
		target = d.cfg.VMax
	} else {
		target = vglobal * d.priority * d.cfg.Scale
		if target < d.cfg.VMin {
			target = d.cfg.VMin
		}
		if target > d.cfg.VMax {
			target = d.cfg.VMax
		}
	}
	// Only issue a command when the target moves: re-commanding every
	// step would restart the regulator's transition timer forever.
	if !d.commanded || target != d.lastTarget {
		d.reg.Command(now, target)
		d.lastTarget = target
		d.commanded = true
	}
	d.out = d.reg.Step(now, dt)
	return d.out
}

// SteadyAt reports whether Step(now, dt, vglobal) would leave the
// domain bitwise unchanged and return the same voltage as the last
// step: the controller is healthy (no silence, no watchdog trip), the
// target it would compute — reproduced here operation-for-operation —
// matches the standing one, and the regulator has settled on it. While
// this holds the engine can stride without stepping the domain at all.
func (d *Domain) SteadyAt(vglobal float64) bool {
	if d.silentFor != 0 || d.tripped || !d.commanded {
		return false
	}
	var target float64
	if d.cfg.Fixed {
		target = d.cfg.VMax
	} else {
		target = vglobal * d.priority * d.cfg.Scale
		if target < d.cfg.VMin {
			target = d.cfg.VMin
		}
		if target > d.cfg.VMax {
			target = d.cfg.VMax
		}
	}
	return target == d.lastTarget && d.reg.Settled() && d.out == d.reg.Output()
}

// Output returns the domain voltage currently delivered.
func (d *Domain) Output() float64 { return d.out }

// Config returns the domain configuration.
func (d *Domain) Config() config.DomainConfig { return d.cfg }

// Reset rewinds the domain regulator, priority, and watchdog state (the
// watchdog stays armed).
func (d *Domain) Reset() {
	d.reg.Reset()
	d.priority = 1.0
	d.out = d.cfg.VR.VInit
	d.lastTarget = 0
	d.commanded = false
	d.silentFor = 0
	d.tripped = false
	d.trips = 0
}
