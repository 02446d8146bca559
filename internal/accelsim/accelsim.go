// Package accelsim models the SHA accelerator chiplet exactly the way the
// paper did (§4.4): a lookup table mapping supply voltage to throughput
// and power, digitized from the Suresh et al. unified SHA256/SM3 hashing
// engine (ESSCIRC 2018) and scaled from a single 14 nm core to a
// chiplet-sized array.
//
// "The total work that the accelerator has to complete is modeled as a
// fixed number. ... Each control cycle, we subtract the work done during
// that cycle from the total work. When the total work is less than or
// equal to zero, the accelerator can enter an idle state."
package accelsim

import (
	"fmt"

	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/power"
	"hcapp/internal/sim"
)

// Accel is the SHA accelerator component. It implements sim.Component.
type Accel struct {
	name      string
	powerLUT  *power.LUT
	tputLUT   *power.LUT // GB/s as a function of voltage
	vMin      float64    // undervoltage protection threshold
	vMax      float64    // overvoltage protection threshold
	idlePower float64

	local core.Local

	totalWork float64 // bytes to hash
	doneWork  float64
	doneAt    sim.Time
	lastPower float64
	lastAct   float64 // 1 while hashing, 0 power-gated (energy meter)
}

// Options selects the accelerator's work pool and local controller.
type Options struct {
	// TotalWorkGB is the number of gigabytes to hash; zero runs forever.
	TotalWorkGB float64
	// Local overrides the default pass-through local controller
	// (e.g. core.Adversarial for the §3.3.3 ablation). Nil selects
	// pass-through protection over the LUT's voltage domain.
	Local core.Local
}

// New builds the accelerator from its configuration.
func New(cfg config.AccelConfig, opts Options) (*Accel, error) {
	plut, err := power.NewLUT(cfg.VPoints, cfg.PowerW)
	if err != nil {
		return nil, fmt.Errorf("accelsim: power LUT: %w", err)
	}
	tlut, err := power.NewLUT(cfg.VPoints, cfg.ThroughputGBs)
	if err != nil {
		return nil, fmt.Errorf("accelsim: throughput LUT: %w", err)
	}
	if cfg.IdlePower < 0 {
		return nil, fmt.Errorf("accelsim: negative idle power %g", cfg.IdlePower)
	}
	if opts.TotalWorkGB < 0 {
		return nil, fmt.Errorf("accelsim: negative work %g", opts.TotalWorkGB)
	}
	lo, hi := plut.Domain()
	local := opts.Local
	if local == nil {
		pt, err := core.NewPassThrough(lo, hi)
		if err != nil {
			return nil, err
		}
		local = pt
	}
	return &Accel{
		name:      "sha",
		powerLUT:  plut,
		tputLUT:   tlut,
		vMin:      lo,
		vMax:      hi,
		idlePower: cfg.IdlePower,
		local:     local,
		totalWork: opts.TotalWorkGB,
		doneAt:    -1,
	}, nil
}

// Name implements sim.Component.
func (a *Accel) Name() string { return a.name }

// Done implements sim.Component.
func (a *Accel) Done() bool { return a.totalWork > 0 && a.doneWork >= a.totalWork }

// Progress implements sim.Component.
func (a *Accel) Progress() float64 {
	if a.totalWork <= 0 {
		return 0
	}
	p := a.doneWork / a.totalWork
	if p > 1 {
		p = 1
	}
	return p
}

// CompletionTime returns when the accelerator finished, or -1.
func (a *Accel) CompletionTime() sim.Time { return a.doneAt }

// DoneWork returns the gigabytes hashed so far (continuous-load
// throughput; Progress is meaningless with a zero work pool).
func (a *Accel) DoneWork() float64 { return a.doneWork }

// LastPower returns the power drawn on the most recent step.
func (a *Accel) LastPower() float64 { return a.lastPower }

// Units implements energy.UnitMeter: the array is metered as one unit.
func (a *Accel) Units() int { return 1 }

// ReadUnitSamples implements energy.UnitMeter. The accelerator's whole
// draw is directly measurable, so attribution against it is exact.
func (a *Accel) ReadUnitSamples(act, watts []float64) {
	act[0] = a.lastAct
	watts[0] = a.lastPower
}

// ThroughputAt exposes the LUT (GB/s at voltage v) for sizing work pools.
func (a *Accel) ThroughputAt(v float64) float64 {
	v = a.effectiveV(v)
	if v < a.vMin {
		return 0
	}
	return a.tputLUT.At(v)
}

func (a *Accel) effectiveV(vdd float64) float64 {
	// The pass-through (or adversarial) local controller supplies the
	// ratio; accelerators expose no IPC/occupancy metrics.
	ratio := a.local.Epoch(0, core.Metrics{}, vdd)
	return vdd * ratio
}

// Step implements sim.Component.
func (a *Accel) Step(now sim.Time, dt sim.Time, vdd float64) sim.StepResult {
	v := a.effectiveV(vdd)
	if a.Done() || v < a.vMin {
		// Idle, or under the undervoltage-protection threshold: the
		// array is power-gated.
		a.lastPower = a.idlePower
		a.lastAct = 0
		return sim.StepResult{Power: a.idlePower}
	}
	p := a.powerLUT.At(v)
	work := a.tputLUT.At(v) * sim.Seconds(dt)
	if a.totalWork > 0 {
		a.doneWork += work
		if a.Done() && a.doneAt < 0 {
			a.doneAt = now
		}
	}
	a.lastPower = p
	a.lastAct = 1
	return sim.StepResult{Power: p, Work: work}
}

// SteadyFor implements sim.BulkStepper: the number of future steps at
// constant vdd guaranteed to reproduce the last Step bitwise. Only the
// stateless local-controller kinds qualify (pass-through, adversarial,
// none — Epoch is a pure function of vdd for all three); a stateful
// local could retune on any step. The predicted next-step power must
// match lastPower exactly, which catches the idle transition on the
// step the work pool ran out, and the activity sample (ReadUnitSamples)
// must be unchanged.
func (a *Accel) SteadyFor(now sim.Time, dt sim.Time, vdd float64) int64 {
	switch a.local.(type) {
	case *core.PassThrough, core.Adversarial, *core.Adversarial, core.None, *core.None:
	default:
		return 0
	}
	v := a.effectiveV(vdd)
	if a.Done() || v < a.vMin {
		if a.idlePower != a.lastPower || a.lastAct != 0 {
			return 0
		}
		return 1 << 62
	}
	p := a.powerLUT.At(v)
	if p != a.lastPower || a.lastAct != 1 {
		return 0
	}
	if a.totalWork <= 0 {
		return 1 << 62
	}
	work := a.tputLUT.At(v) * sim.Seconds(dt)
	if work <= 0 {
		return 1 << 62
	}
	n := int64((a.totalWork-a.doneWork)/work) - steadyMargin
	if n < 0 {
		return 0
	}
	return n
}

// steadyMargin holds the completion bound back from the float-derived
// estimate; see the matching constant in internal/chiplet.
const steadyMargin = 8

// StepN implements sim.BulkStepper: replays n steady steps verified by
// SteadyFor, repeating the identical per-step work accumulation.
func (a *Accel) StepN(now sim.Time, dt sim.Time, vdd float64, n int64) {
	v := a.effectiveV(vdd)
	if a.Done() || v < a.vMin {
		return
	}
	if a.totalWork > 0 {
		work := a.tputLUT.At(v) * sim.Seconds(dt)
		for i := int64(0); i < n; i++ {
			a.doneWork += work
		}
	}
}

// SetTotalWork assigns the work pool in GB.
func (a *Accel) SetTotalWork(gb float64) { a.totalWork = gb }

// TotalWork returns the assigned work pool in GB.
func (a *Accel) TotalWork() float64 { return a.totalWork }

// Reset implements sim.Resetter.
func (a *Accel) Reset() {
	a.doneWork = 0
	a.doneAt = -1
	a.lastPower = 0
	a.lastAct = 0
	a.local.Reset()
}
