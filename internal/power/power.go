// Package power implements the analytic power and frequency models shared
// by all chiplet simulators: CMOS dynamic power, voltage-dependent leakage,
// the alpha-power-law frequency/voltage relation used to model adaptive
// clocking, and lookup-table interpolation for measured silicon (the SHA
// accelerator's voltage → throughput/power curves).
//
// These stand in for McPAT (CPU) and GPUWattch (GPU) in the paper's stack:
// HCAPP consumes only the power numbers these models emit, so an analytic
// model with calibrated coefficients exercises the same controller paths.
package power

import (
	"fmt"
	"math"
)

// DVFS captures a component's frequency/voltage operating envelope.
//
// Frequency follows the alpha-power law f(V) ∝ (V−Vt)^α / V, the standard
// first-order model for CMOS gate delay, clamped to [FMin, FMax]. The model
// is normalized so that f(VNom) = FMax: running at nominal voltage yields
// the component's rated maximum frequency (Table 2 in the paper), and
// adaptive clocking (paper §3.5) tracks any voltage the controllers set.
type DVFS struct {
	FMax  float64 // maximum (rated) frequency, Hz, reached at VNom
	FMin  float64 // minimum operational frequency, Hz
	VNom  float64 // nominal supply voltage, V
	VMin  float64 // minimum operational voltage, V
	VT    float64 // threshold voltage, V
	Alpha float64 // velocity-saturation exponent, typically 1.2–1.5
}

// Validate reports whether the envelope is physically meaningful.
func (d DVFS) Validate() error {
	switch {
	case d.FMax <= 0 || d.FMin <= 0 || d.FMin > d.FMax:
		return fmt.Errorf("power: invalid frequency range [%g,%g]", d.FMin, d.FMax)
	case d.VNom <= d.VT:
		return fmt.Errorf("power: nominal voltage %g not above threshold %g", d.VNom, d.VT)
	case d.VMin <= d.VT:
		return fmt.Errorf("power: minimum voltage %g not above threshold %g", d.VMin, d.VT)
	case d.VMin > d.VNom:
		return fmt.Errorf("power: minimum voltage %g above nominal %g", d.VMin, d.VNom)
	case d.Alpha <= 0:
		return fmt.Errorf("power: non-positive alpha %g", d.Alpha)
	}
	return nil
}

// Norm returns the alpha-power law's normalisation (VNom−VT)^α / VNom,
// the factor that makes f(VNom) = FMax. It depends on the envelope
// alone, so a caller evaluating many voltages computes it once and
// passes it to FreqNorm.
func (d DVFS) Norm() float64 {
	return math.Pow(d.VNom-d.VT, d.Alpha) / d.VNom
}

// Freq returns the operating frequency at supply voltage v under adaptive
// clocking. Below VMin (or at/below threshold) the component cannot clock
// and the frequency is 0; otherwise the alpha-power law applies, clamped
// to [FMin, FMax].
func (d DVFS) Freq(v float64) float64 {
	return d.FreqNorm(v, d.Norm())
}

// FreqNorm is Freq with the envelope's Norm supplied by the caller: the
// same operations in the same order, so FreqNorm(v, d.Norm()) equals
// Freq(v) bit for bit.
func (d DVFS) FreqNorm(v, norm float64) float64 {
	if v < d.VMin || v <= d.VT {
		return 0
	}
	f := d.FMax * (math.Pow(v-d.VT, d.Alpha) / v) / norm
	if f > d.FMax {
		f = d.FMax
	}
	if f < d.FMin {
		f = d.FMin
	}
	return f
}

// VoltageFor returns the lowest supply voltage at which the component
// reaches frequency f, found by bisection over [VMin, VNom]. Frequencies
// at or below f(VMin) return VMin; frequencies at or above FMax return
// VNom.
func (d DVFS) VoltageFor(f float64) float64 {
	if f >= d.FMax {
		return d.VNom
	}
	norm := d.Norm()
	if f <= d.FreqNorm(d.VMin, norm) {
		return d.VMin
	}
	lo, hi := d.VMin, d.VNom
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if d.FreqNorm(mid, norm) < f {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Model is the per-component power model: switching (dynamic) power plus
// voltage-dependent leakage.
//
// Dynamic power is a·C·V²·f where a is the activity factor supplied per
// step by the workload, C is the effective switched capacitance (farads,
// aggregated over the whole component), and f the operating frequency.
// Leakage is modeled as LeakNom·(V/VNom)^LeakExp: subthreshold leakage
// current grows superlinearly with supply voltage, and an exponent of 2–3
// matches published McPAT/GPUWattch breakdowns well enough for control
// studies.
type Model struct {
	DVFS    DVFS
	CEff    float64 // effective switched capacitance at full activity, F
	LeakNom float64 // leakage power at nominal voltage, W
	LeakExp float64 // leakage voltage exponent
	IdleAct float64 // floor activity factor when idle (clock tree etc.)
}

// Validate reports whether the model's parameters are meaningful.
func (m *Model) Validate() error {
	if err := m.DVFS.Validate(); err != nil {
		return err
	}
	switch {
	case m.CEff <= 0:
		return fmt.Errorf("power: non-positive effective capacitance %g", m.CEff)
	case m.LeakNom < 0:
		return fmt.Errorf("power: negative leakage %g", m.LeakNom)
	case m.LeakExp < 0:
		return fmt.Errorf("power: negative leakage exponent %g", m.LeakExp)
	case m.IdleAct < 0 || m.IdleAct > 1:
		return fmt.Errorf("power: idle activity %g outside [0,1]", m.IdleAct)
	}
	return nil
}

// Dynamic returns switching power at voltage v, frequency f and activity
// factor activity (clamped to [IdleAct, 1]).
func (m *Model) Dynamic(v, f, activity float64) float64 {
	if activity < m.IdleAct {
		activity = m.IdleAct
	}
	if activity > 1 {
		activity = 1
	}
	return activity * m.CEff * v * v * f
}

// Leakage returns static power at voltage v.
func (m *Model) Leakage(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return m.LeakNom * math.Pow(v/m.DVFS.VNom, m.LeakExp)
}

// Total returns total power at voltage v and activity factor activity,
// with frequency derived from the DVFS envelope.
func (m *Model) Total(v, activity float64) float64 {
	return m.Dynamic(v, m.DVFS.Freq(v), activity) + m.Leakage(v)
}
