// Package psn models the package power supply network: the propagation
// delay between the global regulator and each chiplet's domain regulator,
// IR droop under load, and the Table 1 round-trip delay budget that
// justifies HCAPP's 1 µs control period.
//
// The paper based its PSN behaviour on Cadence Spectre simulations of the
// Gupta et al. distributed power-delivery model, scaled ×5 for 2.5D
// interposer distances (3–15 ns → 15–75 ns). Here the network is a pure
// delay line plus a resistive droop term — the properties the control loop
// actually observes.
package psn

import (
	"fmt"

	"hcapp/internal/sim"
)

// DelayLine propagates a scalar signal (a voltage) with a fixed transport
// delay, sampled on the engine clock. The zero value is unusable;
// construct with NewDelayLine.
type DelayLine struct {
	ring []float64
	head int
	init float64
}

// NewDelayLine returns a delay line with the given transport delay,
// sampled at engine timestep dt, initially outputting init everywhere.
// Delays shorter than one timestep round down to a single-step delay of
// zero extra samples (the engine's step ordering already imposes one step
// of latency).
func NewDelayLine(delay, dt sim.Time, init float64) (*DelayLine, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("psn: non-positive timestep %d", dt)
	}
	if delay < 0 {
		return nil, fmt.Errorf("psn: negative delay %d", delay)
	}
	depth := int(delay / dt)
	d := &DelayLine{ring: make([]float64, depth+1), init: init}
	for i := range d.ring {
		d.ring[i] = init
	}
	return d, nil
}

// MustDelayLine is NewDelayLine that panics on error.
func MustDelayLine(delay, dt sim.Time, init float64) *DelayLine {
	d, err := NewDelayLine(delay, dt, init)
	if err != nil {
		panic(err)
	}
	return d
}

// Step pushes the current input sample and returns the delayed output.
func (d *DelayLine) Step(in float64) float64 {
	d.ring[d.head] = in
	d.head = (d.head + 1) % len(d.ring)
	return d.ring[d.head]
}

// SteadyAt reports whether the line is flat at v: every buffered sample
// equals v, so Step(v) is a pure head rotation returning v. The
// engine strides over flat lines with AdvanceN.
func (d *DelayLine) SteadyAt(v float64) bool {
	for _, s := range d.ring {
		if s != v {
			return false
		}
	}
	return true
}

// AdvanceN replays n steps of a line that SteadyAt verified flat: each
// step stores the value already present and rotates the head.
func (d *DelayLine) AdvanceN(n int64) {
	d.head = int((int64(d.head) + n) % int64(len(d.ring)))
}

// Output returns the sample that will emerge on the next Step, without
// advancing.
func (d *DelayLine) Output() float64 { return d.ring[d.head] }

// Depth returns the delay in samples.
func (d *DelayLine) Depth() int { return len(d.ring) - 1 }

// Reset refills the line with its initial value.
func (d *DelayLine) Reset() {
	for i := range d.ring {
		d.ring[i] = d.init
	}
	d.head = 0
}

// Droop models resistive (IR) voltage droop across the delivery network:
// Vout = Vin − I·R, with the current inferred from the load power at the
// droop point (I = P/V). R is the effective lumped resistance in ohms.
type Droop struct {
	R float64
}

// Apply returns the drooped voltage at a point drawing loadPower watts
// when supplied vin volts. Degenerate inputs (vin ≤ 0) return vin
// unchanged; droop is clamped so the output never goes negative.
func (d Droop) Apply(vin, loadPower float64) float64 {
	if d.R <= 0 || vin <= 0 || loadPower <= 0 {
		return vin
	}
	i := loadPower / vin
	out := vin - i*d.R
	if out < 0 {
		return 0
	}
	return out
}
