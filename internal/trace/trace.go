// Package trace records per-step package power during a run and computes
// the power-limit metrics of the paper's evaluation: the maximum power
// over a sliding time window (the form every power limit takes, §1), the
// Provisioned Power Efficiency (Eq. 4), and down-sampled series for the
// Fig. 1 / Fig. 2 style plots.
package trace

import (
	"fmt"
	"math"
	"slices"

	"hcapp/internal/sim"
)

// Recorder accumulates one power sample per engine step.
type Recorder struct {
	dt      sim.Time
	total   []float64
	prefix  []float64 // lazy prefix sums over total
	prefixN int
}

// NewRecorder returns a recorder for steps of dt.
func NewRecorder(dt sim.Time) (*Recorder, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("trace: non-positive timestep %d", dt)
	}
	return &Recorder{dt: dt}, nil
}

// MustRecorder is NewRecorder that panics on invalid input.
func MustRecorder(dt sim.Time) *Recorder {
	r, err := NewRecorder(dt)
	if err != nil {
		panic(err)
	}
	return r
}

// Record appends one step's total package power.
func (r *Recorder) Record(total float64) {
	r.total = append(r.total, total)
}

// RecordN appends n identical total-power samples — the recorder half
// of a steady-state stride: one capacity check, then a fill.
func (r *Recorder) RecordN(total float64, n int) {
	if n <= 0 {
		return
	}
	start := len(r.total)
	r.total = slices.Grow(r.total, n)[:start+n]
	tail := r.total[start:]
	for i := range tail {
		tail[i] = total
	}
}

// Grow reserves capacity for n more steps, so a sized run appends
// without reallocating — the preallocation the engine's zero-alloc
// steady-state guard relies on.
func (r *Recorder) Grow(n int) {
	if n <= 0 {
		return
	}
	if cap(r.total)-len(r.total) < n {
		grown := make([]float64, len(r.total), len(r.total)+n)
		copy(grown, r.total)
		r.total = grown
	}
}

// Steps returns the number of recorded steps.
func (r *Recorder) Steps() int { return len(r.total) }

// Totals returns the raw per-step power series. The slice is the
// recorder's own backing store — callers must treat it as read-only. It
// exists for exact-series work: bit-identical determinism checks and
// the fault-sweep recovery-time scan.
func (r *Recorder) Totals() []float64 { return r.total }

// Duration returns the recorded span.
func (r *Recorder) Duration() sim.Time { return sim.Time(len(r.total)) * r.dt }

// DT returns the recorder's timestep.
func (r *Recorder) DT() sim.Time { return r.dt }

// ensurePrefix (re)builds prefix sums to cover all samples.
func (r *Recorder) ensurePrefix() {
	if r.prefixN == len(r.total) && len(r.prefix) == len(r.total)+1 {
		return
	}
	if len(r.prefix) == 0 {
		r.prefix = make([]float64, 1, len(r.total)+1)
	}
	for i := r.prefixN; i < len(r.total); i++ {
		r.prefix = append(r.prefix, r.prefix[i]+r.total[i])
	}
	r.prefixN = len(r.total)
}

// AvgPower returns the run's average package power.
func (r *Recorder) AvgPower() float64 {
	if len(r.total) == 0 {
		return 0
	}
	r.ensurePrefix()
	return r.prefix[len(r.total)] / float64(len(r.total))
}

// PPE returns the Provisioned Power Efficiency (Eq. 4): average power
// divided by the provisioned power.
func (r *Recorder) PPE(provisionedWatts float64) float64 {
	if provisionedWatts <= 0 {
		return math.NaN()
	}
	return r.AvgPower() / provisionedWatts
}

// MaxWindowAvg returns the maximum over the run of the power averaged
// over a sliding window. Runs shorter than the window are averaged whole.
// This is the quantity a power limit constrains: "power limits dictate a
// maximum power and a time window over which that maximum power is
// evaluated".
func (r *Recorder) MaxWindowAvg(window sim.Time) float64 {
	n := len(r.total)
	if n == 0 {
		return 0
	}
	k := int(window / r.dt)
	if k < 1 {
		k = 1
	}
	r.ensurePrefix()
	if k >= n {
		return r.prefix[n] / float64(n)
	}
	maxAvg := math.Inf(-1)
	kf := float64(k)
	for i := k; i <= n; i++ {
		avg := (r.prefix[i] - r.prefix[i-k]) / kf
		if avg > maxAvg {
			maxAvg = avg
		}
	}
	return maxAvg
}

// Violates reports whether the run exceeded limitWatts over the window.
func (r *Recorder) Violates(limitWatts float64, window sim.Time) bool {
	return r.MaxWindowAvg(window) > limitWatts
}

// Point is one sample of a down-sampled series.
type Point struct {
	T sim.Time
	P float64
}

// Series returns the total-power trace averaged into buckets of
// sampleEvery — the raw data behind Fig. 1.
func (r *Recorder) Series(sampleEvery sim.Time) []Point {
	k := int(sampleEvery / r.dt)
	if k < 1 {
		k = 1
	}
	r.ensurePrefix()
	var out []Point
	for i := k; i <= len(r.total); i += k {
		avg := (r.prefix[i] - r.prefix[i-k]) / float64(k)
		out = append(out, Point{T: sim.Time(i) * r.dt, P: avg})
	}
	return out
}

// Normalize divides every sample of pts by ref in place and returns
// pts — the "normalized to average power" view of Figs. 1 and 2.
func Normalize(pts []Point, ref float64) []Point {
	for i := range pts {
		pts[i].P /= ref
	}
	return pts
}

// WindowSeries returns the trailing moving average over window, sampled
// every sampleEvery — the Fig. 2 view ("the power draw over different
// time windows").
func (r *Recorder) WindowSeries(window, sampleEvery sim.Time) []Point {
	k := int(window / r.dt)
	if k < 1 {
		k = 1
	}
	s := int(sampleEvery / r.dt)
	if s < 1 {
		s = 1
	}
	r.ensurePrefix()
	var out []Point
	for i := k; i <= len(r.total); i += s {
		avg := (r.prefix[i] - r.prefix[i-k]) / float64(k)
		out = append(out, Point{T: sim.Time(i) * r.dt, P: avg})
	}
	return out
}

// Reset clears all samples for reuse. The backing arrays' capacity is
// kept, so a warmed-up recorder records the next run without
// allocating.
func (r *Recorder) Reset() {
	r.total = r.total[:0]
	r.prefix = r.prefix[:0]
	r.prefixN = 0
}
