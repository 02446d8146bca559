// Package trace reduces per-step package power online into the
// power-limit metrics of the paper's evaluation: the maximum power over
// a sliding time window (the form every power limit takes, §1), the
// Provisioned Power Efficiency (Eq. 4), and down-sampled window series
// for the Fig. 1 / Fig. 2 style plots. Nothing here keeps a sample per
// step: memory is one window, not one run.
package trace

import (
	"fmt"
	"math"

	"hcapp/internal/sim"
)

// window is the running state of one trailing window of k samples: the
// last k samples and the prefix sum one window behind the caller's
// running sum and, for a recorder, the largest window sum so far.
// Division by a fixed k is monotone, so the largest sum divided by k is
// the largest of the window averages, bit for bit.
type window struct {
	k    int
	ring []float64 // the last min(k, samples) samples; once full, next is the oldest
	next int
	lag  float64  // prefix sum over every sample but the last k
	span sim.Time // the window as declared
	max  float64
}

// add takes sample x and sum, the running prefix sum through x. Once k
// samples are in, it returns the window's sum — sum minus the prefix
// sum k samples back, the same float prefix[i]−prefix[i−k] gives — and
// true. While the ring fills, its capacity doubles, up to k, so a
// window longer than the run costs at most twice the run.
func (w *window) add(x, sum float64) (float64, bool) {
	if len(w.ring) == w.k {
		return w.slide(x, sum), true
	}
	if len(w.ring) == cap(w.ring) {
		grown := make([]float64, len(w.ring), min(max(2*len(w.ring), 64), w.k))
		copy(grown, w.ring)
		w.ring = grown
	}
	if w.ring = append(w.ring, x); len(w.ring) < w.k {
		return 0, false
	}
	d := sum - w.lag
	w.lag += w.ring[w.next]
	return d, true
}

// slide is add on a full ring: it makes no call, so it inlines into
// the recorder's steady-state loops.
func (w *window) slide(x, sum float64) float64 {
	w.ring[w.next] = x
	if w.next++; w.next == w.k {
		w.next = 0
	}
	d := sum - w.lag
	// The sample now leaving the window is the ring's oldest.
	w.lag += w.ring[w.next]
	return d
}

// windowSteps is window in whole steps of dt, at least one.
func windowSteps(window, dt sim.Time) int {
	return max(int(window/dt), 1)
}

// Recorder reduces one power sample per engine step into the run's
// average power and, for each window declared when it was made, the
// largest average over that window.
type Recorder struct {
	dt     sim.Time
	n      int
	sum    float64 // running prefix sum over all n samples
	filled int     // samples after which every ring is full: the longest window
	wins   []window
}

// NewRecorder returns a recorder for steps of dt that answers
// MaxWindowAvg for each of windows (windows of the same whole number of
// steps share one reduction).
func NewRecorder(dt sim.Time, windows ...sim.Time) (*Recorder, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("trace: non-positive timestep %d", dt)
	}
	r := &Recorder{dt: dt}
	for _, span := range windows {
		if k := windowSteps(span, dt); r.find(k) == nil {
			r.wins = append(r.wins, window{k: k, span: span, max: math.Inf(-1)})
			r.filled = max(r.filled, k)
		}
	}
	return r, nil
}

// MustRecorder is NewRecorder that panics on invalid input.
func MustRecorder(dt sim.Time, windows ...sim.Time) *Recorder {
	r, err := NewRecorder(dt, windows...)
	if err != nil {
		panic(err)
	}
	return r
}

// find returns the reduction over k steps, or nil.
func (r *Recorder) find(k int) *window {
	for i := range r.wins {
		if r.wins[i].k == k {
			return &r.wins[i]
		}
	}
	return nil
}

// Record takes one step's total package power. While a ring is still
// filling, each window takes the sample through add; after that, the
// loop makes no call, so Record keeps nothing on the stack.
func (r *Recorder) Record(total float64) {
	r.sum += total
	if r.n++; r.n <= r.filled {
		for i := range r.wins {
			w := &r.wins[i]
			if d, full := w.add(total, r.sum); full && d > w.max {
				w.max = d
			}
		}
		return
	}
	wins, sum := r.wins, r.sum
	for i := range wins {
		w := &wins[i]
		if d := w.slide(total, sum); d > w.max {
			w.max = d
		}
	}
}

// RecordN takes n identical total-power samples — the recorder half of
// a steady-state stride — one by one, so the sums are those of n
// Record calls; once the rings are full, each window takes the whole
// stride in one tight loop.
func (r *Recorder) RecordN(total float64, n int) {
	for ; n > 0 && r.n < r.filled; n-- {
		r.Record(total)
	}
	sum := r.sum
	for i := range r.wins {
		w := &r.wins[i]
		sum = r.sum
		for range n {
			sum += total
			if d := w.slide(total, sum); d > w.max {
				w.max = d
			}
		}
	}
	if len(r.wins) == 0 {
		for range n {
			sum += total
		}
	}
	r.sum, r.n = sum, r.n+max(n, 0)
}

// Steps returns the number of recorded steps.
func (r *Recorder) Steps() int { return r.n }

// Duration returns the recorded span.
func (r *Recorder) Duration() sim.Time { return sim.Time(r.n) * r.dt }

// DT returns the recorder's timestep.
func (r *Recorder) DT() sim.Time { return r.dt }

// AvgPower returns the run's average package power.
func (r *Recorder) AvgPower() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
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
// evaluated". The window must be one the recorder was made for.
func (r *Recorder) MaxWindowAvg(window sim.Time) float64 {
	k := windowSteps(window, r.dt)
	w := r.find(k)
	if w == nil {
		spans := make([]sim.Time, len(r.wins))
		for i := range r.wins {
			spans[i] = r.wins[i].span
		}
		panic(fmt.Sprintf("trace: MaxWindowAvg over %d ns from a recorder kept for %v ns", window, spans))
	}
	switch {
	case r.n == 0:
		return 0
	case k >= r.n:
		return r.sum / float64(r.n)
	}
	return w.max / float64(k)
}

// Violates reports whether the run exceeded limitWatts over the window.
func (r *Recorder) Violates(limitWatts float64, window sim.Time) bool {
	return r.MaxWindowAvg(window) > limitWatts
}

// Reset clears all samples for reuse. The rings' capacity is kept, so a
// warmed-up recorder records the next run without allocating.
func (r *Recorder) Reset() {
	r.n, r.sum = 0, 0
	for i := range r.wins {
		w := &r.wins[i]
		w.ring, w.next, w.lag, w.max = w.ring[:0], 0, 0, math.Inf(-1)
	}
}

// Point is one sample of a down-sampled series.
type Point struct {
	T sim.Time
	P float64
}

// Series is the trailing average of a power trace over a window,
// sampled every few steps and computed online — the Fig. 1 view when
// the window equals the spacing, the Fig. 2 view ("the power draw over
// different time windows") otherwise. The i-th step closes a point,
// stamped i·dt, at i = k, k+s, k+2s, … for a window of k steps and a
// spacing of s.
type Series struct {
	dt     sim.Time
	every  int // spacing in steps
	n      int // samples taken
	due    int // the sample count that closes the next point
	sum    float64
	w      window
	points []Point
}

// NewSeries returns an empty series for steps of dt averaging over
// span and sampled every sampleEvery (each at least one step).
func NewSeries(dt, span, sampleEvery sim.Time) *Series {
	k := windowSteps(span, dt)
	return &Series{dt: dt, every: windowSteps(sampleEvery, dt), due: k, w: window{k: k}}
}

// RecordN takes n identical samples, one by one.
func (s *Series) RecordN(total float64, n int) {
	for range n {
		s.sum += total
		s.n++
		if d, full := s.w.add(total, s.sum); full && s.n == s.due {
			s.points = append(s.points, Point{T: sim.Time(s.n) * s.dt, P: d / float64(s.w.k)})
			s.due += s.every
		}
	}
}

// Points returns the closed points in time order.
func (s *Series) Points() []Point { return s.points }

// Normalize divides every sample of pts by ref in place and returns
// pts — the "normalized to average power" view of Figs. 1 and 2.
func Normalize(pts []Point, ref float64) []Point {
	for i := range pts {
		pts[i].P /= ref
	}
	return pts
}
