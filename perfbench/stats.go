package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (the mean of the two middle samples for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1]
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tail is a latency tail: the highest percentile that still has
// tailMinBeyond samples above it, with the sample count it came from.
type tail struct {
	Value  float64
	Pct    float64 // the percentile the value sits at
	N      int     // samples
	Beyond int     // samples above Value's rank
	// Windows is how many windows the value is the median of (0: one
	// window, the whole run).
	Windows int
	// Short is set when there are too few samples for any percentile to
	// have tailMinBeyond beyond it; Value is then the maximum.
	Short bool
}

// pickTail returns the highest percentile with at least tailMinBeyond
// samples beyond it: the sample at rank n-10 (1-based), which sits at the
// 100*(n-10)/n-th percentile. With n <= 10 no percentile qualifies and the
// maximum is reported, flagged Short.
func pickTail(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN(), Short: true}
	}
	s := sortedCopy(xs)
	if n <= tailMinBeyond {
		return tail{Value: s[n-1], Pct: 100, N: n, Short: true}
	}
	k := n - tailMinBeyond // 1-based rank
	return tail{Value: s[k-1], Pct: 100 * float64(k) / float64(n), N: n, Beyond: tailMinBeyond}
}

// tailWindows is how many consecutive windows windowTail splits a run's
// samples into.
const tailWindows = 5

// windowTail splits xs, in the order they were taken, into tailWindows
// consecutive windows, picks each window's tail with pickTail, and
// returns the median window's. A run-wide tail rests on its 11th-largest
// sample, so one burst of host contention moves it; the median window
// needs three windows to be hit. Pct and N describe one window (the
// smallest, if they differ by one). With too few samples for every
// window to have tailMinBeyond beyond its tail, it is pickTail over xs.
func windowTail(xs []float64) tail {
	n := len(xs)
	if n/tailWindows <= tailMinBeyond {
		return pickTail(xs)
	}
	ts := make([]tail, tailWindows)
	vals := make([]float64, tailWindows)
	for w := range ts {
		ts[w] = pickTail(xs[w*n/tailWindows : (w+1)*n/tailWindows])
		vals[w] = ts[w].Value
	}
	out := ts[0]
	for _, t := range ts[1:] {
		if t.N < out.N {
			out = t
		}
	}
	out.Value = median(vals)
	out.Windows = tailWindows
	return out
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
