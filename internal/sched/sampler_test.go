package sched

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hcapp/internal/sim"
	"hcapp/internal/trace"
)

// SlotLog is a StepObserver that logs every observed step: its time,
// the rail voltage and each slot's power and domain voltage. A call's
// n steps are logged one by one, as stepLog replays them, so a strided
// run's log can be held bitwise to the fixed-step reference's. It is
// exported to the external test package through this file.
type SlotLog struct {
	eng     *Engine
	Times   []sim.Time
	Rail    []float64
	Power   [][]float64 // [slot][step]
	Voltage [][]float64 // [slot][step]
}

// TotalLog is a StepObserver that logs the package total power of every
// observed step, a call's n steps one by one: the per-step series the
// recorder does not keep, so two runs' traces can be compared bit for
// bit. It is exported to the external test package through this file.
type TotalLog []float64

func (l *TotalLog) ObserveSteps(_, _ sim.Time, n int64, total float64, _ []DomainSample) {
	for ; n > 0; n-- {
		*l = append(*l, total)
	}
}

// NewSlotLog returns a log for eng's slots; attach it with
// eng.SetObserver.
func NewSlotLog(eng *Engine) *SlotLog {
	n := len(eng.Slots())
	return &SlotLog{eng: eng, Power: make([][]float64, n), Voltage: make([][]float64, n)}
}

func (l *SlotLog) ObserveSteps(now, dt sim.Time, n int64, _ float64, domains []DomainSample) {
	rail := l.eng.LastRail()
	for j := int64(0); j < n; j++ {
		l.Times = append(l.Times, now+sim.Time(j)*dt)
		l.Rail = append(l.Rail, rail)
		for i, d := range domains {
			l.Power[i] = append(l.Power[i], d.Power)
			l.Voltage[i] = append(l.Voltage[i], d.Voltage)
		}
	}
}

// Diff returns "" when both logs hold the same steps with bitwise equal
// values, else a description of the first difference.
func (l *SlotLog) Diff(o *SlotLog) string {
	if !slices.Equal(l.Times, o.Times) {
		return fmt.Sprintf("step times differ (%d vs %d steps)", len(l.Times), len(o.Times))
	}
	cols := func(g *SlotLog) [][]float64 { return slices.Concat([][]float64{g.Rail}, g.Power, g.Voltage) }
	a, b := cols(l), cols(o)
	if len(a) != len(b) {
		return "slot counts differ"
	}
	for c := range a {
		for i := range a[c] {
			if math.Float64bits(a[c][i]) != math.Float64bits(b[c][i]) {
				return fmt.Sprintf("column %d differs at step %d: %g vs %g", c, i, a[c][i], b[c][i])
			}
		}
	}
	return ""
}

// ComponentSeries is a frozen copy of the bucket arithmetic the trace
// recorder applied to a per-step component series before per-component
// traces moved to Sampler: a running sum closed and divided by k every
// k samples, stamped at the closing sample, counted from the run's
// first step. The sampler must reproduce it bit for bit.
func ComponentSeries(samples []float64, dt, sampleEvery sim.Time) []trace.Point {
	k := int(sampleEvery / dt)
	if k < 1 {
		k = 1
	}
	var out []trace.Point
	sum := 0.0
	for i, p := range samples {
		sum += p
		if (i+1)%k == 0 {
			out = append(out, trace.Point{T: sim.Time(i+1) * dt, P: sum / float64(k)})
			sum = 0
		}
	}
	return out
}

// SamplerDiff returns "" when s holds exactly ComponentSeries of every
// column l logged from the same run's first step, else the first
// mismatching column's name.
func SamplerDiff(s *Sampler, l *SlotLog, sampleEvery sim.Time) string {
	dt := l.eng.cfg.DT
	same := func(got, want []trace.Point) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].T != want[i].T || math.Float64bits(got[i].P) != math.Float64bits(want[i].P) {
				return false
			}
		}
		return true
	}
	if !same(s.Rail(), ComponentSeries(l.Rail, dt, sampleEvery)) {
		return "rail"
	}
	for i, sl := range l.eng.Slots() {
		if !same(s.Power(sl.Comp.Name()), ComponentSeries(l.Power[i], dt, sampleEvery)) {
			return "power of " + sl.Comp.Name()
		}
		if !same(s.Voltage(sl.Domain.Name()), ComponentSeries(l.Voltage[i], dt, sampleEvery)) {
			return "voltage of " + sl.Domain.Name()
		}
	}
	return ""
}

// TestSamplerMatchesComponentSeries holds the sampler to the frozen
// bucket arithmetic on the fully loaded engine (global control, clamp,
// an injector whose window moves the rail) and on a striding engine
// under both the fixed-step reference and striding, with a bucket of 7
// steps that does not divide the 3000-step run.
func TestSamplerMatchesComponentSeries(t *testing.T) {
	const every = 7 * dt
	const span = 3000 * dt
	run := func(label string, eng *Engine) *SlotLog {
		t.Helper()
		s, l := NewSampler(eng, every), NewSlotLog(eng)
		eng.SetObserver(Observers(s, l))
		eng.RunFor(span)
		if len(s.Rail()) != 3000/7 {
			t.Fatalf("%s: %d buckets, want %d", label, len(s.Rail()), 3000/7)
		}
		if d := SamplerDiff(s, l, every); d != "" {
			t.Fatalf("%s: sampler %s diverges from the frozen bucket arithmetic", label, d)
		}
		return l
	}
	run("tracking", trackingEngine(t))

	restore := SetFixedStep(true)
	fixed := stridingEngine(t, nil)
	restore()
	restore = SetFixedStep(false)
	strided := stridingEngine(t, nil)
	restore()
	lf, ls := run("striding/fixed", fixed), run("striding", strided)
	if strided.StridedSteps() == 0 {
		t.Fatal("the striding engine never strided: the sampler's bulk replay went unmeasured")
	}
	if d := lf.Diff(ls); d != "" {
		t.Fatalf("strided per-step log diverges from the fixed-step reference: %s", d)
	}
}
