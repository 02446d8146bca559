package energy

import (
	"math"
	"reflect"
	"testing"

	"hcapp/internal/sched"
	"hcapp/internal/sim"
)

// fakeMeter is a scripted UnitMeter: tests set act/watts between steps.
type fakeMeter struct {
	act   []float64
	watts []float64
}

func (m *fakeMeter) UnitSamples() (act, watts []float64, actSum float64) {
	for _, a := range m.act {
		actSum += a
	}
	return m.act, m.watts, actSum
}

// step feeds the ledger one step of length dt.
func step(l *Ledger, dt sim.Time, total float64, powers ...float64) {
	ds := make([]sched.DomainSample, len(powers))
	for i, p := range powers {
		ds[i].Power = p
	}
	l.ObserveSteps(0, dt, 1, total, ds)
}

func TestLedgerActivityShareAttribution(t *testing.T) {
	m := &fakeMeter{act: []float64{3, 1}, watts: []float64{2.5, 0.5}}
	l := NewLedger([]SlotConfig{
		{Domain: "cpu", Benchmark: "bench", UnitLabel: "core", Meter: m},
	})

	// One 1 µs step at 4 W domain power: 4e-6 J split 3:1.
	step(l, sim.Microsecond, 4, 4)

	s := l.Summary()
	if s.Steps != 1 {
		t.Fatalf("steps = %d, want 1", s.Steps)
	}
	dt := sim.Seconds(sim.Microsecond)
	wantTotal := 4 * dt
	if math.Abs(s.TotalJ-wantTotal) > 1e-18 {
		t.Fatalf("TotalJ = %g, want %g", s.TotalJ, wantTotal)
	}
	if len(s.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(s.Components))
	}
	c0, c1 := s.Components[0], s.Components[1]
	if c0.Component != "cpu/core0" || c1.Component != "cpu/core1" {
		t.Fatalf("component names = %q, %q", c0.Component, c1.Component)
	}
	if c0.Benchmark != "bench" {
		t.Fatalf("benchmark = %q", c0.Benchmark)
	}
	if math.Abs(c0.AttributedJ-3*dt) > 1e-18 {
		t.Errorf("core0 attributed = %g, want %g", c0.AttributedJ, 3*dt)
	}
	if math.Abs(c1.AttributedJ-1*dt) > 1e-18 {
		t.Errorf("core1 attributed = %g, want %g", c1.AttributedJ, 1*dt)
	}
	// Ground truth integrates the scripted unit powers directly.
	if math.Abs(c0.TrueJ-2.5*dt) > 1e-18 || math.Abs(c1.TrueJ-0.5*dt) > 1e-18 {
		t.Errorf("ground truth = %g, %g; want %g, %g", c0.TrueJ, c1.TrueJ, 2.5*dt, 0.5*dt)
	}
	// Uncore = domain − Σ unit power = (4 − 3) W worth of energy.
	d := s.Domains[0]
	if math.Abs(d.UncoreJ-1*dt) > 1e-18 {
		t.Errorf("uncore = %g, want %g", d.UncoreJ, 1*dt)
	}
}

func TestLedgerEqualSplitWhenIdle(t *testing.T) {
	m := &fakeMeter{act: []float64{0, 0, 0, 0}, watts: []float64{0, 0, 0, 0}}
	l := NewLedger([]SlotConfig{
		{Domain: "gpu", Benchmark: "b", UnitLabel: "sm", Meter: m},
	})
	step(l, sim.Microsecond, 2, 2) // leakage-only step: all units idle

	s := l.Summary()
	dt := sim.Seconds(sim.Microsecond)
	for i, c := range s.Components {
		want := 2 * dt / 4
		if math.Abs(c.AttributedJ-want) > 1e-18 {
			t.Errorf("unit %d attributed = %g, want equal split %g", i, c.AttributedJ, want)
		}
	}
}

func TestLedgerConservationExactByConstruction(t *testing.T) {
	// Awkward activity values whose shares do not sum cleanly in float:
	// the remainder-to-last-unit rule must still conserve exactly.
	m := &fakeMeter{act: []float64{0.1, 0.2, 0.3}, watts: []float64{1, 1, 1}}
	l := NewLedger([]SlotConfig{
		{Domain: "cpu", Benchmark: "b", UnitLabel: "core", Meter: m},
	})
	for i := 0; i < 1000; i++ {
		m.act[0] = 0.1 + float64(i%7)*0.013
		m.act[2] = 0.3 + float64(i%5)*0.021
		step(l, 100*sim.Nanosecond, 3.7, 3.7)
	}
	s := l.Summary()
	// Each step's shares sum to that step's ej exactly, but the per-unit
	// accumulators sum across steps in a different order than domainJ, so
	// the totals agree to rounding (~1e-14 relative), far inside the 1e-9
	// bound the experiment suite enforces.
	if e := s.ConservationError(); e > 1e-12 {
		t.Fatalf("ConservationError = %g, want <= 1e-12", e)
	}
}

func TestLedgerUnmeteredSlot(t *testing.T) {
	l := NewLedger([]SlotConfig{
		{Domain: "mem", Benchmark: "static"},
	})
	step(l, sim.Microsecond, 1.5, 1.5)
	step(l, sim.Microsecond, 1.5, 1.5)

	s := l.Summary()
	c := s.Components[0]
	if c.Component != "mem" {
		t.Fatalf("component = %q, want bare domain name", c.Component)
	}
	if c.AttributedJ != c.TrueJ || c.AttributedJ != s.Domains[0].EnergyJ {
		t.Fatalf("unmetered slot not exact: att=%g gt=%g domain=%g",
			c.AttributedJ, c.TrueJ, s.Domains[0].EnergyJ)
	}
	if s.Domains[0].UncoreJ != 0 {
		t.Fatalf("unmetered uncore = %g, want 0", s.Domains[0].UncoreJ)
	}
}

func TestLedgerAccuracy(t *testing.T) {
	// Units draw 2 W and 1 W but report equal activity, so the share
	// split charges each half the 4 W domain. The ideal splits the 1 W
	// uncore pro-rata by true energy: ideal charges are 8/3 and 4/3.
	m := &fakeMeter{act: []float64{1, 1}, watts: []float64{2, 1}}
	l := NewLedger([]SlotConfig{
		{Domain: "cpu", Benchmark: "b", UnitLabel: "core", Meter: m},
	})
	step(l, sim.Microsecond, 4, 4)

	accs := l.Summary().Accuracy()
	if len(accs) != 1 {
		t.Fatalf("accuracy rows = %d", len(accs))
	}
	a := accs[0]
	if math.Abs(a.UncoreFrac-0.25) > 1e-12 {
		t.Errorf("UncoreFrac = %g, want 0.25", a.UncoreFrac)
	}
	// att = {2, 2} (equal split of 4); ideal = {8/3, 4/3}.
	// misattr = (|2-8/3| + |2-4/3|) / (2*4) = (4/3)/8 = 1/6.
	if math.Abs(a.MisattrFrac-1.0/6) > 1e-12 {
		t.Errorf("MisattrFrac = %g, want %g", a.MisattrFrac, 1.0/6)
	}
	// Worst unit: |2-4/3|/(4/3) = 0.5.
	if math.Abs(a.MaxUnitErr-0.5) > 1e-12 {
		t.Errorf("MaxUnitErr = %g, want 0.5", a.MaxUnitErr)
	}
}

func TestLedgerReset(t *testing.T) {
	m := &fakeMeter{act: []float64{1}, watts: []float64{1}}
	l := NewLedger([]SlotConfig{{Domain: "cpu", Benchmark: "b", Meter: m}})
	step(l, sim.Microsecond, 2, 2)
	l.Reset()
	s := l.Summary()
	if s.TotalJ != 0 || s.Steps != 0 {
		t.Fatalf("after Reset: TotalJ=%g Steps=%d", s.TotalJ, s.Steps)
	}
	for _, c := range s.Components {
		if c.AttributedJ != 0 || c.TrueJ != 0 {
			t.Fatalf("after Reset: component %q att=%g gt=%g", c.Component, c.AttributedJ, c.TrueJ)
		}
	}
	// Post-reset time base restarts at zero, same as a fresh ledger.
	step(l, sim.Microsecond, 2, 2)
	if got := l.Summary().TotalJ; math.Abs(got-2*sim.Seconds(sim.Microsecond)) > 1e-18 {
		t.Fatalf("post-reset step TotalJ = %g", got)
	}
}

func TestObserversTee(t *testing.T) {
	m := &fakeMeter{act: []float64{1}, watts: []float64{1}}
	a := NewLedger([]SlotConfig{{Domain: "cpu", Benchmark: "b", Meter: m}})
	b := NewLedger([]SlotConfig{{Domain: "cpu", Benchmark: "b", Meter: m}})

	if sched.Observers() != nil {
		t.Fatal("Observers() of nothing should be nil")
	}
	if got := sched.Observers(nil, a, nil); got != sched.StepObserver(a) {
		t.Fatal("single non-nil observer should pass through unchanged")
	}

	tee := sched.Observers(a, b)
	tee.ObserveSteps(sim.Microsecond, sim.Microsecond, 3, 2, []sched.DomainSample{{Power: 2}})
	if a.Summary().Steps != 3 || b.Summary().Steps != 3 {
		t.Fatalf("tee did not reach both observers: %d, %d",
			a.Summary().Steps, b.Summary().Steps)
	}
}

// TestLedgerBulkMatchesSingleSteps pins the bulk contract: one call
// carrying n identical steps must leave the ledger bitwise where n
// single-step calls would, for metered and unmetered slots alike —
// including awkward shares whose per-step sums round.
func TestLedgerBulkMatchesSingleSteps(t *testing.T) {
	const dt, n = 100 * sim.Nanosecond, 1000
	build := func() *Ledger {
		m := &fakeMeter{act: []float64{0.1, 0.2, 0.3}, watts: []float64{0.7, 1.1, 1.3}}
		return NewLedger([]SlotConfig{
			{Domain: "cpu", Benchmark: "b", UnitLabel: "core", Meter: m},
			{Domain: "mem", Benchmark: "static"},
		})
	}
	ds := []sched.DomainSample{{Power: 3.7}, {Power: 1.9}}
	single, bulk := build(), build()
	for i := 0; i < n; i++ {
		single.ObserveSteps(sim.Time(i+1)*dt, dt, 1, 5.6, ds)
	}
	bulk.ObserveSteps(dt, dt, n, 5.6, ds)
	if s, b := single.Summary(), bulk.Summary(); !reflect.DeepEqual(s, b) {
		t.Fatalf("bulk call diverges from single steps:\nsingle %+v\nbulk   %+v", s, b)
	}
}
