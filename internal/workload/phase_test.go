package workload

import (
	"math"
	"testing"
	"testing/quick"

	"hcapp/internal/sim"
)

func validPhase() Phase {
	return Phase{Instr: 1e6, IPC: 1.5, MemFrac: 0.3, Activity: 0.6, StallAct: 0.1}
}

func TestPhaseValidate(t *testing.T) {
	if err := validPhase().Validate(); err != nil {
		t.Fatalf("valid phase rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Phase)
	}{
		{"zero work", func(p *Phase) { p.Instr = 0 }},
		{"zero ipc", func(p *Phase) { p.IPC = 0 }},
		{"memfrac 1", func(p *Phase) { p.MemFrac = 1 }},
		{"negative memfrac", func(p *Phase) { p.MemFrac = -0.1 }},
		{"zero activity", func(p *Phase) { p.Activity = 0 }},
		{"activity over 1", func(p *Phase) { p.Activity = 1.1 }},
		{"stall over 1", func(p *Phase) { p.StallAct = 1.1 }},
	}
	for _, c := range cases {
		p := validPhase()
		c.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestSlowdownLimits(t *testing.T) {
	p := validPhase()
	if got := p.Slowdown(2e9, 2e9); math.Abs(got-1) > 1e-12 {
		t.Fatalf("slowdown at fmax = %g, want 1", got)
	}
	// Pure compute: slowdown = fmax/f.
	p.MemFrac = 0
	if got := p.Slowdown(1e9, 2e9); math.Abs(got-2) > 1e-12 {
		t.Fatalf("compute-bound slowdown = %g, want 2", got)
	}
	// Nearly memory-bound: slowdown approaches 1 regardless of f.
	p.MemFrac = 0.99
	if got := p.Slowdown(1e9, 2e9); got > 1.02 {
		t.Fatalf("memory-bound slowdown = %g, want ≈1", got)
	}
	if got := p.Slowdown(0, 2e9); got != 0 {
		t.Fatalf("zero-frequency slowdown sentinel = %g", got)
	}
}

func TestIPSAtFmax(t *testing.T) {
	p := validPhase()
	want := p.IPC * 2e9 * (1 - p.MemFrac)
	if got := p.IPS(2e9, 2e9); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("IPS(fmax) = %g, want %g", got, want)
	}
	if got := p.IPS(0, 2e9); got != 0 {
		t.Fatalf("IPS(0) = %g", got)
	}
}

func TestIPSMonotoneInFrequency(t *testing.T) {
	p := validPhase()
	f := func(a, b uint16) bool {
		f1 := 1e8 + float64(a)/65535*1.9e9
		f2 := 1e8 + float64(b)/65535*1.9e9
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		return p.IPS(f1, 2e9) <= p.IPS(f2, 2e9)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEffActivityBounds(t *testing.T) {
	p := validPhase()
	for _, f := range []float64{2e8, 1e9, 2e9} {
		_, a := p.rates(f, 2e9)
		if a < p.StallAct-1e-12 || a > p.Activity+1e-12 {
			t.Fatalf("activity at %g Hz = %g outside [stall, compute]", f, a)
		}
	}
	if _, got := p.rates(0, 2e9); got != p.StallAct {
		t.Fatalf("activity at 0 Hz = %g, want stall activity", got)
	}
}

func TestEffActivityStallGrowsWithFrequency(t *testing.T) {
	// At higher frequency the stall fraction of wall time grows, so
	// effective activity falls toward the stall activity.
	p := validPhase()
	_, lo := p.rates(5e8, 2e9)
	_, hi := p.rates(2e9, 2e9)
	if hi >= lo {
		t.Fatalf("stall weighting should grow with f: %g vs %g", lo, hi)
	}
}

func TestPhaseForDurationRoundTrip(t *testing.T) {
	fmax := 2e9
	p := PhaseFor(100*sim.Microsecond, fmax, 1.5, 0.3, 0.6, 0.1)
	got := p.DurationAtFmax(fmax)
	if math.Abs(float64(got-100*sim.Microsecond)) > 10 {
		t.Fatalf("DurationAtFmax = %s, want 100µs", sim.FormatTime(got))
	}
}

func TestTraceValidate(t *testing.T) {
	tr := &Trace{Name: "empty"}
	if err := tr.Validate(); err == nil {
		t.Fatal("empty trace accepted")
	}
	tr = &Trace{Name: "bad", Phases: []Phase{{Instr: -1, IPC: 1, Activity: 0.5}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("invalid phase accepted")
	}
	tr = &Trace{Name: "ok", Phases: []Phase{validPhase()}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestTraceTotals(t *testing.T) {
	tr := &Trace{Phases: []Phase{validPhase(), validPhase()}}
	if got := tr.TotalInstr(); got != 2e6 {
		t.Fatalf("TotalInstr = %g", got)
	}
	d := tr.LoopDurationAtFmax(2e9)
	if d <= 0 {
		t.Fatalf("loop duration %d", d)
	}
}

func TestAvgIPSBetweenPhaseRates(t *testing.T) {
	fast := Phase{Instr: 1e6, IPC: 2.0, MemFrac: 0.0, Activity: 0.9, StallAct: 0.1}
	slow := Phase{Instr: 1e6, IPC: 0.5, MemFrac: 0.5, Activity: 0.3, StallAct: 0.1}
	tr := &Trace{Phases: []Phase{fast, slow}}
	avg := tr.AvgIPS(2e9, 2e9)
	loIPS := slow.IPS(2e9, 2e9)
	hiIPS := fast.IPS(2e9, 2e9)
	if avg < loIPS || avg > hiIPS {
		t.Fatalf("AvgIPS %g outside [%g, %g]", avg, loIPS, hiIPS)
	}
	if got := tr.AvgIPS(0, 2e9); got != 0 {
		t.Fatalf("AvgIPS at f=0 should be 0, got %g", got)
	}
}

func TestCursorConsumesWork(t *testing.T) {
	tr := &Trace{Phases: []Phase{validPhase()}}
	c := NewCursor(tr, 0)
	out := c.Step(10*sim.Microsecond, 2e9, 2e9)
	want := validPhase().IPS(2e9, 2e9) * 10e-6
	if math.Abs(out.Instr-want)/want > 1e-9 {
		t.Fatalf("retired %g instr, want %g", out.Instr, want)
	}
}

func TestCursorCrossesPhaseBoundaries(t *testing.T) {
	// Two tiny phases of 1 µs each; a 3 µs step must cross both and
	// wrap around the loop.
	fmax := 2e9
	a := PhaseFor(1*sim.Microsecond, fmax, 1.0, 0, 0.9, 0.1)
	b := PhaseFor(1*sim.Microsecond, fmax, 1.0, 0, 0.2, 0.1)
	tr := &Trace{Phases: []Phase{a, b}}
	c := NewCursor(tr, 0)
	out := c.Step(3*sim.Microsecond, fmax, fmax)
	wantInstr := a.Instr + b.Instr + a.Instr
	if math.Abs(out.Instr-wantInstr)/wantInstr > 1e-9 {
		t.Fatalf("retired %g, want %g", out.Instr, wantInstr)
	}
	// Time-weighted activity: 2 µs of 0.9, 1 µs of 0.2.
	wantAct := (2*0.9 + 1*0.2) / 3
	if math.Abs(out.Activity-wantAct) > 1e-9 {
		t.Fatalf("activity %g, want %g", out.Activity, wantAct)
	}
}

func TestCursorZeroFrequency(t *testing.T) {
	tr := &Trace{Phases: []Phase{validPhase()}}
	c := NewCursor(tr, 0)
	out := c.Step(1*sim.Microsecond, 0, 2e9)
	if out.Instr != 0 {
		t.Fatalf("retired %g at f=0", out.Instr)
	}
	if out.Activity != validPhase().StallAct {
		t.Fatalf("activity %g at f=0, want stall", out.Activity)
	}
}

func TestCursorStartPhaseAndReset(t *testing.T) {
	a := validPhase()
	b := validPhase()
	b.Activity = 0.9
	tr := &Trace{Phases: []Phase{a, b}}
	c := NewCursor(tr, 1)
	if c.Phase().Activity != 0.9 {
		t.Fatal("start phase not honored")
	}
	c.Reset(0)
	if c.Phase().Activity != a.Activity {
		t.Fatal("reset start phase not honored")
	}
	// Negative and out-of-range starts wrap.
	c2 := NewCursor(tr, -1)
	if c2.Phase().Activity != 0.9 {
		t.Fatal("negative start phase should wrap to last")
	}
	c3 := NewCursor(tr, 5)
	if c3.Phase().Activity != 0.9 {
		t.Fatal("overflow start phase should wrap")
	}
}

func TestCursorWorkConservationProperty(t *testing.T) {
	// Over any sequence of steps, total retired work must equal the
	// single-step equivalent: rate doesn't depend on step partitioning.
	fmax := 2e9
	tr := &Trace{Phases: []Phase{
		PhaseFor(3*sim.Microsecond, fmax, 1.2, 0.2, 0.5, 0.1),
		PhaseFor(2*sim.Microsecond, fmax, 2.0, 0.05, 0.9, 0.1),
	}}
	f := func(nStepsRaw uint8) bool {
		nSteps := int(nStepsRaw%20) + 1
		per := 10 * sim.Microsecond / sim.Time(nSteps)
		total := per * sim.Time(nSteps)
		c1 := NewCursor(tr, 0)
		one := c1.Step(total, fmax, fmax)
		c2 := NewCursor(tr, 0)
		var sum float64
		for i := 0; i < nSteps; i++ {
			sum += c2.Step(per, fmax, fmax).Instr
		}
		return math.Abs(sum-one.Instr)/one.Instr < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
