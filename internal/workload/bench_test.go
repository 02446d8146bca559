package workload

import (
	"math"
	"reflect"
	"testing"

	"hcapp/internal/sim"
)

func TestRegistryContents(t *testing.T) {
	cpu := CPUBenchmarks()
	if len(cpu) != 4 {
		t.Fatalf("CPU benchmarks = %d, want 4 (paper §4.2 subset)", len(cpu))
	}
	gpu := GPUBenchmarks()
	if len(gpu) != 4 {
		t.Fatalf("GPU benchmarks = %d, want 4 (paper §4.3 subset)", len(gpu))
	}
	wantCPU := []string{"blackscholes", "ferret", "fluidanimate", "swaptions"}
	for i, b := range cpu {
		if b.Name != wantCPU[i] {
			t.Errorf("cpu[%d] = %s, want %s", i, b.Name, wantCPU[i])
		}
		if b.On != TargetCPU || b.Suite != "PARSEC" {
			t.Errorf("%s: wrong target/suite", b.Name)
		}
	}
	wantGPU := []string{"backprop", "bfs", "myocyte", "sradv2"}
	for i, b := range gpu {
		if b.Name != wantGPU[i] {
			t.Errorf("gpu[%d] = %s, want %s", i, b.Name, wantGPU[i])
		}
		if b.On != TargetGPU || b.Suite != "Rodinia" {
			t.Errorf("%s: wrong target/suite", b.Name)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("ferret")
	if err != nil || b.Class != ClassBurst {
		t.Fatalf("ByName(ferret) = %+v, %v", b, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestByClass(t *testing.T) {
	cases := []struct {
		on   Target
		c    Class
		want string
	}{
		{TargetCPU, ClassLow, "blackscholes"},
		{TargetCPU, ClassHi, "fluidanimate"},
		{TargetCPU, ClassMid, "swaptions"},
		{TargetCPU, ClassBurst, "ferret"},
		{TargetCPU, ClassConst, "swaptions"}, // Const maps to swaptions per Table 3
		{TargetGPU, ClassLow, "myocyte"},
		{TargetGPU, ClassHi, "backprop"},
		{TargetGPU, ClassMid, "sradv2"},
		{TargetGPU, ClassBurst, "bfs"},
	}
	for _, c := range cases {
		b, err := ByClass(c.on, c.c)
		if err != nil {
			t.Fatalf("ByClass(%s, %s): %v", c.on, c.c, err)
		}
		if b.Name != c.want {
			t.Errorf("ByClass(%s, %s) = %s, want %s", c.on, c.c, b.Name, c.want)
		}
	}
	if _, err := ByClass(TargetCPU, Class("Weird")); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestUnitsDeterminism(t *testing.T) {
	for _, b := range append(CPUBenchmarks(), GPUBenchmarks()...) {
		fmax := 2e9
		u1 := b.Units(42, 8, fmax)
		u2 := b.Units(42, 8, fmax)
		if !reflect.DeepEqual(u1, u2) {
			t.Errorf("%s: same seed produced different units", b.Name)
		}
		u3 := b.Units(43, 8, fmax)
		if reflect.DeepEqual(u1[0].Trace, u3[0].Trace) {
			t.Errorf("%s: different seeds produced identical traces", b.Name)
		}
	}
}

func TestUnitsValidity(t *testing.T) {
	// Every benchmark must produce valid traces for every unit over a
	// spread of seeds.
	for _, b := range append(CPUBenchmarks(), GPUBenchmarks()...) {
		fmax := 2e9
		if b.On == TargetGPU {
			fmax = 700e6
		}
		for seed := int64(0); seed < 5; seed++ {
			for unit, u := range b.Units(seed, 4, fmax) {
				if err := u.Trace.Validate(); err != nil {
					t.Fatalf("%s seed=%d unit=%d: %v", b.Name, seed, unit, err)
				}
			}
		}
	}
}

func TestCorrelatedBenchmarksShareTiming(t *testing.T) {
	b, err := ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	units := b.Units(7, 8, 2e9)
	t0, t1 := units[0].Trace, units[5].Trace
	if len(t0.Phases) != len(t1.Phases) {
		t.Fatal("correlated units have different phase counts")
	}
	for i := range t0.Phases {
		if t0.Phases[i].Instr != t1.Phases[i].Instr {
			t.Fatalf("phase %d work differs across correlated units", i)
		}
	}
	// Start phases must be 0 for correlated workloads.
	for i, u := range units {
		if u.Start != 0 {
			t.Fatalf("correlated unit %d start phase = %d, want 0", i, u.Start)
		}
	}
}

func TestDecorrelatedBenchmarksDiffer(t *testing.T) {
	b, err := ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	units := b.Units(7, 8, 2e9)
	if reflect.DeepEqual(units[0].Trace, units[5].Trace) {
		t.Fatal("decorrelated units produced identical traces")
	}
	// Start phases spread over the trace.
	seen := map[int]bool{}
	for _, u := range units {
		seen[u.Start] = true
	}
	if len(seen) < 2 {
		t.Fatal("decorrelated start phases all identical")
	}
}

func TestBurstClassHasHighDynamicRange(t *testing.T) {
	// The Burst benchmarks must have a large gap between their lowest
	// and highest phase activity; the steady ones must not.
	span := func(tr *Trace) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range tr.Phases {
			lo = math.Min(lo, p.Activity)
			hi = math.Max(hi, p.Activity)
		}
		return hi - lo
	}
	ferret, _ := ByName("ferret")
	black, _ := ByName("blackscholes")
	fSpan := span(ferret.Units(1, 8, 2e9)[0].Trace)
	bSpan := span(black.Units(1, 8, 2e9)[0].Trace)
	if fSpan < 0.4 {
		t.Fatalf("ferret activity span %g, want bursty (≥0.4)", fSpan)
	}
	if bSpan > 0.25 {
		t.Fatalf("blackscholes activity span %g, want steady (≤0.25)", bSpan)
	}
}

func TestClassActivityOrdering(t *testing.T) {
	// Mean activity must order Low < Mid < Hi for both targets.
	meanAct := func(b Benchmark, fmax float64) float64 {
		tr := b.Units(3, 8, fmax)[0].Trace
		sum := 0.0
		for _, p := range tr.Phases {
			sum += p.Activity
		}
		return sum / float64(len(tr.Phases))
	}
	for _, target := range []Target{TargetCPU, TargetGPU} {
		fmax := 2e9
		if target == TargetGPU {
			fmax = 700e6
		}
		low, _ := ByClass(target, ClassLow)
		mid, _ := ByClass(target, ClassMid)
		hi, _ := ByClass(target, ClassHi)
		l, m, h := meanAct(low, fmax), meanAct(mid, fmax), meanAct(hi, fmax)
		if !(l < m && m < h) {
			t.Errorf("%s activity ordering broken: low=%g mid=%g hi=%g", target, l, m, h)
		}
	}
}

func TestBurstTraceHasRampPhases(t *testing.T) {
	// BurstTrace inserts ramps: gap, ramp, burst, ramp per burst.
	ferret, _ := ByName("ferret")
	tr := ferret.Units(1, 8, 2e9)[0].Trace
	if len(tr.Phases)%4 != 0 {
		t.Fatalf("burst trace phases = %d, want multiple of 4", len(tr.Phases))
	}
	// Ramp activity sits between gap and burst activity.
	gap, ramp, burst := tr.Phases[0], tr.Phases[1], tr.Phases[2]
	if !(ramp.Activity > gap.Activity && ramp.Activity < burst.Activity) {
		t.Fatalf("ramp activity %g not between gap %g and burst %g",
			ramp.Activity, gap.Activity, burst.Activity)
	}
}

func TestBuilders(t *testing.T) {
	fmax := 2e9
	// ConstantTrace: exactly one phase with the requested duration.
	ct := ConstantTrace("c", fmax, 50*sim.Microsecond, 1.5, 0.2, 0.5, 0.1)
	if len(ct.Phases) != 1 {
		t.Fatalf("ConstantTrace phases = %d", len(ct.Phases))
	}
	if err := ct.Validate(); err != nil {
		t.Fatal(err)
	}
	d := ct.Phases[0].DurationAtFmax(fmax)
	if math.Abs(float64(d-50*sim.Microsecond)) > 100 {
		t.Fatalf("ConstantTrace duration %s", sim.FormatTime(d))
	}
}

func TestMixSeedStability(t *testing.T) {
	a := mixSeed(42, "x", 1)
	b := mixSeed(42, "x", 1)
	if a != b {
		t.Fatal("mixSeed not deterministic")
	}
	if mixSeed(42, "x", 1) == mixSeed(42, "x", 2) {
		t.Fatal("mixSeed ignores unit")
	}
	if mixSeed(42, "x", 1) == mixSeed(42, "y", 1) {
		t.Fatal("mixSeed ignores label")
	}
	if mixSeed(42, "x", 1) == mixSeed(43, "x", 1) {
		t.Fatal("mixSeed ignores seed")
	}
	if mixSeed(0, "", 0) == 0 {
		t.Fatal("mixSeed must never return 0")
	}
}
