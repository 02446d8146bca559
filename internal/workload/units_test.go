package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// oracleTraceFor is the per-unit trace generator Units replaced, frozen
// as it was: one fresh source per unit, the correlated base rebuilt for
// every unit. It is the reference Units must match bit for bit.
func oracleTraceFor(b Benchmark, seed int64, unit, nUnits int, fmax float64) *Trace {
	var rng *rand.Rand
	if b.correlated {
		rng = rand.New(rand.NewSource(mixSeed(seed, b.Name, 0)))
	} else {
		rng = rand.New(rand.NewSource(mixSeed(seed, b.Name, unit)))
	}
	t := b.build(rng, fmax)
	if b.correlated && nUnits > 1 {
		urng := rand.New(rand.NewSource(mixSeed(seed, b.Name+"/amp", unit)))
		scale := 1 + 0.03*(2*urng.Float64()-1)
		for i := range t.Phases {
			a := t.Phases[i].Activity * scale
			if a > 1 {
				a = 1
			}
			if a < 0.02 {
				a = 0.02
			}
			t.Phases[i].Activity = a
		}
	}
	return t
}

// oracleStartPhase is the per-unit start-phase generator Units
// replaced, frozen as it was.
func oracleStartPhase(b Benchmark, seed int64, unit, tracePhases int) int {
	if b.correlated || tracePhases <= 1 {
		return 0
	}
	rng := rand.New(rand.NewSource(mixSeed(seed, b.Name+"/start", unit)))
	return rng.Intn(tracePhases)
}

// samePhasesBits reports the first field of a and b whose bits differ.
func samePhasesBits(a, b *Trace) error {
	if a.Name != b.Name {
		return fmt.Errorf("name %q, want %q", a.Name, b.Name)
	}
	if len(a.Phases) != len(b.Phases) {
		return fmt.Errorf("%d phases, want %d", len(a.Phases), len(b.Phases))
	}
	for i := range a.Phases {
		p, q := a.Phases[i], b.Phases[i]
		for _, f := range []struct {
			name string
			x, y float64
		}{
			{"Instr", p.Instr, q.Instr},
			{"IPC", p.IPC, q.IPC},
			{"MemFrac", p.MemFrac, q.MemFrac},
			{"Activity", p.Activity, q.Activity},
			{"StallAct", p.StallAct, q.StallAct},
		} {
			if math.Float64bits(f.x) != math.Float64bits(f.y) {
				return fmt.Errorf("phase %d %s = %v, want %v", i, f.name, f.x, f.y)
			}
		}
	}
	return nil
}

// TestUnitsMatchPerUnitOracle holds the one-pass generator to the
// per-unit one it replaced: every phase field and every start phase,
// bit for bit, for every built-in benchmark and a custom benchmark of
// each kind (steady, constant, wave and burst).
func TestUnitsMatchPerUnitOracle(t *testing.T) {
	custom, err := ParseBenchmarks(strings.NewReader(sampleSpecs))
	if err != nil {
		t.Fatal(err)
	}
	var specs []SpecJSON
	if err := json.Unmarshal([]byte(sampleSpecs), &specs); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, sp := range specs {
		kinds[sp.Kind] = true
	}
	if len(kinds) != 4 {
		t.Fatalf("custom specs cover kinds %v, want all four", kinds)
	}
	benches := append(append(CPUBenchmarks(), GPUBenchmarks()...), custom...)
	for _, b := range benches {
		fmax := 2e9
		if b.On == TargetGPU {
			fmax = 700e6
		}
		for _, seed := range []int64{1, 42, 1234} {
			for _, n := range []int{1, 8, 15} {
				units := b.Units(seed, n, fmax)
				if len(units) != n {
					t.Fatalf("%s: %d units, want %d", b.Name, len(units), n)
				}
				for i, u := range units {
					want := oracleTraceFor(b, seed, i, n, fmax)
					if err := samePhasesBits(u.Trace, want); err != nil {
						t.Fatalf("%s seed=%d n=%d unit %d: %v", b.Name, seed, n, i, err)
					}
					if ws := oracleStartPhase(b, seed, i, len(want.Phases)); u.Start != ws {
						t.Fatalf("%s seed=%d n=%d unit %d: start %d, want %d", b.Name, seed, n, i, u.Start, ws)
					}
				}
			}
		}
	}
}

// TestUnitsKeyIsTheDefinition: a custom benchmark that reuses a
// built-in's name has its own key, and so do two custom specs sharing a
// name; equal specs share one.
func TestUnitsKeyIsTheDefinition(t *testing.T) {
	ferret, err := ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(act float64) Benchmark {
		b, err := SpecJSON{
			Name: "ferret", Target: "cpu", Kind: "constant",
			PhaseDurUS: 50, IPC: 1.4, MemFrac: 0.1, Activity: act, StallAct: 0.1,
		}.Benchmark()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := mk(0.6), mk(0.7), mk(0.6)
	if a.Key() == ferret.Key() || a.Key() == b.Key() {
		t.Fatalf("keys collide: built-in %q, custom %q and %q", ferret.Key(), a.Key(), b.Key())
	}
	if a.Key() != c.Key() {
		t.Fatalf("equal specs keyed %q and %q", a.Key(), c.Key())
	}
	again, _ := ByName("ferret")
	if again.Key() != ferret.Key() {
		t.Fatalf("built-in ferret keyed %q then %q", ferret.Key(), again.Key())
	}
}

func TestUnitsPanicsOnBadCount(t *testing.T) {
	b, _ := ByName("ferret")
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d: expected panic", n)
				}
			}()
			b.Units(1, n, 2e9)
		}()
	}
}
