package experiment

import (
	"context"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"

	"hcapp/internal/chiplet"
	"hcapp/internal/config"
	"hcapp/internal/sim"
	"hcapp/internal/workload"
)

// countTraceSets installs a probe on ev's trace sets and returns a
// snapshot of how often each set was generated.
func countTraceSets(ev *Evaluator) func() map[traceKey]int {
	var mu sync.Mutex
	counts := map[traceKey]int{}
	ev.traces.probe = func(k traceKey) {
		mu.Lock()
		counts[k]++
		mu.Unlock()
	}
	return func() map[traceKey]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[traceKey]int, len(counts))
		for k, v := range counts {
			out[k] = v
		}
		return out
	}
}

// TestBuildSizedGeneratesEachTraceSetOnce: a served job's first build
// (a fresh evaluator, so a fresh seed) generates the cpu and the gpu
// chiplet's trace sets exactly once between sizing and assembly, and
// later specs on the same combo generate none.
func TestBuildSizedGeneratesEachTraceSetOnce(t *testing.T) {
	combo, err := ComboByName("Burst-Low")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator().WithTargetDur(sim.Millisecond / 5)
	ev.Cfg.Seed = 7
	counts := countTraceSets(ev)

	if _, _, err := ev.BuildSized(hcappSpec(combo, config.PackagePinLimit()), nil); err != nil {
		t.Fatal(err)
	}
	cfg := ev.Cfg
	want := map[traceKey]int{
		{bench: combo.CPU.Key(), seed: 7, units: cfg.CPU.Cores, fmax: cfg.CPU.Core.DVFS.FMax}: 1,
		{bench: combo.GPU.Key(), seed: 7, units: cfg.GPU.SMs, fmax: cfg.GPU.SM.DVFS.FMax}:     1,
	}
	if got := counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("first build generated %v, want %v", got, want)
	}

	rapl, err := config.SchemeByKind(config.RAPLLike)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.BuildSized(RunSpec{Combo: combo, Scheme: rapl, Limit: config.OffPackageVRLimit()}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Run(RunSpec{Combo: combo, Scheme: ev.FixedScheme(), Limit: config.PackagePinLimit()}); err != nil {
		t.Fatal(err)
	}
	if got := counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("later specs on the same combo generated sets: %v, want %v", got, want)
	}
}

// servedJobBuildAllocBudget bounds the allocations of a served job's
// build: a fresh evaluator sizing and assembling one 0.2 ms HCAPP run
// with the energy ledger on, as hcapp-serve does per job. On Hi-Low it
// measured 490 (541 under -race; linux/amd64, go1.24), against 1026
// when every build generated its traces twice, once for a sizing probe
// system and once for the real one. The budget is the plain count plus
// 20%, which also covers the race build. One more generation of both
// chiplets' sets costs about 240 allocations and fails it, so it also
// catches a build that bypasses the evaluator's sets, which the
// counting probe cannot see.
const servedJobBuildAllocBudget = 588

func TestServedJobBuildAllocs(t *testing.T) {
	combo, err := ComboByName("Hi-Low")
	if err != nil {
		t.Fatal(err)
	}
	spec := hcappSpec(combo, config.PackagePinLimit())
	var buildErr error
	allocs := testing.AllocsPerRun(20, func() {
		ev := NewEvaluator().WithTargetDur(sim.Millisecond / 5)
		ev.Cfg.Seed = 11
		ev.TrackEnergy = true
		if _, _, err := ev.BuildSized(spec, nil); err != nil {
			buildErr = err
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	t.Logf("served-job BuildSized: %.0f allocations (budget %d)", allocs, servedJobBuildAllocBudget)
	if allocs > servedJobBuildAllocBudget {
		t.Fatalf("served-job BuildSized made %.0f allocations, budget %d", allocs, servedJobBuildAllocBudget)
	}
}

// BenchmarkServedJobBuild is a served job's build: a fresh evaluator,
// a fresh seed and one 0.2 ms HCAPP spec per op, cycling the Table 3
// combos (docs/PERF.md, "Trace sets").
func BenchmarkServedJobBuild(b *testing.B) {
	suite := Suite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := NewEvaluator().WithTargetDur(sim.Millisecond / 5)
		ev.Cfg.Seed = int64(1000 + i)
		ev.TrackEnergy = true
		if _, _, err := ev.BuildSized(hcappSpec(suite[i%len(suite)], config.PackagePinLimit()), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSizeWorkMatchesProbeSystem holds the probe-free sizing to the one
// it replaced: the rates a fixed-voltage build of the combo reports,
// bit for bit, for every Table 3 combo at three horizons — and sizing
// from trace sets shared across those horizons, as an evaluator's are,
// to the same.
func TestSizeWorkMatchesProbeSystem(t *testing.T) {
	cfg := config.Default()
	const fixedV = 0.95
	shared := new(traceSets)
	for _, combo := range Suite() {
		for _, dur := range []sim.Time{sim.Millisecond / 5, 2 * sim.Millisecond, 16 * sim.Millisecond} {
			probe, err := Build(cfg, combo, BuildOptions{
				Scheme: config.Scheme{Kind: config.FixedVoltage, FixedV: fixedV},
			})
			if err != nil {
				t.Fatal(err)
			}
			sec := sim.Seconds(dur)
			want := Sizing{
				CPUWork: probe.CPU.AvgIPSAt(fixedV*cfg.CPUDomain.Scale) * sec,
				GPUWork: probe.GPU.AvgIPSAt(fixedV*cfg.GPUDomain.Scale) * sec,
				AccelGB: probe.Accel.ThroughputAt(fixedV*cfg.AccelDomain.Scale) * sec,
			}
			got, err := SizeWork(cfg, combo, fixedV, dur)
			if err != nil {
				t.Fatal(err)
			}
			viaShared, err := sizeWork(cfg, combo, fixedV, dur, shared)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []Sizing{got, viaShared} {
				if math.Float64bits(s.CPUWork) != math.Float64bits(want.CPUWork) ||
					math.Float64bits(s.GPUWork) != math.Float64bits(want.GPUWork) ||
					math.Float64bits(s.AccelGB) != math.Float64bits(want.AccelGB) {
					t.Fatalf("%s at %s: sizing %+v, probe system %+v", combo.Name, sim.FormatTime(dur), s, want)
				}
			}
		}
	}
}

// TestTraceSetsKeyOnBenchmarkDefinition: a custom benchmark named
// "ferret" runs on its own traces beside the built-in ferret — in one
// topology, and across builds that share an evaluator's trace sets.
func TestTraceSetsKeyOnBenchmarkDefinition(t *testing.T) {
	builtin, err := workload.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	custom, err := workload.SpecJSON{
		Name: "ferret", Target: "cpu", Class: "Mid", Kind: "steady",
		Phases: 6, PhaseDurUS: 80, IPC: 1.1, MemFrac: 0.3,
		Activity: 0.5, StallAct: 0.1, ActJitter: 0.05,
	}.Benchmark()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	// Each chiplet's sized pool is a sum over its units' traces, so it
	// names the traces the chiplet was built on.
	pools := func(traces *traceSets, benches ...workload.Benchmark) []float64 {
		t.Helper()
		topo := Topology{SizingDur: sim.Millisecond}
		for i, b := range benches {
			topo.Chiplets = append(topo.Chiplets, ChipletSpec{Kind: "cpu", Name: string(rune('a' + i)), Benchmark: b})
		}
		sys, err := assemble(cfg, topo, BuildOptions{
			Scheme: config.Scheme{Kind: config.FixedVoltage, FixedV: 0.95},
			traces: traces,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, s := range sys.Engine.Slots() {
			out = append(out, s.Comp.(*chiplet.Chiplet).TotalWork())
		}
		return out
	}
	wantBuiltin, wantCustom := pools(nil, builtin)[0], pools(nil, custom)[0]
	if wantBuiltin == wantCustom {
		t.Fatal("test benchmarks size alike; the check would prove nothing")
	}
	if got := pools(nil, builtin, custom); got[0] != wantBuiltin || got[1] != wantCustom {
		t.Fatalf("one topology: pools %v, want [%g %g]", got, wantBuiltin, wantCustom)
	}
	shared := new(traceSets)
	if got := pools(shared, builtin)[0]; got != wantBuiltin {
		t.Fatalf("built-in ferret pool %g, want %g", got, wantBuiltin)
	}
	if got := pools(shared, custom)[0]; got != wantCustom {
		t.Fatalf("custom ferret after the built-in, sharing trace sets: pool %g, want %g", got, wantCustom)
	}
}

// hashUnits digests every bit of a trace set: names, phase fields and
// start phases.
func hashUnits(sets ...[]workload.Unit) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, units := range sets {
		for _, u := range units {
			h.Write([]byte(u.Trace.Name))
			put(uint64(u.Start))
			for _, p := range u.Trace.Phases {
				for _, f := range []float64{p.Instr, p.IPC, p.MemFrac, p.Activity, p.StallAct} {
					put(math.Float64bits(f))
				}
			}
		}
	}
	return h.Sum64()
}

// TestSharedTraceSetsConcurrentRuns runs every spec of one combo on a
// 4-wide runner, all sharing one evaluator's trace sets. Under -race
// this proves concurrent engines only read the shared traces; the
// results must equal a fresh evaluator's per spec, and the shared
// phases must hash the same afterwards.
func TestSharedTraceSetsConcurrentRuns(t *testing.T) {
	combo, err := ComboByName("Burst-Low")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 42
	dur := sim.Millisecond / 2
	var specs []RunSpec
	for _, limit := range []config.PowerLimit{config.PackagePinLimit(), config.OffPackageVRLimit()} {
		for _, scheme := range config.StandardSchemes() {
			specs = append(specs, RunSpec{Combo: combo, Scheme: scheme, Limit: limit})
		}
		prio, adv, pol := hcappSpec(combo, limit), hcappSpec(combo, limit), hcappSpec(combo, limit)
		prio.Priorities = map[string]float64{"cpu": 2}
		adv.AdversarialAccel = true
		pol.Policy = "progress-balancer"
		specs = append(specs, prio, adv, pol)
	}

	ev := NewEvaluator().WithTargetDur(dur).WithRunner(NewRunner(4))
	ev.Cfg.Seed = seed
	counts := countTraceSets(ev)
	cpu, _, err := ev.traces.chiplet(ev.Cfg, "cpu", combo.CPU, seed)
	if err != nil {
		t.Fatal(err)
	}
	gpu, _, err := ev.traces.chiplet(ev.Cfg, "gpu", combo.GPU, seed)
	if err != nil {
		t.Fatal(err)
	}
	before := hashUnits(cpu, gpu)

	shared, err := ev.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if after := hashUnits(cpu, gpu); after != before {
		t.Fatalf("shared trace sets changed under concurrent runs: hash %x, was %x", after, before)
	}
	if n := len(counts()); n != 2 {
		t.Fatalf("%d trace sets generated, want 2 (one per chiplet)", n)
	}
	for i, spec := range specs {
		fresh := NewEvaluator().WithTargetDur(dur)
		fresh.Cfg.Seed = seed
		want, err := fresh.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Zero the spec echo: DeepEqual rejects the combo's func values.
		got := shared[i]
		got.Spec, want.Spec = RunSpec{}, RunSpec{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %d (%s): shared-trace result differs from a fresh evaluator's:\n got %+v\nwant %+v", i, spec.key(), got, want)
		}
	}
}
