package workload

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"

	"hcapp/internal/sim"
)

// Class is the paper's power-behaviour classification used to name the
// Table 3 combinations.
type Class string

// Power-behaviour classes from Table 3.
const (
	ClassLow   Class = "Low"
	ClassMid   Class = "Mid"
	ClassHi    Class = "Hi"
	ClassBurst Class = "Burst"
	ClassConst Class = "Const"
)

// Target identifies which chiplet a benchmark runs on.
type Target string

// Benchmark targets.
const (
	TargetCPU Target = "CPU"
	TargetGPU Target = "GPU"
)

// Benchmark is a named synthetic proxy for one of the paper's PARSEC or
// Rodinia workloads.
type Benchmark struct {
	Name  string
	Suite string // "PARSEC" or "Rodinia"
	Class Class
	On    Target
	// correlated marks bursty benchmarks whose phases must line up
	// across units so bursts appear at the package level.
	correlated bool
	build      func(rng *rand.Rand, fmax float64) *Trace
	// custom is a custom benchmark's whole spec in Go syntax; empty
	// for the built-in registry.
	custom string
}

// Unit is the workload of one execution unit (a core or an SM): the
// trace it loops and the phase it starts at.
type Unit struct {
	Trace *Trace
	Start int
}

// Units builds the workload of every unit of an nUnits chiplet,
// deterministically derived from seed. Steady workloads decorrelate
// units with distinct sub-seeds and start phases. Bursty (correlated)
// workloads share one burst schedule across units, because a
// kernel-level phase hits all SMs at once: the schedule is built once,
// copied per unit with only slight amplitude variation, and every unit
// starts at phase 0. Nothing modifies the traces afterwards, so
// concurrent engines may share them.
func (b Benchmark) Units(seed int64, nUnits int, fmax float64) []Unit {
	if b.build == nil {
		panic(fmt.Sprintf("workload: benchmark %q has no builder", b.Name))
	}
	if nUnits <= 0 {
		panic(fmt.Sprintf("workload: %d units", nUnits))
	}
	// One generator, reseeded per stream. lagSource is math/rand's
	// generator seeded lazily: a stream derives only the register words
	// its draws read.
	rng := rand.New(&lagSource{})
	seeded := func(s int64) *rand.Rand {
		rng.Seed(s)
		return rng
	}
	units := make([]Unit, nUnits)
	if b.correlated {
		base := b.build(seeded(mixSeed(seed, b.Name, 0)), fmax)
		if nUnits == 1 {
			units[0] = Unit{Trace: base}
			return units
		}
		for i := range units {
			// Per-unit amplitude variation without disturbing timing.
			scale := 1 + 0.03*(2*seeded(mixSeed(seed, b.Name+"/amp", i)).Float64()-1)
			t := &Trace{Name: base.Name, Phases: make([]Phase, len(base.Phases))}
			for j, p := range base.Phases {
				a := p.Activity * scale
				if a > 1 {
					a = 1
				}
				if a < 0.02 {
					a = 0.02
				}
				p.Activity = a
				t.Phases[j] = p
			}
			units[i] = Unit{Trace: t}
		}
		return units
	}
	for i := range units {
		t := b.build(seeded(mixSeed(seed, b.Name, i)), fmax)
		start := 0
		if len(t.Phases) > 1 {
			start = seeded(mixSeed(seed, b.Name+"/start", i)).Intn(len(t.Phases))
		}
		units[i] = Unit{Trace: t, Start: start}
	}
	return units
}

// Key identifies the benchmark's definition: benchmarks with equal keys
// build equal units from equal arguments. A custom benchmark's key
// covers its whole spec, so it never matches a built-in of the same
// name, nor another spec that reuses its name.
func (b Benchmark) Key() string {
	if b.custom != "" {
		return "custom/" + b.custom
	}
	return "builtin/" + b.Name
}

// mixSeed derives a stable sub-seed from (seed, label, unit): the
// FNV-1a hash of "seed|label|unit" in decimal.
func mixSeed(seed int64, label string, unit int) int64 {
	var buf [64]byte
	b := strconv.AppendInt(buf[:0], seed, 10)
	b = append(b, '|')
	b = append(b, label...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(unit), 10)
	h := fnv.New64a()
	h.Write(b)
	v := int64(h.Sum64())
	if v == 0 {
		v = 1
	}
	return v
}

// The CPU benchmark subset (paper §4.2): "blackscholes, fluidanimate,
// ferret and swaptions. This subset captures a wide variety of power
// behavior on the CPU."
var cpuBenchmarks = []Benchmark{
	{
		Name: "blackscholes", Suite: "PARSEC", Class: ClassLow, On: TargetCPU,
		build: func(rng *rand.Rand, fmax float64) *Trace {
			return SteadyTrace("blackscholes", rng, fmax, 24, 100*sim.Microsecond,
				profile{ipc: 1.4, memFrac: 0.15, activity: 0.48, stallAct: 0.10}, 0.08)
		},
	},
	{
		Name: "fluidanimate", Suite: "PARSEC", Class: ClassHi, On: TargetCPU,
		correlated: true, // parallel phases hit all cores together
		build: func(rng *rand.Rand, fmax float64) *Trace {
			return WaveTrace("fluidanimate", rng, fmax, 16, 320*sim.Microsecond,
				profile{ipc: 1.6, memFrac: 0.20, activity: 0.75, stallAct: 0.12}, 0.55, 0.88)
		},
	},
	{
		Name: "swaptions", Suite: "PARSEC", Class: ClassMid, On: TargetCPU,
		build: func(rng *rand.Rand, fmax float64) *Trace {
			return SteadyTrace("swaptions", rng, fmax, 24, 120*sim.Microsecond,
				profile{ipc: 1.8, memFrac: 0.08, activity: 0.62, stallAct: 0.10}, 0.04)
		},
	},
	{
		Name: "ferret", Suite: "PARSEC", Class: ClassBurst, On: TargetCPU,
		correlated: true,
		build: func(rng *rand.Rand, fmax float64) *Trace {
			return BurstTrace("ferret", rng, fmax, 10,
				240*sim.Microsecond, 60*sim.Microsecond,
				profile{ipc: 0.9, memFrac: 0.75, activity: 0.26, stallAct: 0.10},
				profile{ipc: 2.0, memFrac: 0.03, activity: 0.84, stallAct: 0.10},
				0.25)
		},
	},
}

// The GPU benchmark subset (paper §4.3): "backprop, bfs, myocyte and
// sradv2. These benchmarks capture a range of power characteristics."
var gpuBenchmarks = []Benchmark{
	{
		Name: "myocyte", Suite: "Rodinia", Class: ClassLow, On: TargetGPU,
		build: func(rng *rand.Rand, fmax float64) *Trace {
			return SteadyTrace("myocyte", rng, fmax, 24, 110*sim.Microsecond,
				profile{ipc: 0.5, memFrac: 0.30, activity: 0.42, stallAct: 0.10}, 0.10)
		},
	},
	{
		Name: "backprop", Suite: "Rodinia", Class: ClassHi, On: TargetGPU,
		correlated: true, // kernel phases hit all SMs together
		build: func(rng *rand.Rand, fmax float64) *Trace {
			return WaveTrace("backprop", rng, fmax, 13, 260*sim.Microsecond,
				profile{ipc: 1.7, memFrac: 0.25, activity: 0.78, stallAct: 0.14}, 0.64, 0.88)
		},
	},
	{
		Name: "sradv2", Suite: "Rodinia", Class: ClassMid, On: TargetGPU,
		correlated: true, // kernel phases hit all SMs together
		build: func(rng *rand.Rand, fmax float64) *Trace {
			return WaveTrace("sradv2", rng, fmax, 12, 240*sim.Microsecond,
				profile{ipc: 1.3, memFrac: 0.30, activity: 0.58, stallAct: 0.10}, 0.48, 0.72)
		},
	},
	{
		Name: "bfs", Suite: "Rodinia", Class: ClassBurst, On: TargetGPU,
		correlated: true,
		build: func(rng *rand.Rand, fmax float64) *Trace {
			return BurstTrace("bfs", rng, fmax, 12,
				180*sim.Microsecond, 50*sim.Microsecond,
				profile{ipc: 0.8, memFrac: 0.68, activity: 0.36, stallAct: 0.10},
				profile{ipc: 1.8, memFrac: 0.10, activity: 0.84, stallAct: 0.12},
				0.5)
		},
	},
}

// CPUBenchmarks returns the CPU benchmark subset, sorted by name.
func CPUBenchmarks() []Benchmark { return sortedCopy(cpuBenchmarks) }

// GPUBenchmarks returns the GPU benchmark subset, sorted by name.
func GPUBenchmarks() []Benchmark { return sortedCopy(gpuBenchmarks) }

func sortedCopy(bs []Benchmark) []Benchmark {
	out := make([]Benchmark, len(bs))
	copy(out, bs)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName looks up a benchmark by name across both suites.
func ByName(name string) (Benchmark, error) {
	for _, b := range cpuBenchmarks {
		if b.Name == name {
			return b, nil
		}
	}
	for _, b := range gpuBenchmarks {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// ByClass returns the benchmark of the given class on the given target.
func ByClass(on Target, c Class) (Benchmark, error) {
	src := cpuBenchmarks
	if on == TargetGPU {
		src = gpuBenchmarks
	}
	for _, b := range src {
		if b.Class == c {
			return b, nil
		}
	}
	// Const maps to the Mid (constant-behaviour) benchmark, as in
	// Table 3 where "Const" is swaptions.
	if c == ClassConst {
		return ByClass(on, ClassMid)
	}
	return Benchmark{}, fmt.Errorf("workload: no %s benchmark of class %s", on, c)
}
