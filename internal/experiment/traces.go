package experiment

import (
	"fmt"
	"sync"

	"hcapp/internal/config"
	"hcapp/internal/power"
	"hcapp/internal/workload"
)

// traceSets is a single-flight cache of chiplet trace sets: every
// unit's workload for one benchmark definition, seed, unit count and
// fmax. The sets are immutable once built, so any number of concurrent
// builds may share them. An Evaluator keeps one for its lifetime;
// assemble makes a fresh one per build when none is passed in. The zero
// value is ready to use.
type traceSets struct {
	mu   sync.Mutex
	sets map[traceKey]*traceSet

	// probe, when non-nil, is called once per generated set — the test
	// hook the build-once contract is asserted through.
	probe func(traceKey)
}

// traceKey names a set by the benchmark's definition (Benchmark.Key),
// not its name: a custom benchmark may reuse a built-in's name.
type traceKey struct {
	bench string
	seed  int64
	units int
	fmax  float64
}

// traceSet is one set, being built until done closes.
type traceSet struct {
	done  chan struct{}
	units []workload.Unit
}

// units returns the set for b, generating it on first use; concurrent
// callers for one key share a single generation.
func (c *traceSets) units(b workload.Benchmark, seed int64, n int, fmax float64) []workload.Unit {
	key := traceKey{bench: b.Key(), seed: seed, units: n, fmax: fmax}
	c.mu.Lock()
	if s, ok := c.sets[key]; ok {
		c.mu.Unlock()
		<-s.done
		return s.units
	}
	if c.sets == nil {
		c.sets = make(map[traceKey]*traceSet)
	}
	s := &traceSet{done: make(chan struct{})}
	c.sets[key] = s
	probe := c.probe
	c.mu.Unlock()

	defer close(s.done)
	if probe != nil {
		probe(key)
	}
	s.units = b.Units(seed, n, fmax)
	return s.units
}

// chiplet returns the trace set of a cpu or gpu chiplet running b under
// cfg, with the DVFS envelope its units clock by.
func (c *traceSets) chiplet(cfg config.SystemConfig, kind string, b workload.Benchmark, seed int64) ([]workload.Unit, power.DVFS, error) {
	var n int
	var dvfs power.DVFS
	var on workload.Target
	switch kind {
	case "cpu":
		n, dvfs, on = cfg.CPU.Cores, cfg.CPU.Core.DVFS, workload.TargetCPU
	case "gpu":
		n, dvfs, on = cfg.GPU.SMs, cfg.GPU.SM.DVFS, workload.TargetGPU
	default:
		return nil, power.DVFS{}, fmt.Errorf("experiment: %q chiplets run no benchmark", kind)
	}
	if b.On != on {
		return nil, power.DVFS{}, fmt.Errorf("experiment: benchmark %q targets %s, not %s", b.Name, b.On, on)
	}
	return c.units(b, seed, n, dvfs.FMax), dvfs, nil
}

// avgIPS is the aggregate steady-state instruction rate of units at a
// constant local voltage v, ratios at 1.0: Chiplet.AvgIPSAt, summed in
// the same unit order, before any chiplet exists.
func avgIPS(units []workload.Unit, dvfs power.DVFS, v float64) float64 {
	f := dvfs.Freq(v)
	sum := 0.0
	for _, u := range units {
		sum += u.Trace.AvgIPS(f, dvfs.FMax)
	}
	return sum
}
