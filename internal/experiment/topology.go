package experiment

import (
	"fmt"

	"hcapp/internal/config"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
	"hcapp/internal/workload"
)

// ChipletSpec describes one chiplet of a custom package topology —
// the "variety of 2.5D designs as different types of accelerators are
// added or replaced" (§1) that HCAPP is built to absorb without
// retuning.
type ChipletSpec struct {
	// Kind selects the chiplet model: "cpu", "gpu", "sha" or "mem".
	Kind string
	// Name is the unique domain/component name (defaults to Kind when
	// the topology has only one chiplet of that kind).
	Name string
	// Benchmark runs on cpu/gpu chiplets. Custom benchmarks from
	// workload.ParseBenchmarks work here too.
	Benchmark workload.Benchmark
	// WorkScale multiplies the auto-sized work pool (0 → 1.0).
	WorkScale float64
	// Watts is the constant draw for "mem" chiplets (0 → config value).
	Watts float64
	// Seed overrides the config seed for this chiplet (0 → config).
	Seed int64
}

// Topology is a custom package: any mix of chiplets under one global
// rail and one HCAPP global controller.
type Topology struct {
	Chiplets []ChipletSpec
	// SizingDur sizes each compute chiplet's work pool so it runs for
	// roughly this long at the fixed 0.95 V point (0 → run forever).
	SizingDur sim.Time
}

// BuildTopology assembles a custom package through the same assembler
// as Build, so every BuildOptions control applies to it and its
// recorder keeps the same windows; Priorities are keyed by chiplet
// name. The paper package's work pools (CPUWork, GPUWork, AccelWorkGB)
// must be zero: Topology.SizingDur and each ChipletSpec.WorkScale size
// a topology.
func BuildTopology(cfg config.SystemConfig, topo Topology, opts BuildOptions) (*sched.Engine, error) {
	if opts.CPUWork != 0 || opts.GPUWork != 0 || opts.AccelWorkGB != 0 {
		return nil, fmt.Errorf("experiment: a topology sizes its work with SizingDur and WorkScale, not CPUWork/GPUWork/AccelWorkGB")
	}
	sys, err := assemble(cfg, topo, opts, paperWindows)
	if err != nil {
		return nil, err
	}
	return sys.Engine, nil
}
