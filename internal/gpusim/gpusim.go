// Package gpusim assembles the GPU chiplet of the target system: fifteen
// GTX480-class streaming multiprocessors (paper Table 2) running Rodinia
// workload proxies, each with a GPU-CAPP dynamic-IPC local controller
// whose thresholds adapt to steer the domain voltage toward its target
// (§3.3.2, §4.3). It stands in for the paper's GPGPU-Sim + GPUWattch
// stack.
package gpusim

import (
	"fmt"

	"hcapp/internal/chiplet"
	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/sim"
	"hcapp/internal/thermal"
	"hcapp/internal/workload"
)

// Options selects the workload and control features of a GPU instance.
type Options struct {
	// Name is the component name ("" → "gpu"); a package with several
	// GPU chiplets gives each its own.
	Name string
	// Benchmark is the Rodinia proxy every SM executes.
	Benchmark workload.Benchmark
	// Units is the benchmark's workload for each SM, from
	// Benchmark.Units; the chiplet reads the traces and never modifies
	// them, so several chiplets may share one set.
	Units []workload.Unit
	// LocalControl enables the per-SM dynamic-IPC controllers.
	LocalControl bool
	// TotalWork is the instruction budget; zero means run forever.
	TotalWork float64
	// Controller selects the GPU-CAPP local controller design:
	// "dynamic-ipc" (default, the paper's choice) or
	// "dynamic-occupancy" (the dynamic warp alternative).
	Controller string
	// Thermal optionally attaches a junction thermal node.
	Thermal *thermal.Config
	// VoltageMargin selects guardbanded clocking (§3.5).
	VoltageMargin float64
}

// New builds the GPU chiplet from the Table 2 configuration.
func New(cfg config.GPUConfig, localEpoch sim.Time, opts Options) (*chiplet.Chiplet, error) {
	if opts.Benchmark.On != workload.TargetGPU {
		return nil, fmt.Errorf("gpusim: benchmark %q targets %s, not GPU", opts.Benchmark.Name, opts.Benchmark.On)
	}
	if len(opts.Units) != cfg.SMs {
		return nil, fmt.Errorf("gpusim: %d unit workloads for %d SMs", len(opts.Units), cfg.SMs)
	}
	units := make([]chiplet.UnitSpec, cfg.SMs)
	for i, w := range opts.Units {
		var lc core.Local
		if opts.LocalControl {
			var c core.Local
			var err error
			switch opts.Controller {
			case "", "dynamic-ipc":
				c, err = core.NewDynamicIPC(
					cfg.MaxIPC, cfg.InitUpperTh, cfg.InitLowTh, 0.05,
					cfg.TargetDomainV, cfg.DeadZone, cfg.ThresholdStep,
					core.DefaultRatioRange,
				)
			case "dynamic-occupancy":
				// Occupancy (activity) is bounded by 1.0; the threshold
				// fractions carry over directly.
				c, err = core.NewDynamicOccupancy(
					1.0, cfg.InitUpperTh, cfg.InitLowTh, 0.05,
					cfg.TargetDomainV, cfg.DeadZone, cfg.ThresholdStep,
					core.DefaultRatioRange,
				)
			default:
				return nil, fmt.Errorf("gpusim: unknown controller %q", opts.Controller)
			}
			if err != nil {
				return nil, fmt.Errorf("gpusim: local controller: %w", err)
			}
			lc = c
		}
		units[i] = chiplet.UnitSpec{Trace: w.Trace, StartPhase: w.Start, Local: lc}
	}
	if localEpoch <= 0 {
		localEpoch = 5 * sim.Microsecond
	}
	name := opts.Name
	if name == "" {
		name = "gpu"
	}
	return chiplet.New(chiplet.Config{
		Name:          name,
		Units:         units,
		Model:         cfg.SM,
		LocalEpoch:    localEpoch,
		UncoreLeak:    cfg.UncoreLeak,
		UncoreDyn:     cfg.UncoreDyn,
		TotalWork:     opts.TotalWork,
		Thermal:       opts.Thermal,
		VoltageMargin: opts.VoltageMargin,
	})
}
