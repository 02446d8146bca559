// Package cpusim assembles the CPU chiplet of the target system: eight
// Nehalem-class cores (paper Table 2) running PARSEC workload proxies,
// each with a CAPP static-IPC local controller (§3.3.1, §4.2). It stands
// in for the paper's Sniper + McPAT stack.
package cpusim

import (
	"fmt"

	"hcapp/internal/chiplet"
	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/sim"
	"hcapp/internal/thermal"
	"hcapp/internal/workload"
)

// Options selects the workload and control features of a CPU instance.
type Options struct {
	// Name is the component name ("" → "cpu"); a package with several
	// CPU chiplets gives each its own.
	Name string
	// Benchmark is the PARSEC proxy every core executes.
	Benchmark workload.Benchmark
	// Seed drives trace generation.
	Seed int64
	// LocalControl enables the per-core static-IPC controllers; the
	// fixed-voltage baseline runs without them ("a fixed global voltage
	// system with no local controllers", §4).
	LocalControl bool
	// TotalWork is the instruction budget; zero means run forever.
	TotalWork float64
	// Thermal optionally attaches a junction thermal node (§3.3
	// protection). Nil matches the paper's below-TDP assumption.
	Thermal *thermal.Config
	// VoltageMargin selects guardbanded clocking instead of adaptive
	// clocking (§3.5); zero is adaptive.
	VoltageMargin float64
}

// New builds the CPU chiplet from the Table 2 configuration.
func New(cfg config.CPUConfig, local config.LocalCPUConfig, opts Options) (*chiplet.Chiplet, error) {
	if opts.Benchmark.On != workload.TargetCPU {
		return nil, fmt.Errorf("cpusim: benchmark %q targets %s, not CPU", opts.Benchmark.Name, opts.Benchmark.On)
	}
	units := make([]chiplet.UnitSpec, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		tr := opts.Benchmark.TraceFor(opts.Seed, i, cfg.Cores, cfg.Core.DVFS.FMax)
		var lc core.Local
		if opts.LocalControl {
			rng := core.RatioRange{Min: local.RatioMin, Max: local.RatioMax}
			c, err := core.NewStaticIPC(cfg.MaxIPC, local.UpperFrac, local.LowerFrac, local.Step, rng)
			if err != nil {
				return nil, fmt.Errorf("cpusim: local controller: %w", err)
			}
			lc = c
		}
		units[i] = chiplet.UnitSpec{
			Trace:      tr,
			StartPhase: opts.Benchmark.StartPhase(opts.Seed, i, cfg.Cores, len(tr.Phases)),
			Local:      lc,
		}
	}
	epoch := local.Epoch
	if epoch <= 0 {
		epoch = 5 * sim.Microsecond
	}
	name := opts.Name
	if name == "" {
		name = "cpu"
	}
	return chiplet.New(chiplet.Config{
		Name:          name,
		Units:         units,
		Model:         cfg.Core,
		LocalEpoch:    epoch,
		UncoreLeak:    cfg.UncoreLeak,
		UncoreDyn:     cfg.UncoreDyn,
		TotalWork:     opts.TotalWork,
		Thermal:       opts.Thermal,
		VoltageMargin: opts.VoltageMargin,
	})
}
