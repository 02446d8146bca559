package experiment

import (
	"context"
	"fmt"

	"hcapp/internal/config"
)

// Ablations of the design choices DESIGN.md calls out: the value of the
// level-3 local controllers (CAPP showed a local-controller-less design
// underperforms), the choice of GPU local metric (dynamic IPC vs the
// dynamic-warp/occupancy alternative, §3.3.2), and adaptive clocking vs
// static guardbanding (§3.5).

// AblationLocalControllers compares HCAPP's level-3 designs at the slow
// limit: no local controllers at all (the CAPP-without-local ablation),
// the paper's chosen static-IPC + dynamic-IPC pair, and the GPU-CAPP
// dynamic-occupancy alternative. Values are Eq. 3 total speedups over
// the fixed-voltage baseline.
func (ev *Evaluator) AblationLocalControllers() (*Matrix, error) {
	limit := config.OffPackageVRLimit()
	variants := []struct {
		name   string
		mutate func(*BuildOptions)
	}{
		{"no local controllers", func(o *BuildOptions) { o.DisableLocalControl = true }},
		{"dynamic IPC (paper)", nil},
		{"dynamic occupancy", func(o *BuildOptions) { o.GPUController = "dynamic-occupancy" }},
	}
	rows := make([]string, len(variants))
	for i, v := range variants {
		rows[i] = v.name
	}
	m := NewMatrix("Ablation: level-3 local controller designs (speedup vs fixed, 1 ms limit)", "total speedup", rows, comboNames())

	mutations := make([]func(*BuildOptions), len(variants))
	for i, v := range variants {
		mutations[i] = v.mutate
	}
	results, err := ev.variantBatch(limit, mutations)
	if err != nil {
		return nil, err
	}
	perCombo := 1 + len(variants)
	for ci, combo := range Suite() {
		base := results[ci*perCombo]
		for vi, v := range variants {
			_, total := results[ci*perCombo+1+vi].SpeedupOver(base)
			m.Set(v.name, combo.Name, total)
		}
	}
	return m, nil
}

// variantBatch runs, for every suite combo, the fixed-voltage baseline
// plus one HCAPP run per build-option mutation, fanned over the runner
// and returned in (combo-major, base-first) order.
func (ev *Evaluator) variantBatch(limit config.PowerLimit, mutations []func(*BuildOptions)) ([]RunResult, error) {
	suite := Suite()
	perCombo := 1 + len(mutations)
	results := make([]RunResult, perCombo*len(suite))
	err := ev.runner.Tasks(context.Background(), len(results), func(ctx context.Context, i int) (err error) {
		combo := suite[i/perCombo]
		if pi := i % perCombo; pi == 0 {
			results[i], err = ev.RunContext(ctx, RunSpec{Combo: combo, Scheme: ev.FixedScheme(), Limit: limit})
		} else {
			results[i], err = ev.runVariant(ctx, hcappSpec(combo, limit), mutations[pi-1])
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// AblationClocking compares the §3.5 timing-safety mechanisms: adaptive
// clocking (frequency tracks delivered voltage) versus static voltage
// guardbands of 25 mV and 50 mV. Values are Eq. 3 total speedups over
// the fixed-voltage baseline at the fast limit — the guardband's
// performance tax made visible.
func (ev *Evaluator) AblationClocking() (*Matrix, error) {
	limit := config.PackagePinLimit()
	variants := []struct {
		name   string
		margin float64
	}{
		{"adaptive clocking", 0},
		{"guardband 25 mV", 0.025},
		{"guardband 50 mV", 0.050},
	}
	rows := make([]string, len(variants))
	for i, v := range variants {
		rows[i] = v.name
	}
	m := NewMatrix("Ablation: adaptive clocking vs voltage guardband (speedup vs fixed, 20 us limit)", "total speedup", rows, comboNames())

	mutations := make([]func(*BuildOptions), len(variants))
	for i, v := range variants {
		margin := v.margin
		mutations[i] = func(o *BuildOptions) { o.VoltageMargin = margin }
	}
	results, err := ev.variantBatch(limit, mutations)
	if err != nil {
		return nil, err
	}
	perCombo := 1 + len(variants)
	for ci, combo := range Suite() {
		base := results[ci*perCombo]
		for vi, v := range variants {
			_, total := results[ci*perCombo+1+vi].SpeedupOver(base)
			m.Set(v.name, combo.Name, total)
		}
	}
	return m, nil
}

// ThermalCheck runs the hottest combo under HCAPP with thermal nodes
// attached and reports the peak junction temperature — verifying the
// paper's §3.5 assumption ("the power constraint is lower than the TDP
// so temperature effects are not modeled") holds on this system.
// It runs as a one-task batch on the evaluator's runner.
func (ev *Evaluator) ThermalCheck() (peakCPU, peakGPU float64, tripped bool, err error) {
	err = ev.runner.Tasks(context.Background(), 1, func(ctx context.Context, _ int) (err error) {
		peakCPU, peakGPU, tripped, err = ev.thermalCheck(ctx)
		return err
	})
	return peakCPU, peakGPU, tripped, err
}

func (ev *Evaluator) thermalCheck(ctx context.Context) (peakCPU, peakGPU float64, tripped bool, err error) {
	combo, err := ComboByName("Hi-Hi")
	if err != nil {
		return 0, 0, false, err
	}
	sys, run, err := ev.BuildSized(hcappSpec(combo, config.OffPackageVRLimit()), func(o *BuildOptions) { o.EnableThermal = true })
	if err != nil {
		return 0, 0, false, err
	}
	if _, err := run(ctx); err != nil {
		return 0, 0, false, err
	}
	return sys.CPU.PeakTemp(), sys.GPU.PeakTemp(),
		sys.CPU.ThermalTripped() || sys.GPU.ThermalTripped(), nil
}

// RenderThermalCheck formats the thermal verification.
func (ev *Evaluator) RenderThermalCheck() (string, error) {
	cpu, gpu, tripped, err := ev.ThermalCheck()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf(
		"Thermal check (Hi-Hi under HCAPP, default RC nodes): peak CPU %.1f °C, peak GPU %.1f °C, protection tripped: %v\n",
		cpu, gpu, tripped), nil
}
