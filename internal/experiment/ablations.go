package experiment

import (
	"context"
	"fmt"

	"hcapp/internal/config"
	"hcapp/internal/sim"
)

// Ablations of the design choices DESIGN.md calls out: the value of the
// level-3 local controllers (CAPP showed a local-controller-less design
// underperforms), the choice of GPU local metric (dynamic IPC vs the
// dynamic-warp/occupancy alternative, §3.3.2), and adaptive clocking vs
// static guardbanding (§3.5).

// runVariant executes one combo under HCAPP with arbitrary build-option
// mutations and returns the result (uncached).
func (ev *Evaluator) runVariant(combo Combo, limit config.PowerLimit, mutate func(*BuildOptions)) (RunResult, error) {
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		return RunResult{}, err
	}
	sizing, err := ev.sizingFor(combo)
	if err != nil {
		return RunResult{}, err
	}
	opts := BuildOptions{
		Scheme:      hcapp,
		TargetPower: TargetPowerFor(limit),
		CPUWork:     sizing.CPUWork,
		GPUWork:     sizing.GPUWork,
		AccelWorkGB: sizing.AccelGB,
	}
	if mutate != nil {
		mutate(&opts)
	}
	sys, err := Build(ev.Cfg, combo, opts)
	if err != nil {
		return RunResult{}, err
	}
	res := sys.Engine.Run(sim.Time(float64(ev.TargetDur) * ev.MaxDurFactor))
	return newRunResult(RunSpec{Combo: combo, Scheme: hcapp, Limit: limit}, sys.Engine.Recorder(), res), nil
}

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
	err := ev.runner.Tasks(context.Background(), len(results), func(ctx context.Context, i int) error {
		combo := suite[i/perCombo]
		var (
			r    RunResult
			rerr error
		)
		if pi := i % perCombo; pi == 0 {
			r, rerr = ev.RunContext(ctx, RunSpec{Combo: combo, Scheme: ev.FixedScheme(), Limit: limit})
		} else {
			r, rerr = ev.runVariant(combo, limit, mutations[pi-1])
		}
		if rerr != nil {
			return rerr
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		results[i] = r
		return nil
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
func (ev *Evaluator) ThermalCheck() (peakCPU, peakGPU float64, tripped bool, err error) {
	combo, err := ComboByName("Hi-Hi")
	if err != nil {
		return 0, 0, false, err
	}
	sizing, err := ev.sizingFor(combo)
	if err != nil {
		return 0, 0, false, err
	}
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		return 0, 0, false, err
	}
	sys, err := Build(ev.Cfg, combo, BuildOptions{
		Scheme:        hcapp,
		TargetPower:   TargetPowerFor(config.OffPackageVRLimit()),
		CPUWork:       sizing.CPUWork,
		GPUWork:       sizing.GPUWork,
		AccelWorkGB:   sizing.AccelGB,
		EnableThermal: true,
	})
	if err != nil {
		return 0, 0, false, err
	}
	sys.Engine.Run(sim.Time(float64(ev.TargetDur) * ev.MaxDurFactor))
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
