package experiment

import (
	"context"
	"fmt"
	"strings"

	"hcapp/internal/config"
	"hcapp/internal/sim"
	"hcapp/internal/vr"
)

// Robustness characterization: what happens to a power-capping system
// when its inputs lie. A controller is only as trustworthy as its
// sensor, so a credible release must state the failure modes, not just
// the happy path.

// FaultScenario is one sensor-defect case.
type FaultScenario struct {
	Name  string
	Fault vr.Fault
}

// DefaultFaultScenarios returns the characterized defect set.
func DefaultFaultScenarios() []FaultScenario {
	return []FaultScenario{
		{Name: "healthy", Fault: vr.Fault{}},
		{Name: "optimistic -10%", Fault: vr.Fault{Gain: 0.90}},
		{Name: "optimistic -25%", Fault: vr.Fault{Gain: 0.75}},
		{Name: "pessimistic +10%", Fault: vr.Fault{Gain: 1.10}},
		{Name: "stuck at target", Fault: vr.Fault{StuckAt: 0, StuckEnabled: true}}, // StuckAt set per run
	}
}

// FaultResult is one scenario's outcome.
type FaultResult struct {
	Scenario FaultScenario
	// MaxOverLimit is the true max window power over the limit.
	MaxOverLimit float64
	Violated     bool
	PPE          float64
}

// RunFaultInjection runs one combo under HCAPP at the fast limit with
// each sensor defect and reports the true (fault-free) power metrics.
func (ev *Evaluator) RunFaultInjection(combo Combo) ([]FaultResult, error) {
	limit := config.PackagePinLimit()
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		return nil, err
	}
	sizing, err := ev.sizingFor(combo)
	if err != nil {
		return nil, err
	}
	target := TargetPowerFor(limit)

	scenarios := DefaultFaultScenarios()
	out := make([]FaultResult, len(scenarios))
	err = ev.runner.Tasks(context.Background(), len(scenarios), func(ctx context.Context, i int) error {
		sc := scenarios[i]
		fault := sc.Fault
		if fault.StuckEnabled && fault.StuckAt == 0 {
			// "Stuck at target": the worst plausible silent failure —
			// the controller believes it is exactly on target forever.
			fault.StuckAt = target
		}
		sys, err := Build(ev.Cfg, combo, BuildOptions{
			Scheme:      hcapp,
			TargetPower: target,
			CPUWork:     sizing.CPUWork,
			GPUWork:     sizing.GPUWork,
			AccelWorkGB: sizing.AccelGB,
		})
		if err != nil {
			return err
		}
		sys.Engine.Sensor().InjectFault(fault)
		sys.Engine.RunWithCancel(sim.Time(float64(ev.TargetDur)*ev.MaxDurFactor), func() bool { return ctx.Err() != nil })
		if err := ctx.Err(); err != nil {
			return err
		}
		rec := sys.Engine.Recorder()
		maxOver := rec.MaxWindowAvg(limit.Window) / limit.Watts
		out[i] = FaultResult{
			Scenario:     sc,
			MaxOverLimit: maxOver,
			Violated:     maxOver > 1,
			PPE:          rec.PPE(limit.Watts),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderFaultInjection formats the characterization.
func RenderFaultInjection(combo Combo, results []FaultResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sensor fault injection (%s, HCAPP, package-pin limit)\n", combo.Name)
	fmt.Fprintf(&sb, "%-18s %12s %10s %8s\n", "scenario", "max/limit", "violated", "PPE")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-18s %12.3f %10v %8.3f\n",
			r.Scenario.Name, r.MaxOverLimit, r.Violated, r.PPE)
	}
	return sb.String()
}

// AblationVREfficiency quantifies the sensitivity of the headline
// metrics to global-VR conversion losses, which the paper (and the
// default configuration) treats as lossless: the loss eats guardband,
// so an integrator deploying a real 90 %-efficient regulator must
// re-derive the power target.
func (ev *Evaluator) AblationVREfficiency() (*Matrix, error) {
	limit := config.PackagePinLimit()
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		return nil, err
	}
	effs := []struct {
		name string
		eff  float64
	}{
		{"lossless (paper)", 0},
		{"95% efficient", 0.95},
		{"90% efficient", 0.90},
	}
	rows := make([]string, len(effs))
	for i, e := range effs {
		rows[i] = e.name
	}
	m := NewMatrix("Ablation: global VR conversion efficiency (max power / limit, 20 us limit)", "max/limit", rows, comboNames())

	// Flat (combo, efficiency) cell batch over the runner; cells land by
	// index and the matrix is filled sequentially afterwards.
	suite := Suite()
	cells := make([]float64, len(suite)*len(effs))
	err = ev.runner.Tasks(context.Background(), len(cells), func(ctx context.Context, i int) error {
		combo, e := suite[i/len(effs)], effs[i%len(effs)]
		sizing, err := ev.sizingFor(combo)
		if err != nil {
			return err
		}
		cfg := ev.Cfg
		cfg.GlobalVR.Efficiency = e.eff
		sys, err := Build(cfg, combo, BuildOptions{
			Scheme:      hcapp,
			TargetPower: TargetPowerFor(limit),
			CPUWork:     sizing.CPUWork,
			GPUWork:     sizing.GPUWork,
			AccelWorkGB: sizing.AccelGB,
		})
		if err != nil {
			return err
		}
		sys.Engine.RunWithCancel(sim.Time(float64(ev.TargetDur)*ev.MaxDurFactor), func() bool { return ctx.Err() != nil })
		if err := ctx.Err(); err != nil {
			return err
		}
		cells[i] = sys.Engine.Recorder().MaxWindowAvg(limit.Window) / limit.Watts
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, v := range cells {
		m.Set(effs[i%len(effs)].name, suite[i/len(effs)].Name, v)
	}
	return m, nil
}
