package main

import (
	"fmt"
	"os"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/export"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
)

// runTrace is "hcappsim trace": it dumps power traces as CSV — the
// Figure 1 static trace (normalized to average power) and the Figure 2
// multi-window view, plus per-component traces and controlled-run
// traces for inspecting HCAPP behaviour.
func runTrace(o *options) error {
	ev := experiment.NewEvaluator().WithTargetDur(durOf(o.dur))
	combo := o.comboSpec
	sample := sim.Time(o.sample * float64(sim.Microsecond))
	scheme, target := ev.FixedScheme(), 0.0
	if o.scheme != string(config.FixedVoltage) {
		scheme, _ = config.SchemeByKind(config.SchemeKind(o.scheme)) // check validated it
		target = experiment.TargetPowerFor(config.PackagePinLimit())
	}

	switch o.fig {
	case 1:
		pts, avg, err := traceFor(ev, combo, scheme, target, sample)
		if err != nil {
			return err
		}
		fmt.Printf("# combo=%s scheme=%s avg_power_w=%.2f\n", combo.Name, o.scheme, avg)
		fmt.Println("time_us,power_normalized")
		for _, p := range pts {
			fmt.Printf("%.1f,%.4f\n", float64(p.T)/float64(sim.Microsecond), p.P)
		}
	case 2:
		windows := []sim.Time{20 * sim.Microsecond, 1 * sim.Millisecond, 10 * sim.Millisecond}
		series, avg, err := ev.Fig2(combo, windows, sample)
		if err != nil {
			return err
		}
		fmt.Printf("# combo=%s avg_power_w=%.2f\n", combo.Name, avg)
		fmt.Println("time_us,win20us,win1ms,win10ms")
		n := len(series[windows[0]])
		for _, w := range windows[1:] {
			if len(series[w]) < n {
				n = len(series[w])
			}
		}
		for i := 0; i < n; i++ {
			fmt.Printf("%.1f,%.4f,%.4f,%.4f\n",
				float64(series[windows[0]][i].T)/float64(sim.Microsecond),
				series[windows[0]][i].P, series[windows[1]][i].P, series[windows[2]][i].P)
		}
	case 3:
		return voltageTrace(ev, combo, scheme, target, sample)
	}
	return nil
}

// buildSized builds one combo with its work sized to the evaluator's
// horizon, for the tools that drive an engine directly instead of
// through Evaluator.Run.
func buildSized(ev *experiment.Evaluator, combo experiment.Combo, scheme config.Scheme, target float64, track bool) (*experiment.System, error) {
	sizing, err := experiment.SizeWork(ev.Cfg, combo, ev.FixedV, ev.TargetDur)
	if err != nil {
		return nil, err
	}
	return experiment.Build(ev.Cfg, combo, experiment.BuildOptions{
		Scheme:          scheme,
		TargetPower:     target,
		CPUWork:         sizing.CPUWork,
		GPUWork:         sizing.GPUWork,
		AccelWorkGB:     sizing.AccelGB,
		TrackComponents: track,
	})
}

// voltageTrace runs one combo with component and voltage tracking and
// emits aligned power/voltage CSV columns — the view of the controller
// at work.
func voltageTrace(ev *experiment.Evaluator, combo experiment.Combo, scheme config.Scheme, target float64, sample sim.Time) error {
	sys, err := buildSized(ev, combo, scheme, target, true)
	if err != nil {
		return err
	}
	sys.Engine.RunFor(ev.TargetDur)
	rec := sys.Engine.Recorder()
	cpuW := rec.ComponentSeries("cpu", sample)
	gpuW := rec.ComponentSeries("gpu", sample)
	shaW := rec.ComponentSeries("sha", sample)
	names := []string{"total_w", "cpu_w", "gpu_w", "sha_w", "rail_v", "vcpu_v", "vgpu_v",
		"ecpu_j", "egpu_j", "esha_j"}
	series := [][]trace.Point{
		rec.Series(sample),
		cpuW,
		gpuW,
		shaW,
		rec.ComponentSeries("voltage:rail", sample),
		rec.ComponentSeries("voltage:cpu", sample),
		rec.ComponentSeries("voltage:gpu", sample),
		cumulativeEnergy(cpuW, sample),
		cumulativeEnergy(gpuW, sample),
		cumulativeEnergy(shaW, sample),
	}
	fmt.Printf("# combo=%s scheme=%s\n", combo.Name, scheme.Kind)
	return export.WriteSeriesCSV(os.Stdout, names, series...)
}

// cumulativeEnergy integrates a sampled per-domain power series into a
// running joule column (rectangle rule at the sample spacing) — the
// trace-side counterpart of the internal/energy ledger, so a trace and
// the ledger's chargeback numbers can be eyeballed against each other.
func cumulativeEnergy(pts []trace.Point, sample sim.Time) []trace.Point {
	sec := sim.Seconds(sample)
	out := make([]trace.Point, len(pts))
	acc := 0.0
	for i, p := range pts {
		acc += p.P * sec
		out[i] = trace.Point{T: p.T, P: acc}
	}
	return out
}

// traceFor runs one combo under the scheme and returns its normalized
// trace.
func traceFor(ev *experiment.Evaluator, combo experiment.Combo, scheme config.Scheme, target float64, sample sim.Time) ([]trace.Point, float64, error) {
	if scheme.Kind == config.FixedVoltage {
		return ev.Fig1(combo, sample)
	}
	sys, err := buildSized(ev, combo, scheme, target, false)
	if err != nil {
		return nil, 0, err
	}
	sys.Engine.RunFor(ev.TargetDur)
	rec := sys.Engine.Recorder()
	avg := rec.AvgPower()
	raw := rec.Series(sample)
	out := make([]trace.Point, len(raw))
	for i, p := range raw {
		out[i] = trace.Point{T: p.T, P: p.P / avg}
	}
	return out, avg, nil
}
