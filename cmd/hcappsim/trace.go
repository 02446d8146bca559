package main

import (
	"fmt"
	"io"
	"os"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/export"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
)

// fig2Windows are the Figure 2 averaging windows, narrowest first. A
// trace shorter than the widest one completes no row: check rejects it.
var fig2Windows = []sim.Time{20 * sim.Microsecond, 1 * sim.Millisecond, 10 * sim.Millisecond}

// runTrace is "hcappsim trace": it dumps power traces as CSV — the
// Figure 1 static trace (normalized to average power) and the Figure 2
// multi-window view, plus per-component traces and controlled-run
// traces for inspecting HCAPP behaviour.
func runTrace(o *options) error {
	ev := experiment.NewEvaluator().WithTargetDur(durOf(o.dur))
	combo := o.comboSpec
	sample := sim.Time(o.sample * float64(sim.Microsecond))
	spec := experiment.RunSpec{Combo: combo, Scheme: ev.FixedScheme(), Limit: config.PackagePinLimit()}
	if o.scheme != string(config.FixedVoltage) {
		spec.Scheme, _ = config.SchemeByKind(config.SchemeKind(o.scheme)) // check validated it
	}

	switch o.fig {
	case 1:
		eng, err := tracedEngine(ev, spec)
		if err != nil {
			return err
		}
		eng.RunFor(ev.TargetDur)
		rec := eng.Recorder()
		avg := rec.AvgPower()
		fmt.Printf("# combo=%s scheme=%s avg_power_w=%.2f\n", combo.Name, o.scheme, avg)
		fmt.Println("time_us,power_normalized")
		for _, p := range trace.Normalize(rec.Series(sample), avg) {
			fmt.Printf("%.1f,%.4f\n", float64(p.T)/float64(sim.Microsecond), p.P)
		}
	case 2:
		windows := fig2Windows
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
		return voltageTrace(os.Stdout, ev, spec, sample)
	}
	return nil
}

// tracedEngine builds spec's sized system. Callers run it for exactly
// the evaluator's TargetDur, idle tails included, as in Fig. 1.
func tracedEngine(ev *experiment.Evaluator, spec experiment.RunSpec) (*sched.Engine, error) {
	sys, _, err := ev.BuildSized(spec, nil)
	if err != nil {
		return nil, err
	}
	return sys.Engine, nil
}

// voltageTrace runs one combo with a per-component sampler attached
// and writes aligned power/voltage CSV columns to w — the view of the
// controller at work.
func voltageTrace(w io.Writer, ev *experiment.Evaluator, spec experiment.RunSpec, sample sim.Time) error {
	eng, err := tracedEngine(ev, spec)
	if err != nil {
		return err
	}
	s := sched.NewSampler(eng, sample)
	s.Grow(int(ev.TargetDur / sample))
	eng.SetObserver(s)
	eng.RunFor(ev.TargetDur)
	cpuW, gpuW, shaW := s.Power("cpu"), s.Power("gpu"), s.Power("sha")
	names := []string{"total_w", "cpu_w", "gpu_w", "sha_w", "rail_v", "vcpu_v", "vgpu_v",
		"ecpu_j", "egpu_j", "esha_j"}
	series := [][]trace.Point{
		eng.Recorder().Series(sample),
		cpuW,
		gpuW,
		shaW,
		s.Rail(),
		s.Voltage("cpu"),
		s.Voltage("gpu"),
		cumulativeEnergy(cpuW, sample),
		cumulativeEnergy(gpuW, sample),
		cumulativeEnergy(shaW, sample),
	}
	fmt.Fprintf(w, "# combo=%s scheme=%s\n", spec.Combo.Name, spec.Scheme.Kind)
	return export.WriteSeriesCSV(w, names, series...)
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
