package experiment

import (
	"context"
	"fmt"

	"hcapp/internal/config"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
)

func comboNames() []string {
	suite := Suite()
	names := make([]string, len(suite))
	for i, c := range suite {
		names[i] = c.Name
	}
	return names
}

// Fig1 reproduces Figure 1: the power trace of the heterogeneous system
// in a static (fixed-voltage, no control) configuration, normalized to
// the run's average power. The paper uses the all-components-active
// workload; Hi-Hi is the closest suite member. Returns the normalized
// series and the average power in watts.
func (ev *Evaluator) Fig1(combo Combo, sampleEvery sim.Time) ([]trace.Point, float64, error) {
	series, avg, err := ev.Fig2(combo, []sim.Time{sampleEvery}, sampleEvery)
	return series[sampleEvery], avg, err
}

// Fig2 reproduces Figure 2: the same static trace viewed through
// different power-limit time windows. Peaks visible at 20 µs vanish at
// 1 ms and 10 ms — the behaviour firmware/software controllers cannot
// see without guardbanding. Returns one normalized series per window.
//
// The static run is combo on the fixed-voltage rail for exactly
// TargetDur, idle tails included, with a step observer averaging its
// power over each window as it goes. It runs as a one-task batch, so it
// holds one of the runner's slots like every other simulation.
func (ev *Evaluator) Fig2(combo Combo, windows []sim.Time, sampleEvery sim.Time) (out map[sim.Time][]trace.Point, avg float64, err error) {
	err = ev.runner.Tasks(context.Background(), 1, func(context.Context, int) error {
		total := make(sched.TotalSeries, len(windows))
		for i, w := range windows {
			total[i] = trace.NewSeries(ev.Cfg.TimeStep, w, sampleEvery)
		}
		sys, _, err := ev.BuildSized(RunSpec{Combo: combo, Scheme: ev.FixedScheme()}, func(o *BuildOptions) {
			o.Observer = sched.Observers(o.Observer, total)
		})
		if err != nil {
			return err
		}
		sys.Engine.RunFor(ev.TargetDur)
		avg = sys.Engine.Recorder().AvgPower()
		out = make(map[sim.Time][]trace.Point, len(windows))
		for i, w := range windows {
			out[w] = trace.Normalize(total[i].Points(), avg)
		}
		return nil
	})
	return out, avg, err
}

// schemeSuiteSpecs builds the scheme-major spec batch behind the figure
// matrices: every scheme × every suite combo, in deterministic order.
func schemeSuiteSpecs(schemes []config.Scheme, suite []Combo, limit config.PowerLimit) []RunSpec {
	specs := make([]RunSpec, 0, len(schemes)*len(suite))
	for _, s := range schemes {
		for _, c := range suite {
			specs = append(specs, RunSpec{Combo: c, Scheme: s, Limit: limit})
		}
	}
	return specs
}

// maxPowerFigure builds a Fig. 4 / Fig. 7 style matrix: maximum
// window-averaged power relative to the limit, per scheme per combo.
// The whole scheme × combo batch is submitted to the runner at once and
// assembled in spec order.
func (ev *Evaluator) maxPowerFigure(title string, schemes []config.Scheme, limit config.PowerLimit) (*Matrix, error) {
	rows := make([]string, len(schemes))
	for i, s := range schemes {
		rows[i] = s.String()
	}
	suite := Suite()
	m := NewMatrix(title, "max power / limit", rows, comboNames())
	results, err := ev.RunSpecs(context.Background(), schemeSuiteSpecs(schemes, suite, limit))
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		m.Set(schemes[i/len(suite)].String(), suite[i%len(suite)].Name, r.MaxOverLimit)
	}
	return m, nil
}

// speedupFigure builds a Fig. 5 / Fig. 8 style matrix: per-combo Eq. 3
// total speedup of each scheme relative to the fixed-voltage baseline.
// Baseline and scheme runs go out as one batch; a scheme that also
// appears as the baseline dedupes through the single-flight cache.
func (ev *Evaluator) speedupFigure(title string, schemes []config.Scheme, limit config.PowerLimit) (*Matrix, error) {
	rows := make([]string, len(schemes))
	for i, s := range schemes {
		rows[i] = s.String()
	}
	suite := Suite()
	specs := schemeSuiteSpecs(append([]config.Scheme{ev.FixedScheme()}, schemes...), suite, limit)
	m := NewMatrix(title, "speedup vs fixed 0.95 V", rows, comboNames())
	results, err := ev.RunSpecs(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	base := results[:len(suite)]
	for i, r := range results[len(suite):] {
		_, total := r.SpeedupOver(base[i%len(suite)])
		m.Set(schemes[i/len(suite)].String(), suite[i%len(suite)].Name, total)
	}
	return m, nil
}

// ppeFigure builds a Fig. 6 / Fig. 9 style matrix: provisioned power
// efficiency (Eq. 4) per scheme per combo.
func (ev *Evaluator) ppeFigure(title string, schemes []config.Scheme, limit config.PowerLimit) (*Matrix, error) {
	rows := make([]string, len(schemes))
	for i, s := range schemes {
		rows[i] = s.String()
	}
	suite := Suite()
	m := NewMatrix(title, "PPE", rows, comboNames())
	results, err := ev.RunSpecs(context.Background(), schemeSuiteSpecs(schemes, suite, limit))
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		m.Set(schemes[i/len(suite)].String(), suite[i%len(suite)].Name, r.PPE)
	}
	return m, nil
}

func (ev *Evaluator) dynamicSchemes() []config.Scheme {
	var out []config.Scheme
	for _, s := range config.StandardSchemes() {
		if s.Kind != config.FixedVoltage {
			out = append(out, s)
		}
	}
	return out
}

// Fig4 reproduces Figure 4: maximum power relative to the 100 W / 20 µs
// package-pin limit for all four schemes. RAPL-like and SW-like must
// exceed 1.0 (power failure); Fixed and HCAPP must not.
func (ev *Evaluator) Fig4() (*Matrix, error) {
	schemes := append([]config.Scheme{ev.FixedScheme()}, ev.dynamicSchemes()...)
	return ev.maxPowerFigure("Fig 4: Maximum power relative to 100 W, 20 us power limit", schemes, config.PackagePinLimit())
}

// Fig5 reproduces Figure 5: HCAPP speedup relative to the fixed-voltage
// system under the package-pin limit (paper: 21 % average).
func (ev *Evaluator) Fig5() (*Matrix, error) {
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		return nil, err
	}
	return ev.speedupFigure("Fig 5: Speedup of HCAPP relative to fixed voltage (0.95 V), 20 us limit",
		[]config.Scheme{ev.FixedScheme(), hcapp}, config.PackagePinLimit())
}

// Fig6 reproduces Figure 6: PPE of HCAPP and the fixed-voltage system
// under the package-pin limit (paper: 69.1 % → 79.3 %).
func (ev *Evaluator) Fig6() (*Matrix, error) {
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		return nil, err
	}
	return ev.ppeFigure("Fig 6: Provisioned power efficiency, 20 us limit",
		[]config.Scheme{ev.FixedScheme(), hcapp}, config.PackagePinLimit())
}

// Fig7 reproduces Figure 7: maximum power relative to the 100 W / 1 ms
// off-package-VR limit for the three HCAPP variants (RAPL-like narrowly
// exceeds on Const-Burst; SW-like exceeds broadly).
func (ev *Evaluator) Fig7() (*Matrix, error) {
	return ev.maxPowerFigure("Fig 7: Maximum power relative to 100 W, 1 ms power limit",
		ev.dynamicSchemes(), config.OffPackageVRLimit())
}

// Fig8 reproduces Figure 8: speedup of the three HCAPP variants vs fixed
// voltage under the slow limit (paper: HCAPP 43 %, RAPL-like 36 %,
// SW-like small; ferret combos favor RAPL-like).
func (ev *Evaluator) Fig8() (*Matrix, error) {
	return ev.speedupFigure("Fig 8: Speedup vs fixed voltage under 1 ms limit",
		ev.dynamicSchemes(), config.OffPackageVRLimit())
}

// Fig9 reproduces Figure 9: PPE of the three variants under the slow
// limit (paper: 93.9 % / 79.7 % / 69.2 %).
func (ev *Evaluator) Fig9() (*Matrix, error) {
	return ev.ppeFigure("Fig 9: Provisioned power efficiency under 1 ms limit",
		ev.dynamicSchemes(), config.OffPackageVRLimit())
}

// Fig10 reproduces Figure 10: the static-priority software interface
// (§5.3). For each combo and each component, the suite runs once with
// that component prioritized (every other scalable domain de-prioritized
// to 0.9) under HCAPP at the package-pin limit; the value is the
// prioritized component's completion-time speedup over the unprioritized
// HCAPP run. Paper averages: CPU 8.3 %, GPU 5.4 %, SHA 12 %.
func (ev *Evaluator) Fig10() (*Matrix, error) {
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		return nil, err
	}
	limit := config.PackagePinLimit()
	comps := []string{"cpu", "gpu", "sha"}
	rowName := map[string]string{"cpu": "CPU", "gpu": "GPU", "sha": "SHA"}
	m := NewMatrix("Fig 10: Speedup of prioritized component vs unprioritized HCAPP", "speedup", []string{"CPU", "GPU", "SHA"}, comboNames())

	// One batch of (1 base + 3 prioritized) runs per combo, assembled in
	// spec order.
	suite := Suite()
	perCombo := 1 + len(comps)
	specs := make([]RunSpec, 0, perCombo*len(suite))
	for _, combo := range suite {
		specs = append(specs, RunSpec{Combo: combo, Scheme: hcapp, Limit: limit})
		for _, comp := range comps {
			specs = append(specs, RunSpec{Combo: combo, Scheme: hcapp, Limit: limit, Priorities: PriorityFor(comp)})
		}
	}
	results, err := ev.RunSpecs(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	for ci, combo := range suite {
		base := results[ci*perCombo]
		for pi, comp := range comps {
			per, _ := results[ci*perCombo+1+pi].SpeedupOver(base)
			m.Set(rowName[comp], combo.Name, per[comp])
		}
	}
	return m, nil
}

// PriorityFor returns the §5.3 static-priority register settings that
// prioritize one component: the others' scalable domains are
// de-prioritized by 10 % ("when a domain is de-prioritized by 10%, the
// domain voltage controller multiplies the global voltage by 0.9x").
func PriorityFor(component string) map[string]float64 {
	all := []string{"cpu", "gpu", "sha"}
	prio := make(map[string]float64, len(all))
	for _, c := range all {
		if c == component {
			prio[c] = 1.0
		} else {
			prio[c] = 0.9
		}
	}
	return prio
}

// Table1 renders the delay-budget table via internal/psn.
func Table1() string {
	return fmt.Sprintf("Table 1: Breakdown of delays for HCAPP transitions\n%s", table1Render())
}
