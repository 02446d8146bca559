package experiment

import (
	"fmt"

	"hcapp/internal/sim"
)

// Check is one shape assertion: a qualitative claim from the paper's
// evaluation that defines successful reproduction independent of
// absolute magnitudes.
type Check struct {
	// Name states the claim, with its figure reference.
	Name string
	// Fig is the number of the paper figure the claim comes from.
	Fig int
	// Pass reports whether the claim held.
	Pass bool
	// Detail carries the measured values behind the verdict.
	Detail string
}

// ShapeChecks runs the core reproduction checks (Figs. 4–10) and returns
// one Check per claim, in figure order. The report generator
// (hcappsim report), "hcappsim -experiment checks" and the integration
// tests share this list so "reproduced" means the same thing everywhere.
//
// The evaluator's horizon must exceed the SW-like controller's 10 ms
// period for the SW-like checks to be meaningful; shorter horizons mark
// those checks as skipped-passes with a note in Detail.
func (ev *Evaluator) ShapeChecks() ([]Check, error) {
	var out []Check
	add := func(fig int, name string, pass bool, detail string, args ...any) {
		out = append(out, Check{Name: name, Fig: fig, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
	}
	swMeaningful := ev.TargetDur > 10*sim.Millisecond

	fig4, err := ev.Fig4()
	if err != nil {
		return nil, err
	}
	add(4, "fixed voltage never violates the 20 µs limit (Fig. 4)",
		fig4.RowMax("Fixed Voltage") <= 1.0, "max %.3f", fig4.RowMax("Fixed Voltage"))
	add(4, "HCAPP never violates the 20 µs limit (Fig. 4)",
		fig4.RowMax("HCAPP") <= 1.0, "max %.3f", fig4.RowMax("HCAPP"))
	add(4, "RAPL-like violates the 20 µs limit (Fig. 4)",
		fig4.RowMax("RAPL-like HCAPP") > 1.0, "max %.3f", fig4.RowMax("RAPL-like HCAPP"))
	if swMeaningful {
		add(4, "SW-like violates the 20 µs limit (Fig. 4)",
			fig4.RowMax("SW-like HCAPP") > 1.0, "max %.3f", fig4.RowMax("SW-like HCAPP"))
	} else {
		add(4, "SW-like violates the 20 µs limit (Fig. 4)", true,
			"skipped: horizon %s shorter than the SW-like period", sim.FormatTime(ev.TargetDur))
	}

	fig5, err := ev.Fig5()
	if err != nil {
		return nil, err
	}
	add(5, "HCAPP speeds up every combo vs fixed (Fig. 5)",
		fig5.RowMin("HCAPP") > 0.97, "min %.3f", fig5.RowMin("HCAPP"))
	add(5, "HCAPP average speedup above fixed voltage (Fig. 5; paper +21%)",
		fig5.RowAvg("HCAPP") > 1.0, "avg %.3f", fig5.RowAvg("HCAPP"))

	fig6, err := ev.Fig6()
	if err != nil {
		return nil, err
	}
	add(6, "HCAPP PPE above fixed voltage (Fig. 6; paper 79.3% vs 69.1%)",
		fig6.RowAvg("HCAPP") > fig6.RowAvg("Fixed Voltage"),
		"%.3f vs %.3f", fig6.RowAvg("HCAPP"), fig6.RowAvg("Fixed Voltage"))

	fig7, err := ev.Fig7()
	if err != nil {
		return nil, err
	}
	add(7, "HCAPP never violates the 1 ms limit (Fig. 7)",
		fig7.RowMax("HCAPP") <= 1.0, "max %.3f", fig7.RowMax("HCAPP"))
	add(7, "RAPL-like at or near the 1 ms limit (Fig. 7; paper: narrow violation)",
		fig7.RowMax("RAPL-like HCAPP") > 0.95, "max %.3f", fig7.RowMax("RAPL-like HCAPP"))
	if swMeaningful {
		add(7, "SW-like violates the 1 ms limit (Fig. 7)",
			fig7.RowMax("SW-like HCAPP") > 1.0, "max %.3f", fig7.RowMax("SW-like HCAPP"))
	} else {
		add(7, "SW-like violates the 1 ms limit (Fig. 7)", true,
			"skipped: horizon %s shorter than the SW-like period", sim.FormatTime(ev.TargetDur))
	}

	fig8, err := ev.Fig8()
	if err != nil {
		return nil, err
	}
	h, rl, sw := fig8.RowAvg("HCAPP"), fig8.RowAvg("RAPL-like HCAPP"), fig8.RowAvg("SW-like HCAPP")
	add(8, "slow-limit speedup ordering HCAPP > RAPL-like > SW-like (Fig. 8; paper 1.43/1.36/~1)",
		h > rl && rl > sw, "%.3f / %.3f / %.3f", h, rl, sw)
	if ev.TargetDur >= 8*sim.Millisecond {
		// The ferret effect needs enough burst cycles to emerge; short
		// horizons are dominated by a handful of bursts.
		bbH, _ := fig8.Get("HCAPP", "Burst-Burst")
		bbR, _ := fig8.Get("RAPL-like HCAPP", "Burst-Burst")
		add(8, "HCAPP's advantage collapses on Burst-Burst (Fig. 8 ferret effect)",
			bbH-bbR < 0.6*(h-rl)+0.05, "gap %.3f vs suite gap %.3f", bbH-bbR, h-rl)
	} else {
		add(8, "HCAPP's advantage collapses on Burst-Burst (Fig. 8 ferret effect)", true,
			"skipped: horizon %s too short for burst statistics", sim.FormatTime(ev.TargetDur))
	}

	fig9, err := ev.Fig9()
	if err != nil {
		return nil, err
	}
	hp, rp, sp := fig9.RowAvg("HCAPP"), fig9.RowAvg("RAPL-like HCAPP"), fig9.RowAvg("SW-like HCAPP")
	add(9, "slow-limit PPE ordering HCAPP > RAPL-like > SW-like (Fig. 9; paper 93.9/79.7/69.2)",
		hp > rp && rp > sp, "%.3f / %.3f / %.3f", hp, rp, sp)

	fig10, err := ev.Fig10()
	if err != nil {
		return nil, err
	}
	c, g, s := fig10.RowAvg("CPU"), fig10.RowAvg("GPU"), fig10.RowAvg("SHA")
	add(10, "every component gains from its own prioritization (Fig. 10)",
		c > 1 && g > 1 && s > 1, "%.3f / %.3f / %.3f", c, g, s)
	add(10, "GPU gains least from prioritization (Fig. 10 ordering)",
		g < c && g < s, "%.3f / %.3f / %.3f", c, g, s)

	return out, nil
}

// Failed filters a check list down to failures.
func Failed(checks []Check) []Check {
	var out []Check
	for _, c := range checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}
