package main

import (
	"fmt"
	"os"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/export"
	"hcapp/internal/sim"
)

// runReport is "hcappsim report": it runs the complete evaluation and
// emits a markdown report comparing every reproduced table and figure
// against the paper's published numbers — the generator behind
// EXPERIMENTS.md:
//
//	go run ./cmd/hcappsim report -dur 16 -seed 42 > EXPERIMENTS.md
//
// Paper values are quoted from Straube et al., ICPP 2020. Absolute
// magnitudes are not expected to match (the substrate is a from-scratch
// simulator, not the authors' Sniper/GPGPU-Sim/Spectre stack, and the
// horizon is ~16 ms instead of ~200 ms); the report checks the *shape*
// claims — who wins, who violates, where crossovers fall. The Fig. 4–10
// verdicts are experiment.ShapeChecks, the list the tests judge by.
func runReport(o *options) error {
	runner := experiment.NewRunner(o.workers)
	ev := experiment.NewEvaluator().WithTargetDur(durOf(o.dur)).WithRunner(runner)
	ev.Cfg.Seed = o.seed

	r := &reporter{ev: ev, runner: runner}
	start := time.Now()
	if err := r.run(o.dur, o.seed); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hcappsim report: done in %s\n", time.Since(start).Round(time.Second))
	if r.failures > 0 {
		return fmt.Errorf("%d shape check(s) FAILED", r.failures)
	}
	return nil
}

type reporter struct {
	ev       *experiment.Evaluator
	runner   *experiment.Runner
	shapes   []experiment.Check
	figs     [11]*experiment.Matrix // Figs. 4–10 by number
	failures int
}

// check records a shape assertion in the report.
func (r *reporter) check(name string, ok bool) {
	mark := "✅"
	if !ok {
		mark = "❌"
		r.failures++
	}
	fmt.Printf("- %s %s\n", mark, name)
}

// shapeChecks records the shared shape checks of one figure.
func (r *reporter) shapeChecks(fig int) {
	for _, c := range r.shapes {
		if c.Fig == fig {
			r.check(fmt.Sprintf("%s (%s)", c.Name, c.Detail), c.Pass)
		}
	}
}

func (r *reporter) run(durMS float64, seed int64) error {
	fmt.Printf("# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Printf("Reproduction of *HCAPP: Scalable Power Control for Heterogeneous 2.5D\n")
	fmt.Printf("Integrated Systems* (Straube et al., ICPP 2020). Generated by\n")
	fmt.Printf("`go run ./cmd/hcappsim report -dur %g -seed %d`.\n\n", durMS, seed)
	fmt.Printf("Evaluation horizon %g ms per run (paper: ~200 ms), seed %d, system of\n", durMS, seed)
	fmt.Printf("DESIGN.md §2. Absolute numbers differ by construction — the substrate\n")
	fmt.Printf("is a from-scratch simulator — so each experiment lists the paper's\n")
	fmt.Printf("value, the measured value, and the *shape checks* that define\n")
	fmt.Printf("successful reproduction. Runs are sharded over a parallel scheduler\n")
	fmt.Printf("(`-workers`, default `runtime.NumCPU()`); results are assembled in\n")
	fmt.Printf("deterministic spec order, so this report is byte-identical at any\n")
	fmt.Printf("worker count.\n\n")

	r.table1()
	var err error
	if r.shapes, err = r.ev.ShapeChecks(); err != nil {
		return err
	}
	for i, fig := range []func() (*experiment.Matrix, error){
		r.ev.Fig4, r.ev.Fig5, r.ev.Fig6, r.ev.Fig7, r.ev.Fig8, r.ev.Fig9, r.ev.Fig10,
	} {
		if r.figs[4+i], err = fig(); err != nil { // runs cached by ShapeChecks
			return err
		}
	}
	if err := r.fig12(); err != nil {
		return err
	}
	r.fig456()
	r.fig789()
	r.fig10()
	if err := r.extensions(); err != nil {
		return err
	}

	fmt.Printf("\n## Verdict\n\n")
	if r.failures == 0 {
		fmt.Printf("All shape checks pass: every qualitative claim of the paper's\n")
		fmt.Printf("evaluation reproduces on this substrate.\n")
	} else {
		fmt.Printf("%d shape check(s) failed — see ❌ entries above.\n", r.failures)
	}
	return nil
}

func (r *reporter) table1() {
	fmt.Printf("## Table 1 — control delay budget\n\n")
	fmt.Printf("Paper: total round trip 147–617 ns against a 1 µs control period.\n\n")
	fmt.Printf("```\n%s```\n\n", experiment.Table1())
	r.check("round trip fits inside the 1 µs HCAPP control period", experiment.Table1Feasible())
	fmt.Printf("\n")
}

func (r *reporter) fig12() error {
	fmt.Printf("## Figures 1–2 — static power volatility and window views\n\n")
	combo, err := experiment.ComboByName("Burst-Burst")
	if err != nil {
		return err
	}
	pts, avg, err := r.ev.Fig1(combo, 100*sim.Microsecond)
	if err != nil {
		return err
	}
	hi, lo := peak(pts), 10.0
	for _, p := range pts {
		if p.P < lo {
			lo = p.P
		}
	}
	fmt.Printf("Paper Fig. 1: fixed-voltage heterogeneous power swings ~0.6–1.8× its\n")
	fmt.Printf("average (peak ≈ 1.6× avg). Measured on %s at 0.95 V: average %.1f W,\n", combo.Name, avg)
	fmt.Printf("normalized range %.2f–%.2f.\n\n", lo, hi)
	r.check("static trace swings well above and below its average (Fig. 1)", hi > 1.25 && lo < 0.9)

	windows := fig2Windows
	series, _, err := r.ev.Fig2(combo, windows, 100*sim.Microsecond)
	if err != nil {
		return err
	}
	p20us, p1ms, p10ms := peak(series[windows[0]]), peak(series[windows[1]]), peak(series[windows[2]])
	fmt.Printf("\nPaper Fig. 2: peaks visible at the 20 µs window vanish at 1 ms and\n")
	fmt.Printf("10 ms. Measured normalized peaks: 20 µs %.3f, 1 ms %.3f, 10 ms %.3f.\n\n", p20us, p1ms, p10ms)
	r.check("20 µs window peaks exceed the 1 ms and 10 ms views (Fig. 2)", p20us > p1ms && p1ms >= p10ms-0.01)
	fmt.Printf("\n")
	return nil
}

func (r *reporter) fig456() {
	fmt.Printf("## Figures 4–6 — package-pin limit (100 W / 20 µs)\n\n")
	fmt.Printf("Paper Fig. 4: fixed voltage and HCAPP stay at/below 1.0; RAPL-like and\n")
	fmt.Printf("SW-like \"greatly exceed the 1.0 mark causing a power failure\"\n")
	fmt.Printf("(bars up to ≈1.8).\n\n%s\n", export.MatrixMarkdown(r.figs[4]))
	r.shapeChecks(4)

	fmt.Printf("\nPaper Fig. 5: HCAPP speeds up execution by 21%% on average over the\n")
	fmt.Printf("fixed 0.95 V system. Measured average: %.1f%%.\n\n%s\n",
		100*(r.figs[5].RowAvg("HCAPP")-1), export.MatrixMarkdown(r.figs[5]))
	r.shapeChecks(5)

	fmt.Printf("\nPaper Fig. 6: PPE rises from 69.1%% (fixed) to 79.3%% (HCAPP), with\n")
	fmt.Printf("little variance across the suite. Measured: %.1f%% → %.1f%%.\n\n%s\n",
		100*r.figs[6].RowAvg("Fixed Voltage"), 100*r.figs[6].RowAvg("HCAPP"), export.MatrixMarkdown(r.figs[6]))
	r.shapeChecks(6)
	fmt.Printf("\n")
}

func (r *reporter) fig789() {
	fmt.Printf("## Figures 7–9 — off-package VR limit (100 W / 1 ms)\n\n")
	fmt.Printf("Paper Fig. 7: HCAPP stays under the limit; RAPL-like narrowly exceeds\n")
	fmt.Printf("it (Const-Burst); SW-like exceeds it.\n\n%s\n", export.MatrixMarkdown(r.figs[7]))
	r.shapeChecks(7)

	h, rl, sw := r.figs[8].RowAvg("HCAPP"), r.figs[8].RowAvg("RAPL-like HCAPP"), r.figs[8].RowAvg("SW-like HCAPP")
	fmt.Printf("\nPaper Fig. 8: average speedups HCAPP 43%%, RAPL-like 36%%, SW-like\n")
	fmt.Printf("insignificant; Burst-* (ferret) combos favor RAPL-like. Measured:\n")
	fmt.Printf("HCAPP %.1f%%, RAPL-like %.1f%%, SW-like %.1f%%.\n\n%s\n",
		100*(h-1), 100*(rl-1), 100*(sw-1), export.MatrixMarkdown(r.figs[8]))
	r.shapeChecks(8)

	hp, rp, sp := r.figs[9].RowAvg("HCAPP"), r.figs[9].RowAvg("RAPL-like HCAPP"), r.figs[9].RowAvg("SW-like HCAPP")
	fmt.Printf("\nPaper Fig. 9: PPE 93.9%% (HCAPP), 79.7%% (RAPL-like), 69.2%%\n")
	fmt.Printf("(SW-like). Measured: %.1f%%, %.1f%%, %.1f%%.\n\n%s\n",
		100*hp, 100*rp, 100*sp, export.MatrixMarkdown(r.figs[9]))
	r.shapeChecks(9)
	fmt.Printf("\n")
}

func (r *reporter) fig10() {
	fmt.Printf("## Figure 10 — static software priority (§5.3)\n\n")
	c, g, s := r.figs[10].RowAvg("CPU"), r.figs[10].RowAvg("GPU"), r.figs[10].RowAvg("SHA")
	fmt.Printf("Paper: prioritization speeds the prioritized component by 8.3%% (CPU),\n")
	fmt.Printf("5.4%% (GPU), 12%% (SHA) on average, GPU benefiting least and the\n")
	fmt.Printf("accelerator most. Measured: %.1f%%, %.1f%%, %.1f%%.\n\n%s\n",
		100*(c-1), 100*(g-1), 100*(s-1), export.MatrixMarkdown(r.figs[10]))
	r.shapeChecks(10)
	fmt.Printf("\n")
}

func (r *reporter) extensions() error {
	fmt.Printf("## Extensions beyond the paper\n\n")

	sc := experiment.DefaultScalingConfig()
	sc.Dur = 2 * sim.Millisecond
	scal, err := experiment.RunScalingWith(r.runner, r.ev.Cfg, sc)
	if err != nil {
		return err
	}
	fmt.Printf("### Chiplet scaling (§1 problem 3, §2)\n\n")
	fmt.Printf("HCAPP's control period is pinned by delivery physics; a centralized\n")
	fmt.Printf("controller's grows with its metric-collection network.\n\n")
	fmt.Printf("```\n%s```\n\n", scal.Render())
	first, last := scal.Points[0], scal.Points[len(scal.Points)-1]
	r.check("HCAPP stays legal from 1 to 16 triples", first.HCAPPMax <= 1.02 && last.HCAPPMax <= 1.02)
	r.check("centralized control degrades with scale", last.CentralPeriod > first.CentralPeriod)

	adv, err := adversarialRun(r.ev, r.runner, true)
	if err != nil {
		return err
	}
	fmt.Printf("\n### Adversarial local controller (§3.3.3)\n\n")
	fmt.Printf("With the accelerator grabbing all tolerable voltage, max power is\n")
	fmt.Printf("%.3f× the limit (must stay ≤ 1).\n\n", adv.MaxOverLimit)
	r.check("power limit survives an adversarial local controller", !adv.Violated)

	pol, err := r.ev.ExtensionSoftwarePolicies()
	if err != nil {
		return err
	}
	fmt.Printf("\n### Software policies on HCAPP (§6 future work)\n\n")
	fmt.Printf("Package makespan speedup over unsupervised HCAPP on imbalanced work\n")
	fmt.Printf("pools (GPU +30%%, SHA −20%%) at the fast limit. HCAPP alone reclaims a\n")
	fmt.Printf("straggler's tail only after the other chiplets idle; proactive\n")
	fmt.Printf("priority shifting reclaims it during the joint phase:\n\n%s\n",
		export.MatrixMarkdown(pol))
	r.check("progress balancing shortens the package makespan",
		pol.RowAvg("progress-balancer") > 1.0)
	r.check("critical-path prediction shortens the package makespan",
		pol.RowAvg("critical-path") > 1.0)

	cen, err := r.ev.ExtensionCentralized(config.PackagePinLimit())
	if err != nil {
		return err
	}
	fmt.Printf("\n### Structurally centralized allocator (§2 made quantitative)\n\n")
	fmt.Printf("A greedy utility allocator with perfect metrics over a collection\n")
	fmt.Printf("network, against HCAPP, at the 20 µs limit:\n\n%s\n", export.MatrixMarkdown(cen))
	r.check("centralized allocator cannot protect the 20 µs window like HCAPP",
		cen.RowMax("Centralized") > cen.RowMax("HCAPP"))

	combo, err := experiment.ComboByName("Burst-Burst")
	if err != nil {
		return err
	}
	faults, err := r.ev.RunFaultInjection(combo)
	if err != nil {
		return err
	}
	fmt.Printf("\n### Sensor fault injection (robustness characterization)\n\n")
	fmt.Printf("```\n%s```\n\n", experiment.RenderFaultInjection(combo, faults))
	var healthyOK, optimisticBad bool
	for _, fr := range faults {
		if fr.Scenario.Name == "healthy" {
			healthyOK = !fr.Violated
		}
		if fr.Scenario.Name == "optimistic -25%" {
			optimisticBad = fr.MaxOverLimit > 1.0
		}
	}
	r.check("healthy sensor holds the limit", healthyOK)
	r.check("a 25% optimistic sensor breaks the limit (documented failure mode)", optimisticBad)

	sw, err := experiment.RunSeedSweepWith(r.runner, r.ev.Remote, []int64{1, 2, 3, 42, 1234}, config.OffPackageVRLimit(), r.ev.TargetDur/2)
	if err != nil {
		return err
	}
	fmt.Printf("\n### Seed robustness\n\n")
	fmt.Printf("The suite re-run under five workload seeds (half horizon):\n\n")
	fmt.Printf("```\n%s```\n\n", sw.Render())
	r.check("headline metrics hold under every seed", sw.Violations == 0)
	return nil
}
