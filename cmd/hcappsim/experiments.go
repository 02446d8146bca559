package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/fault"
	"hcapp/internal/noc"
	"hcapp/internal/sim"
	"hcapp/internal/telemetry"
	"hcapp/internal/trace"
)

// experimentIDs is the registry of runnable experiment ids, in the
// order "-experiment all" executes them.
var experimentIDs = []string{
	"table1", "table2", "table3",
	"fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"scaling", "policies", "centralized", "locals", "clocking", "thermal",
	"adversarial", "faults", "fault-sweep", "energy", "vreff", "retarget", "seeds", "checks",
}

// notInAll lists registry ids excluded from "all": the seed sweep
// re-runs the whole validation suite once per seed.
var notInAll = map[string]bool{"seeds": true}

// parseExperimentIDs expands and validates the -experiment flag. Every
// id is checked before anything runs, so a typo in a long comma list
// fails fast instead of after an hour of simulation.
func parseExperimentIDs(exp string) ([]string, error) {
	if exp == "all" {
		ids := make([]string, 0, len(experimentIDs))
		for _, id := range experimentIDs {
			if !notInAll[id] {
				ids = append(ids, id)
			}
		}
		return ids, nil
	}
	var ids []string
	for _, raw := range strings.Split(exp, ",") {
		id := strings.TrimSpace(strings.ToLower(raw))
		if id == "" {
			continue
		}
		if !slices.Contains(experimentIDs, id) {
			return nil, fmt.Errorf("unknown experiment %q (valid: all %s)",
				strings.TrimSpace(raw), strings.Join(experimentIDs, " "))
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiment ids given (valid: all %s)", strings.Join(experimentIDs, " "))
	}
	return ids, nil
}

// runExperiments is the default mode: it starts every -experiment id at
// once over one evaluator and runner, and prints their outputs to
// stdout in id order, a blank line after each (printInOrder). Ids that
// share runs share them through the evaluator's single-flight cache,
// and the runner bounds how many simulations run at a time.
func runExperiments(o *options) error { return writeExperiments(os.Stdout, o) }

// writeExperiments is runExperiments printing to out.
func writeExperiments(out io.Writer, o *options) error {
	runner := experiment.NewRunner(o.workers)
	ev := experiment.NewEvaluator().WithTargetDur(durOf(o.dur)).WithRunner(runner)
	ev.Cfg.Seed = o.seed

	sc := experiment.DefaultScalingConfig()
	sc.Combo = o.comboSpec
	sc.ChipletCounts = o.chiplets
	if o.tree {
		sc.Network = noc.DefaultTree()
	}
	sc.Network.MsgSerialization = sim.Time(o.msgNS)

	if fleet := o.fleet; fleet != nil {
		fleet.Priority = o.priority
		fleet.Tenant = o.tenant
		// Uncached runs now execute on the fleet; the local run cache,
		// single-flight dedup, and all rendering are untouched, so output
		// is byte-identical to a local run. The first batches' retries
		// wait out a fleet that is still starting. The scaling sweep
		// builds engines directly rather than going through the
		// evaluator, so it offloads cell-by-cell.
		ev.Remote = fleet
		sc.Cell = fleet.ScalingCellFunc()
	}

	return printInOrder(out, o.ids, func(w io.Writer, id string) error {
		return run(w, ev, runner, sc, id, o.comboSpec)
	})
}

// printInOrder runs do for every id at once, each writing to its own
// buffer, and prints the buffers to out in id order as they complete, a
// blank line after each. The first id in order that fails ends it: its
// partial output is printed, then its error is returned naming it, and
// no later id's output is printed. Ids still running are left to finish
// unprinted.
func printInOrder(out io.Writer, ids []string, do func(w io.Writer, id string) error) error {
	type result struct {
		buf  bytes.Buffer
		err  error
		done chan struct{}
	}
	res := make([]result, len(ids))
	for i, id := range ids {
		res[i].done = make(chan struct{})
		go func() {
			defer close(res[i].done)
			res[i].err = do(&res[i].buf, id)
		}()
	}
	for i, id := range ids {
		<-res[i].done
		if _, err := out.Write(res[i].buf.Bytes()); err != nil {
			return err
		}
		if res[i].err != nil {
			return fmt.Errorf("%s: %w", id, res[i].err)
		}
		if _, err := fmt.Fprintln(out); err != nil {
			return err
		}
	}
	return nil
}

// run prints one experiment to w.
func run(w io.Writer, ev *experiment.Evaluator, runner *experiment.Runner, sc experiment.ScalingConfig, id string, combo experiment.Combo) error {
	render := func(m *experiment.Matrix, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprint(w, m.Render())
		return nil
	}
	switch id {
	case "table1":
		fmt.Fprint(w, experiment.Table1())
		if experiment.Table1Feasible() {
			fmt.Fprintln(w, "round trip fits inside the HCAPP control period: OK")
		} else {
			fmt.Fprintln(w, "WARNING: round trip exceeds the HCAPP control period")
		}
	case "table2":
		fmt.Fprintln(w, "Table 2: Details of CPU and GPU Configuration")
		fmt.Fprint(w, ev.Cfg.Table2())
	case "table3":
		fmt.Fprintln(w, "Table 3: Benchmark Combinations Used for Validation")
		fmt.Fprint(w, experiment.Table3())
	case "fig1":
		pts, avg, err := ev.Fig1(combo, 100*sim.Microsecond)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fig 1: %s static-voltage power trace normalized to average (%.1f W)\n", combo.Name, avg)
		fmt.Fprintf(w, "%12s %12s\n", "time", "P/avg")
		for _, p := range pts {
			fmt.Fprintf(w, "%12s %12.3f\n", sim.FormatTime(p.T), p.P)
		}
	case "fig2":
		windows := fig2Windows
		series, avg, err := ev.Fig2(combo, windows, 200*sim.Microsecond)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fig 2: %s power over limit time windows, normalized to average (%.1f W)\n", combo.Name, avg)
		fmt.Fprintf(w, "peak/avg per window:")
		for _, win := range windows {
			fmt.Fprintf(w, "  %s: %.3f", sim.FormatTime(win), peak(series[win]))
		}
		fmt.Fprintln(w)
	case "fig4":
		return render(ev.Fig4())
	case "fig5":
		return render(ev.Fig5())
	case "fig6":
		return render(ev.Fig6())
	case "fig7":
		return render(ev.Fig7())
	case "fig8":
		return render(ev.Fig8())
	case "fig9":
		return render(ev.Fig9())
	case "fig10":
		return render(ev.Fig10())
	case "scaling":
		res, err := experiment.RunScalingWith(runner, ev.Cfg, sc)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
	case "policies":
		return render(ev.ExtensionSoftwarePolicies())
	case "centralized":
		return render(ev.ExtensionCentralized(config.PackagePinLimit()))
	case "locals":
		return render(ev.AblationLocalControllers())
	case "clocking":
		return render(ev.AblationClocking())
	case "thermal":
		out, err := ev.RenderThermalCheck()
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
	case "faults":
		results, err := ev.RunFaultInjection(combo)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderFaultInjection(combo, results))
	case "fault-sweep":
		sweep, err := ev.RunFaultSweep(combo, config.PackagePinLimit(), 0, ev.Cfg.Seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderFaultSweep(sweep))
		reg := telemetry.NewRegistry()
		sweep.Publish(fault.NewMetrics(reg))
		fmt.Fprintln(w, "\nResilience counters (Prometheus text):")
		fmt.Fprint(w, reg.Text())
	case "energy":
		rep, err := ev.RunEnergyAttribution(combo, config.PackagePinLimit())
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderEnergyAttribution(rep))
	case "vreff":
		return render(ev.AblationVREfficiency())
	case "retarget":
		r, err := ev.RunRetarget(combo)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.Render())
	case "seeds":
		sw, err := experiment.RunSeedSweepWith(runner, ev.Remote, []int64{1, 2, 3, 42, 1234}, config.OffPackageVRLimit(), ev.TargetDur)
		if err != nil {
			return err
		}
		fmt.Fprint(w, sw.Render())
	case "checks":
		checks, err := ev.ShapeChecks()
		if err != nil {
			return err
		}
		for _, c := range checks {
			mark := "PASS"
			if !c.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(w, "%-4s %s (%s)\n", mark, c.Name, c.Detail)
		}
		if failed := experiment.Failed(checks); len(failed) > 0 {
			return fmt.Errorf("%d shape check(s) failed", len(failed))
		}
	case "adversarial":
		honest, err := adversarialRun(ev, runner, false)
		if err != nil {
			return err
		}
		adv, err := adversarialRun(ev, runner, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Adversarial accelerator local controller (Hi-Hi, %s limit)\n", config.PackagePinLimit().Name)
		fmt.Fprintf(w, "%-14s max/limit=%.3f violated=%v cpu-done=%s\n", "pass-through",
			honest.MaxOverLimit, honest.Violated, sim.FormatTime(honest.Completion["cpu"]))
		fmt.Fprintf(w, "%-14s max/limit=%.3f violated=%v cpu-done=%s\n", "adversarial",
			adv.MaxOverLimit, adv.Violated, sim.FormatTime(adv.Completion["cpu"]))
	default:
		// parseExperimentIDs screens ids before this runs; reaching here
		// means the registry lists an id the switch does not handle.
		return fmt.Errorf("experiment %q is registered but not implemented", id)
	}
	return nil
}

// adversarialRun runs Hi-Hi under HCAPP at the package-pin limit, with
// the accelerator's local controller passing through or grabbing all
// tolerable voltage (§3.3.3). It runs as a one-task batch on runner, so
// it holds a slot like every other simulation.
func adversarialRun(ev *experiment.Evaluator, runner *experiment.Runner, adversarial bool) (res experiment.RunResult, err error) {
	combo, err := experiment.ComboByName("Hi-Hi")
	if err != nil {
		return res, err
	}
	scheme, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		return res, err
	}
	spec := experiment.RunSpec{Combo: combo, Scheme: scheme, Limit: config.PackagePinLimit(), AdversarialAccel: adversarial}
	err = runner.Tasks(context.Background(), 1, func(ctx context.Context, _ int) (err error) {
		res, err = ev.RunContext(ctx, spec)
		return err
	})
	return res, err
}

// peak returns the largest value of a normalized power series.
func peak(pts []trace.Point) float64 {
	m := 0.0
	for _, p := range pts {
		if p.P > m {
			m = p.P
		}
	}
	return m
}
