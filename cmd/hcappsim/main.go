// Command hcappsim regenerates the paper's tables and figures from the
// simulated target system.
//
// Usage:
//
//	hcappsim -experiment fig4            # one experiment
//	hcappsim -experiment all             # everything (slow)
//	hcappsim -experiment table1,table2   # comma-separated list
//	hcappsim -dur 16 -seed 42            # run-length and seed control
//
// Experiments: table1 table2 table3 fig1 fig2 fig4 fig5 fig6 fig7 fig8
// fig9 fig10, plus the extensions and ablations: scaling, policies,
// centralized, locals, clocking, thermal, adversarial, faults,
// fault-sweep, energy.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"hcapp/internal/buildinfo"
	"hcapp/internal/cluster"
	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/fault"
	"hcapp/internal/sim"
	"hcapp/internal/telemetry"
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
	valid := make(map[string]bool, len(experimentIDs))
	for _, id := range experimentIDs {
		valid[id] = true
	}
	var ids []string
	for _, raw := range strings.Split(exp, ",") {
		id := strings.TrimSpace(strings.ToLower(raw))
		if id == "" {
			continue
		}
		if !valid[id] {
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

// validateWorkers rejects non-positive pool sizes before anything runs
// (a zero-size pool would otherwise deadlock the scheduler).
func validateWorkers(workers int) error {
	if workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", workers)
	}
	return nil
}

func main() {
	exp := flag.String("experiment", "all", "experiment id(s), comma-separated, or 'all'")
	dur := flag.Float64("dur", 16, "target duration in milliseconds")
	seed := flag.Int64("seed", 42, "workload generation seed")
	combo := flag.String("combo", "Burst-Burst", "combo for fig1/fig2 traces")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel simulation workers (output is identical at any width)")
	coordinator := flag.String("coordinator", "", "offload simulations to the fleet coordinator at this URL (rendered output is identical)")
	priority := flag.String("priority", cluster.PriorityBatch, "fleet priority class with -coordinator: interactive or batch")
	tenant := flag.String("tenant", "", "fleet tenant id for rate limiting with -coordinator")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "hcappsim")
		return
	}

	ids, err := parseExperimentIDs(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hcappsim: %v\n", err)
		os.Exit(2)
	}
	if err := validateWorkers(*workers); err != nil {
		fmt.Fprintf(os.Stderr, "hcappsim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	runner := experiment.NewRunner(*workers)
	ev := experiment.NewEvaluator().WithTargetDur(sim.Time(*dur * float64(sim.Millisecond))).WithRunner(runner)
	ev.Cfg.Seed = *seed

	var fleet *cluster.Client
	if *coordinator != "" {
		if !cluster.ValidPriority(*priority) {
			fmt.Fprintf(os.Stderr, "hcappsim: unknown -priority %q (valid: %s, %s)\n",
				*priority, cluster.PriorityInteractive, cluster.PriorityBatch)
			os.Exit(2)
		}
		fleet, err = cluster.NewClient(*coordinator)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hcappsim: %v\n", err)
			os.Exit(2)
		}
		fleet.Priority = *priority
		fleet.Tenant = *tenant
		if err := fleet.Ping(context.Background(), 10*time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "hcappsim: %v\n", err)
			os.Exit(2)
		}
		// Uncached runs now execute on the fleet; the local run cache,
		// single-flight dedup, and all rendering are untouched, so output
		// is byte-identical to a local run.
		ev.Remote = fleet
	}

	for _, id := range ids {
		if err := run(ev, runner, fleet, id, *combo); err != nil {
			fmt.Fprintf(os.Stderr, "hcappsim: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func run(ev *experiment.Evaluator, runner *experiment.Runner, fleet *cluster.Client, id, comboName string) error {
	switch id {
	case "table1":
		fmt.Print(experiment.Table1())
		if experiment.Table1Feasible() {
			fmt.Println("round trip fits inside the HCAPP control period: OK")
		} else {
			fmt.Println("WARNING: round trip exceeds the HCAPP control period")
		}
	case "table2":
		fmt.Println("Table 2: Details of CPU and GPU Configuration")
		fmt.Print(ev.Cfg.Table2())
	case "table3":
		fmt.Println("Table 3: Benchmark Combinations Used for Validation")
		fmt.Print(experiment.Table3())
	case "fig1":
		combo, err := experiment.ComboByName(comboName)
		if err != nil {
			return err
		}
		pts, avg, err := ev.Fig1(combo, 100*sim.Microsecond)
		if err != nil {
			return err
		}
		fmt.Printf("Fig 1: %s static-voltage power trace normalized to average (%.1f W)\n", combo.Name, avg)
		fmt.Printf("%12s %12s\n", "time", "P/avg")
		for _, p := range pts {
			fmt.Printf("%12s %12.3f\n", sim.FormatTime(p.T), p.P)
		}
	case "fig2":
		combo, err := experiment.ComboByName(comboName)
		if err != nil {
			return err
		}
		windows := []sim.Time{20 * sim.Microsecond, 1 * sim.Millisecond, 10 * sim.Millisecond}
		series, avg, err := ev.Fig2(combo, windows, 200*sim.Microsecond)
		if err != nil {
			return err
		}
		fmt.Printf("Fig 2: %s power over limit time windows, normalized to average (%.1f W)\n", combo.Name, avg)
		fmt.Printf("peak/avg per window:")
		for _, w := range windows {
			peak := 0.0
			for _, p := range series[w] {
				if p.P > peak {
					peak = p.P
				}
			}
			fmt.Printf("  %s: %.3f", sim.FormatTime(w), peak)
		}
		fmt.Println()
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
		sc := experiment.DefaultScalingConfig()
		if fleet != nil {
			// The scaling sweep builds engines directly rather than going
			// through the evaluator, so it offloads cell-by-cell.
			sc.Cell = fleet.ScalingCellFunc()
		}
		res, err := experiment.RunScalingWith(runner, ev.Cfg, sc)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
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
		fmt.Print(out)
	case "faults":
		combo, err := experiment.ComboByName(comboName)
		if err != nil {
			return err
		}
		results, err := ev.RunFaultInjection(combo)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderFaultInjection(combo, results))
	case "fault-sweep":
		combo, err := experiment.ComboByName(comboName)
		if err != nil {
			return err
		}
		sweep, err := ev.RunFaultSweep(combo, config.PackagePinLimit(), 0, ev.Cfg.Seed)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderFaultSweep(sweep))
		reg := telemetry.NewRegistry()
		sweep.Publish(fault.NewMetrics(reg))
		fmt.Println("\nResilience counters (Prometheus text):")
		fmt.Print(reg.Text())
	case "energy":
		combo, err := experiment.ComboByName(comboName)
		if err != nil {
			return err
		}
		rep, err := ev.RunEnergyAttribution(combo, config.PackagePinLimit())
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderEnergyAttribution(rep))
	case "vreff":
		return render(ev.AblationVREfficiency())
	case "retarget":
		combo, err := experiment.ComboByName(comboName)
		if err != nil {
			return err
		}
		r, err := ev.RunRetarget(combo)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	case "seeds":
		sw, err := experiment.RunSeedSweepWith(runner, []int64{1, 2, 3, 42, 1234}, config.OffPackageVRLimit(), ev.TargetDur)
		if err != nil {
			return err
		}
		fmt.Print(sw.Render())
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
			fmt.Printf("%-4s %s (%s)\n", mark, c.Name, c.Detail)
		}
		if failed := experiment.Failed(checks); len(failed) > 0 {
			return fmt.Errorf("%d shape check(s) failed", len(failed))
		}
	case "adversarial":
		c, err := experiment.ComboByName("Hi-Hi")
		if err != nil {
			return err
		}
		scheme, err := config.SchemeByKind(config.HCAPP)
		if err != nil {
			return err
		}
		limit := config.PackagePinLimit()
		honest, err := ev.Run(experiment.RunSpec{Combo: c, Scheme: scheme, Limit: limit})
		if err != nil {
			return err
		}
		adv, err := ev.Run(experiment.RunSpec{Combo: c, Scheme: scheme, Limit: limit, AdversarialAccel: true})
		if err != nil {
			return err
		}
		fmt.Printf("Adversarial accelerator local controller (Hi-Hi, %s limit)\n", limit.Name)
		fmt.Printf("%-14s max/limit=%.3f violated=%v cpu-done=%s\n", "pass-through",
			honest.MaxOverLimit, honest.Violated, sim.FormatTime(honest.Completion["cpu"]))
		fmt.Printf("%-14s max/limit=%.3f violated=%v cpu-done=%s\n", "adversarial",
			adv.MaxOverLimit, adv.Violated, sim.FormatTime(adv.Completion["cpu"]))
	default:
		// parseExperimentIDs screens ids before this runs; reaching here
		// means the registry lists an id the switch does not handle.
		return fmt.Errorf("experiment %q is registered but not implemented", id)
	}
	return nil
}

func render(m *experiment.Matrix, err error) error {
	if err != nil {
		return err
	}
	fmt.Print(m.Render())
	return nil
}
