package main

import (
	"context"
	"fmt"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/sim"
)

// tuneModes are "hcappsim tune"'s calibration modes. It probes the
// fixed-voltage power envelope, sweeps the fixed baseline voltage (the
// paper "selected [0.95 V] because it achieved the highest performance
// without violating the power target", §4), sweeps HCAPP's power target
// to find the guardband each limit window requires, and checks PID
// tracking quality — the §3.1 tuning workflow as a tool.
var tuneModes = map[string]func(*experiment.Evaluator) error{
	"probe":    probe,
	"fixsweep": fixSweep,
	"target":   targetSweep,
	"pid":      pidCheck,
}

// tuneModeNames lists tuneModes in usage order.
var tuneModeNames = []string{"probe", "fixsweep", "target", "pid"}

// runTune is "hcappsim tune".
func runTune(o *options) error {
	return tuneModes[o.mode](experiment.NewEvaluator().WithTargetDur(durOf(o.dur)))
}

// probe reports the fixed-voltage power envelope per combo.
func probe(ev *experiment.Evaluator) error {
	fmt.Printf("Fixed voltage %.2f V envelope (target dur %s)\n", ev.FixedV, sim.FormatTime(ev.TargetDur))
	fmt.Printf("%-14s %8s %8s %8s %10s %10s %10s %10s\n",
		"combo", "avgW", "max20us", "max1ms", "cpu-done", "gpu-done", "sha-done", "completed")
	fast := config.PackagePinLimit()
	for _, combo := range experiment.Suite() {
		r, err := ev.Run(experiment.RunSpec{Combo: combo, Scheme: ev.FixedScheme(), Limit: fast})
		if err != nil {
			return err
		}
		// Re-derive the 1 ms window max by running under the slow limit
		// (cached run shares the same trace statistics only per-limit, so
		// run again).
		rSlow, err := ev.Run(experiment.RunSpec{Combo: combo, Scheme: ev.FixedScheme(), Limit: config.OffPackageVRLimit()})
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %8.2f %8.2f %8.2f %10s %10s %10s %10v\n",
			combo.Name, r.AvgPower, r.MaxWindowPower, rSlow.MaxWindowPower,
			sim.FormatTime(r.Completion["cpu"]), sim.FormatTime(r.Completion["gpu"]),
			sim.FormatTime(r.Completion["sha"]), r.Completed)
	}
	return nil
}

// fixSweep finds the highest fixed voltage with no fast-limit violation.
func fixSweep(ev *experiment.Evaluator) error {
	limit := config.PackagePinLimit()
	fmt.Printf("Fixed-voltage sweep against %s (%g W / %s)\n", limit.Name, limit.Watts, sim.FormatTime(limit.Window))
	fmt.Printf("%8s %10s %10s\n", "voltage", "worstMax", "violates")
	best := 0.0
	for v := 0.80; v <= 1.051; v += 0.01 {
		sub := experiment.NewEvaluator().WithTargetDur(ev.TargetDur)
		sub.FixedV = v
		worst := 0.0
		for _, combo := range experiment.Suite() {
			r, err := sub.Run(experiment.RunSpec{Combo: combo, Scheme: sub.FixedScheme(), Limit: limit})
			if err != nil {
				return err
			}
			if r.MaxWindowPower > worst {
				worst = r.MaxWindowPower
			}
		}
		viol := worst > limit.Watts
		if !viol && v > best {
			best = v
		}
		fmt.Printf("%8.2f %10.2f %10v\n", v, worst, viol)
	}
	fmt.Printf("highest non-violating fixed voltage: %.2f V\n", best)
	return nil
}

// targetSweep finds, per limit, the highest HCAPP power target with no
// violation anywhere in the suite (the guardband calibration).
func targetSweep(ev *experiment.Evaluator) error {
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		return err
	}
	for _, limit := range []config.PowerLimit{config.PackagePinLimit(), config.OffPackageVRLimit()} {
		fmt.Printf("Target sweep, HCAPP, limit %s (%g W / %s)\n", limit.Name, limit.Watts, sim.FormatTime(limit.Window))
		fmt.Printf("%8s %10s %8s %10s\n", "target", "worstMax", "avgPPE", "violates")
		for frac := 0.70; frac <= 1.001; frac += 0.02 {
			target := limit.Watts * frac
			worst, ppeSum := 0.0, 0.0
			n := 0
			for _, combo := range experiment.Suite() {
				_, run, err := ev.BuildSized(experiment.RunSpec{Combo: combo, Scheme: hcapp, Limit: limit},
					func(o *experiment.BuildOptions) { o.TargetPower = target })
				if err != nil {
					return err
				}
				r, err := run(context.Background())
				if err != nil {
					return err
				}
				if r.MaxWindowPower > worst {
					worst = r.MaxWindowPower
				}
				ppeSum += r.PPE
				n++
			}
			fmt.Printf("%8.1f %10.2f %8.3f %10v\n", target, worst, ppeSum/float64(n), worst > limit.Watts)
		}
	}
	return nil
}

// pidCheck reports HCAPP tracking quality on each combo.
func pidCheck(ev *experiment.Evaluator) error {
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		return err
	}
	for _, limit := range []config.PowerLimit{config.PackagePinLimit(), config.OffPackageVRLimit()} {
		target := experiment.TargetPowerFor(limit)
		fmt.Printf("PID tracking, limit %s, target %.1f W\n", limit.Name, target)
		fmt.Printf("%-14s %8s %8s %10s %10s\n", "combo", "avgW", "maxW", "dur", "completed")
		for _, combo := range experiment.Suite() {
			r, err := ev.Run(experiment.RunSpec{Combo: combo, Scheme: hcapp, Limit: limit})
			if err != nil {
				return err
			}
			fmt.Printf("%-14s %8.2f %8.2f %10s %10v\n",
				combo.Name, r.AvgPower, r.MaxWindowPower, sim.FormatTime(r.Duration), r.Completed)
		}
	}
	return nil
}
