package experiment

import (
	"context"
	"fmt"
	"strings"

	"hcapp/internal/config"
	"hcapp/internal/sim"
)

// RunRetarget validates the §5.2 claim that "the power limit could be
// changed dynamically during a run without needing costly PID analysis":
// one combo runs under HCAPP with the power target switched mid-run, and
// both halves are graded against their own limits with the same PID
// constants.
type RetargetResult struct {
	Combo Combo
	// FirstTarget/SecondTarget are the PSPEC values of each half.
	FirstTarget, SecondTarget float64
	// FirstAvg/SecondAvg are the measured average powers of each half.
	FirstAvg, SecondAvg float64
	// FirstMax/SecondMax are the max window powers of each half against
	// the fast (20 µs) window.
	FirstMax, SecondMax float64
	// SwitchAt is when the target changed.
	SwitchAt sim.Time
}

// RunRetarget executes the mid-run target switch: the first half tracks
// the fast-limit target, the second half the slow-limit target. It runs
// as a one-task batch on the evaluator's runner.
func (ev *Evaluator) RunRetarget(combo Combo) (res *RetargetResult, err error) {
	err = ev.runner.Tasks(context.Background(), 1, func(context.Context, int) (err error) {
		res, err = ev.runRetarget(combo)
		return err
	})
	return res, err
}

func (ev *Evaluator) runRetarget(combo Combo) (*RetargetResult, error) {
	t1 := TargetPowerFor(config.PackagePinLimit())
	t2 := TargetPowerFor(config.OffPackageVRLimit())
	sys, _, err := ev.BuildSized(hcappSpec(combo, config.PackagePinLimit()), func(o *BuildOptions) {
		// Keep the package busy throughout.
		o.CPUWork *= 10
		o.GPUWork *= 10
		o.AccelWorkGB *= 10
	})
	if err != nil {
		return nil, err
	}
	half := ev.TargetDur / 2
	sys.Engine.RunFor(half)
	rec := sys.Engine.Recorder()
	firstSteps := rec.Steps()
	firstAvg := rec.AvgPower()
	firstMax := rec.MaxWindowAvg(20 * sim.Microsecond)

	// The §3.2/§5.2 retarget: one register write, no retuning.
	sys.Engine.GlobalController().SetTargetPower(t2)
	sys.Engine.RunFor(half)

	// Second-half statistics from the full trace minus the first half.
	totalAvg := rec.AvgPower()
	steps := rec.Steps()
	secondAvg := (totalAvg*float64(steps) - firstAvg*float64(firstSteps)) / float64(steps-firstSteps)
	return &RetargetResult{
		Combo:        combo,
		FirstTarget:  t1,
		SecondTarget: t2,
		FirstAvg:     firstAvg,
		SecondAvg:    secondAvg,
		FirstMax:     firstMax,
		SecondMax:    rec.MaxWindowAvg(20 * sim.Microsecond),
		SwitchAt:     half,
	}, nil
}

// Render formats the retarget validation.
func (r *RetargetResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dynamic retarget (%s, HCAPP, switch at %s, same PID constants)\n",
		r.Combo.Name, sim.FormatTime(r.SwitchAt))
	fmt.Fprintf(&sb, "%-12s %10s %10s\n", "half", "target W", "avg W")
	fmt.Fprintf(&sb, "%-12s %10.1f %10.2f\n", "first", r.FirstTarget, r.FirstAvg)
	fmt.Fprintf(&sb, "%-12s %10.1f %10.2f\n", "second", r.SecondTarget, r.SecondAvg)
	return sb.String()
}
