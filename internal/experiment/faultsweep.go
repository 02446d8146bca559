package experiment

import (
	"context"
	"fmt"
	"strings"

	"hcapp/internal/central"
	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/fault"
	"hcapp/internal/noc"
	"hcapp/internal/sim"
	"hcapp/internal/stats"
)

// Fault-sweep experiment: run the system under deterministic fault
// scenarios (internal/fault) with the resilience mechanisms armed —
// global-controller holdover, per-domain watchdogs, the package safety
// clamp, and (for the collection-path scenarios) the centralized
// baseline's telemetry holdover — and measure what each defect costs:
// power-cap violations, throughput retained versus a paired healthy run,
// and time to reconverge with the healthy trace after the last fault
// clears.

// Resilience defaults for sweep runs (knobs documented in docs/FAULTS.md).
const (
	// DefaultWatchdogTimeout is how long a domain controller may stay
	// silent before its watchdog drives the domain to fail-safe voltage.
	DefaultWatchdogTimeout = 50 * sim.Microsecond
	// DefaultHoldoverMaxAge bounds how stale the global controller's
	// power sample may grow before it abandons holdover for fail-safe.
	DefaultHoldoverMaxAge = 20 * sim.Microsecond
	// recoveryTolerance is the fractional band around the healthy trace
	// inside which the faulted trace counts as reconverged.
	recoveryTolerance = 0.05
	// recoverySustain is how long the faulted trace must stay inside the
	// band before recovery is declared.
	recoverySustain = 50 * sim.Microsecond
)

// SweepScenario is one fault-sweep row: a fault plan plus which control
// topology it exercises. Telemetry-class faults corrupt the NoC
// collection path, which only the centralized baseline uses — HCAPP's
// global controller reads a package sensor and never crosses the NoC —
// so those scenarios run against the centralized allocator.
type SweepScenario struct {
	Plan fault.Plan
	// Centralized runs the scenario against the centralized baseline
	// (fixed rail + central allocator with telemetry holdover) instead
	// of HCAPP.
	Centralized bool
}

// DefaultFaultPlans returns the sweep's scenario set, with fault windows
// scaled to a run of dur: each plan injects over [dur/4, dur/2), leaving
// the back half of the run to measure recovery. All plans share one seed
// so the sweep is reproducible end to end.
func DefaultFaultPlans(dur sim.Time, seed int64) []SweepScenario {
	s, e := dur/4, dur/2
	mk := func(name string, events ...fault.Event) SweepScenario {
		return SweepScenario{Plan: fault.Plan{Name: name, Seed: seed, Events: events}}
	}
	central := func(sc SweepScenario) SweepScenario {
		sc.Centralized = true
		return sc
	}
	return []SweepScenario{
		mk("healthy"),
		// Worst silent sensor failure: the controller believes the
		// package draws a fraction of the target, forever.
		mk("sensor-stuck-low", fault.Event{Class: fault.SensorStuck, Start: s, End: e, Param: 20}),
		mk("sensor-noise", fault.Event{Class: fault.SensorNoise, Start: s, End: e, Param: 4}),
		// Total sensing blackout: every sample dropped, so the reading
		// ages through holdover into fail-safe.
		mk("sensor-blackout", fault.Event{Class: fault.SensorDropout, Start: s, End: e, Param: 1.0}),
		mk("sensor-dropout", fault.Event{Class: fault.SensorDropout, Start: s, End: e, Param: 0.5}),
		mk("vr-slew-degraded", fault.Event{Class: fault.VRSlew, Start: s, End: e, Param: 0.2}),
		mk("rail-droop", fault.Event{Class: fault.RailDroop, Start: s, End: e, Param: 0.04}),
		mk("gpu-ctl-silence", fault.Event{Class: fault.DomainSilence, Start: s, End: e, Domain: "gpu"}),
		central(mk("telemetry-loss", fault.Event{Class: fault.TelemetryLoss, Start: s, End: e, Param: 0.6})),
		central(mk("telemetry-delay", fault.Event{Class: fault.TelemetryDelay, Start: s, End: e,
			Param: float64(200 * sim.Microsecond)})),
	}
}

// FaultSweepRow is one scenario's resilience outcome.
type FaultSweepRow struct {
	Name        string
	Centralized bool
	// MaxOverLimit is the true max window power over the limit; above
	// 1.0 is a power failure the clamp was supposed to prevent.
	MaxOverLimit float64
	Violated     bool
	// ThroughputRetained is the geomean over cpu/gpu/sha of work done
	// under faults versus the paired healthy run (1.0 = no loss).
	ThroughputRetained float64
	// RecoveryTime is how long after the last fault cleared the power
	// trace reconverged with the healthy run (within recoveryTolerance,
	// sustained recoverySustain). Zero for the healthy scenario.
	RecoveryTime sim.Time
	// Recovered reports whether reconvergence happened before run end.
	Recovered bool
	// Resilience-mechanism activity.
	ClampTrips     int64
	WatchdogTrips  map[string]int64
	HoldoverCycles int64
	FailsafeCycles int64
	// Counts are the injector's perturbation tallies.
	Counts fault.Counts
}

// FaultSweep is the full resilience table.
type FaultSweep struct {
	Combo Combo
	Limit config.PowerLimit
	Dur   sim.Time
	Seed  int64
	Rows  []FaultSweepRow
}

// sweepRun holds one finished run's artifacts.
type sweepRun struct {
	sys     *System
	central *central.Controller
	totals  []float64
	work    map[string]float64
}

// buildSweepSystem assembles one continuous-load system for the sweep
// (and the energy experiment's fault phase, which sets trackEnergy):
// zero work pools (components run forever), clamp and watchdogs armed,
// and either the HCAPP hierarchy with sensing holdover or the
// centralized baseline with telemetry holdover.
func (ev *Evaluator) buildSweepSystem(combo Combo, limit config.PowerLimit, inj *fault.Injector, centralized, trackEnergy bool) (*sweepRun, error) {
	opts := BuildOptions{
		Injector:    inj,
		Clamp:       &core.ClampConfig{CapW: limit.Watts, Window: limit.Window, DT: ev.Cfg.TimeStep},
		Watchdog:    core.WatchdogConfig{Timeout: DefaultWatchdogTimeout},
		TrackEnergy: trackEnergy,
		traces:      &ev.traces,
	}
	run := &sweepRun{}
	if centralized {
		nodes := ev.Cfg.CPU.Cores + ev.Cfg.GPU.SMs + 1
		ctl, err := central.New(central.Config{
			TargetPower: TargetPowerFor(limit),
			Domains:     scalableDomains,
			Network:     noc.DefaultBus(),
			Nodes:       nodes,
			Floor:       20 * sim.Microsecond,
			Telemetry:   telemetrySource(inj),
			// Never boost above neutral: the fixed rail is the safe
			// envelope, and boosting past it reproduces the centralized
			// design's known fast-window violations rather than any
			// telemetry-fault effect.
			PrioMax: 1.0,
		})
		if err != nil {
			return nil, err
		}
		run.central = ctl
		// The rail sits at the fixed-voltage operating point (not the
		// centralized extension's 1.05 V): the resilience comparison
		// isolates collection-path faults, not the centralized design's
		// already-characterized inability to hold the fast window.
		opts.Scheme = config.Scheme{Kind: config.FixedVoltage, FixedV: ev.FixedV}
		opts.Supervisor = ctl
		opts.ForceLocalControl = true
	} else {
		hcapp, err := config.SchemeByKind(config.HCAPP)
		if err != nil {
			return nil, err
		}
		opts.Scheme = hcapp
		opts.TargetPower = TargetPowerFor(limit)
		opts.Holdover = core.HoldoverConfig{MaxAge: DefaultHoldoverMaxAge}
	}
	sys, err := Build(ev.Cfg, combo, opts)
	if err != nil {
		return nil, err
	}
	run.sys = sys
	return run, nil
}

// telemetrySource converts a possibly-nil injector into a possibly-nil
// interface (a non-nil interface holding a nil *Injector would defeat
// the controller's nil check).
func telemetrySource(inj *fault.Injector) central.TelemetrySource {
	if inj == nil {
		return nil
	}
	return inj
}

// finish runs the freshly built system for dur, polling ctx, and
// harvests the artifacts the row metrics need. A cancelled ctx stops
// the engine at its next poll (an already-cancelled one before the
// first step) and returns ctx.Err().
func (r *sweepRun) finish(ctx context.Context, dur sim.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.sys.Engine.RunWithCancel(dur, func() bool { return ctx.Err() != nil })
	if err := ctx.Err(); err != nil {
		return err
	}
	r.totals = r.sys.Engine.Recorder().Totals()
	r.work = map[string]float64{
		"cpu": r.sys.CPU.DoneWork(),
		"gpu": r.sys.GPU.DoneWork(),
		"sha": r.sys.Accel.DoneWork(),
	}
	return nil
}

// RunFaultSweep produces the resilience table for one combo under one
// power limit. Every scenario runs for dur (zero selects the
// evaluator's TargetDur) against a paired healthy run of the same
// control topology, so throughput-retained and recovery-time compare
// like with like. The whole sweep is deterministic: the same combo,
// limit, dur and seed reproduce the identical table.
func (ev *Evaluator) RunFaultSweep(combo Combo, limit config.PowerLimit, dur sim.Time, seed int64) (*FaultSweep, error) {
	if dur <= 0 {
		dur = ev.TargetDur
	}
	scenarios := DefaultFaultPlans(dur, seed)

	// Injectors are built up front (fault.New can reject a plan) so the
	// parallel batch below only runs simulations.
	injs := make([]*fault.Injector, len(scenarios))
	for i, sc := range scenarios {
		inj, err := fault.New(sc.Plan)
		if err != nil {
			return nil, err
		}
		injs[i] = inj
	}

	// One batch: the two healthy references (per control topology) plus
	// every scenario, fanned over the runner and harvested by index so the
	// table is identical at any worker count.
	runs := make([]*sweepRun, 2+len(scenarios))
	err := ev.runner.Tasks(context.Background(), len(runs), func(ctx context.Context, i int) error {
		var (
			inj         *fault.Injector
			centralized bool
		)
		if i < 2 {
			centralized = i == 1
		} else {
			inj = injs[i-2]
			centralized = scenarios[i-2].Centralized
		}
		run, err := ev.buildSweepSystem(combo, limit, inj, centralized, false)
		if err != nil {
			return err
		}
		if err := run.finish(ctx, dur); err != nil {
			return err
		}
		runs[i] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	healthy := map[bool]*sweepRun{false: runs[0], true: runs[1]}

	sweep := &FaultSweep{Combo: combo, Limit: limit, Dur: dur, Seed: seed}
	for si, sc := range scenarios {
		inj := injs[si]
		run := runs[2+si]
		ref := healthy[sc.Centralized]

		row := FaultSweepRow{
			Name:          sc.Plan.Name,
			Centralized:   sc.Centralized,
			Counts:        inj.Counts(),
			WatchdogTrips: map[string]int64{},
		}
		rec := run.sys.Engine.Recorder()
		row.MaxOverLimit = rec.MaxWindowAvg(limit.Window) / limit.Watts
		row.Violated = row.MaxOverLimit > 1
		if clamp := run.sys.Engine.Clamp(); clamp != nil {
			row.ClampTrips = clamp.Trips()
		}
		for _, s := range run.sys.Engine.Slots() {
			if n := s.Domain.WatchdogTrips(); n > 0 {
				row.WatchdogTrips[s.Domain.Name()] = n
			}
		}
		if g := run.sys.Engine.GlobalController(); g != nil {
			row.HoldoverCycles = g.HoldoverCycles()
			row.FailsafeCycles = g.FailsafeCycles()
		}
		if run.central != nil {
			row.HoldoverCycles += run.central.HoldoverTicks()
			row.FailsafeCycles += run.central.FailsafeTicks()
		}

		var ratios []float64
		for _, name := range speedupComponents {
			if ref.work[name] > 0 {
				ratios = append(ratios, run.work[name]/ref.work[name])
			}
		}
		row.ThroughputRetained = stats.Geomean(ratios...)

		_, lastEnd := sc.Plan.Span()
		if len(sc.Plan.Events) == 0 {
			row.Recovered = true
		} else {
			row.RecoveryTime, row.Recovered = recoveryTime(
				run.totals, ref.totals, ev.Cfg.TimeStep, lastEnd)
		}
		sweep.Rows = append(sweep.Rows, row)
	}
	return sweep, nil
}

// recoveryTime scans the faulted and healthy power traces after the last
// fault cleared and returns how long until the faulted trace stays
// within recoveryTolerance of the healthy one for recoverySustain.
func recoveryTime(faulted, healthy []float64, dt sim.Time, lastEnd sim.Time) (sim.Time, bool) {
	n := len(faulted)
	if len(healthy) < n {
		n = len(healthy)
	}
	start := int(lastEnd / dt)
	if start < 0 {
		start = 0
	}
	sustain := int(recoverySustain / dt)
	if sustain < 1 {
		sustain = 1
	}
	run := 0
	for i := start; i < n; i++ {
		diff := faulted[i] - healthy[i]
		if diff < 0 {
			diff = -diff
		}
		if diff <= recoveryTolerance*healthy[i] {
			run++
			if run >= sustain {
				first := i - sustain + 1
				rt := sim.Time(first)*dt - lastEnd
				if rt < 0 {
					rt = 0
				}
				return rt, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

// Publish exports the sweep's fault and resilience tallies through a
// fault.Metrics counter set.
func (fs *FaultSweep) Publish(m *fault.Metrics) {
	for _, r := range fs.Rows {
		m.RecordRun(r.Name, r.Counts, r.ClampTrips, r.WatchdogTrips,
			r.HoldoverCycles, r.FailsafeCycles)
	}
}

// RenderFaultSweep formats the resilience table.
func RenderFaultSweep(fs *FaultSweep) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fault sweep (%s, %s limit, %.2f ms runs, seed %d)\n",
		fs.Combo.Name, fs.Limit.Name, float64(fs.Dur)/float64(sim.Millisecond), fs.Seed)
	fmt.Fprintf(&sb, "%-18s %-8s %10s %9s %8s %10s %6s %5s %9s %9s\n",
		"scenario", "ctl", "max/limit", "violated", "thruput", "recovery", "clamp", "wdog", "holdover", "failsafe")
	for _, r := range fs.Rows {
		ctl := "hcapp"
		if r.Centralized {
			ctl = "central"
		}
		recov := "n/a"
		switch {
		case len(r.WatchdogTrips) > 0 || r.ClampTrips > 0 || !r.Recovered || r.RecoveryTime > 0:
			if r.Recovered {
				recov = fmt.Sprintf("%.1f us", float64(r.RecoveryTime)/float64(sim.Microsecond))
			} else {
				recov = "never"
			}
		}
		var wdog int64
		for _, n := range r.WatchdogTrips {
			wdog += n
		}
		fmt.Fprintf(&sb, "%-18s %-8s %10.3f %9v %8.3f %10s %6d %5d %9d %9d\n",
			r.Name, ctl, r.MaxOverLimit, r.Violated, r.ThroughputRetained,
			recov, r.ClampTrips, wdog, r.HoldoverCycles, r.FailsafeCycles)
	}
	return sb.String()
}
