package sched_test

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
)

// Striding is bitwise identical to fixed stepping by contract. The
// tests here hold it to that over whole built systems: each builds or
// runs the same thing twice, once under the forced fixed-step reference
// (sched.SetFixedStep) and once free to stride, and compares the two.

// paired runs f under the fixed-step reference, then free to stride.
// f must build everything it runs: the mode is fixed when an engine is
// built, and evaluator caches would otherwise serve the first result.
func paired[T any](f func() T) (fixed, strided T) {
	restore := sched.SetFixedStep(true)
	fixed = f()
	restore()
	restore = sched.SetFixedStep(false)
	strided = f()
	restore()
	return fixed, strided
}

// buildSystem assembles combo with work sized for dur under scheme —
// at a fixed 0.95 V rail, the configuration the speed gate is measured
// on, no global controller re-commands the rail every period, so steady
// regions span whole workload phases. obs and trackEnergy attach the
// step observer and the energy ledger, the hooks served jobs and fleet
// workers always carry.
func buildSystem(tb testing.TB, comboName string, scheme config.Scheme, dur sim.Time, obs sched.StepObserver, trackEnergy bool) *experiment.System {
	tb.Helper()
	cfg := config.Default()
	combo, err := experiment.ComboByName(comboName)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := experiment.SizeWork(cfg, combo, 0.95, dur)
	if err != nil {
		tb.Fatal(err)
	}
	opts := experiment.BuildOptions{
		Scheme:      scheme,
		CPUWork:     s.CPUWork,
		GPUWork:     s.GPUWork,
		AccelWorkGB: s.AccelGB,
		Observer:    obs,
		TrackEnergy: trackEnergy,
	}
	if scheme.Kind != config.FixedVoltage {
		opts.TargetPower = experiment.TargetPowerFor(config.PackagePinLimit())
	}
	sys, err := experiment.Build(cfg, combo, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

var fixedRail = config.Scheme{Kind: config.FixedVoltage, FixedV: 0.95}

// requireIdenticalTraces compares two completed runs bit for bit.
func requireIdenticalTraces(t *testing.T, label string, f, s *experiment.System, rf, rs sched.Result) {
	t.Helper()
	if rf.Duration != rs.Duration || rf.Completed != rs.Completed || rf.ControlCycles != rs.ControlCycles {
		t.Fatalf("%s: run outcome diverges: fixed %+v strided %+v", label, rf, rs)
	}
	ft, st := f.Engine.Recorder().Totals(), s.Engine.Recorder().Totals()
	if len(ft) != len(st) {
		t.Fatalf("%s: trace lengths diverge: %d vs %d", label, len(ft), len(st))
	}
	for i := range ft {
		if ft[i] != st[i] {
			t.Fatalf("%s: power trace diverges at step %d: %g vs %g", label, i, ft[i], st[i])
		}
	}
}

// TestStridedMatchesFixedTraces is the whole-package byte-identity
// check: for each workload combo, a strided run's power trace must be
// bitwise equal to the fixed-step run's, and the engine must actually
// have strided (otherwise the equality is vacuous).
func TestStridedMatchesFixedTraces(t *testing.T) {
	const dur = 2 * sim.Millisecond
	strided := int64(0)
	for _, name := range []string{"Burst-Burst", "Hi-Hi", "Mid-Mid"} {
		f, s := paired(func() *experiment.System { return buildSystem(t, name, fixedRail, dur, nil, false) })
		rf, rs := f.Engine.Run(2*dur), s.Engine.Run(2*dur)
		requireIdenticalTraces(t, name, f, s, rf, rs)
		if f.Engine.StridedSteps() != 0 {
			t.Fatalf("%s: the fixed-step reference strided", name)
		}
		strided += s.Engine.StridedSteps()
	}
	if strided == 0 {
		t.Fatal("no combo strided at all — striding is not engaging")
	}
}

// TestStridedTopologyMatchesFixed: a custom topology's components are
// the engine's own concrete types, named when built, so a Burst-Burst
// package with a second accelerator strides — on a fixed rail and
// under HCAPP — and its completions and whole trace, per-component
// columns included, equal the fixed-step reference bit for bit.
func TestStridedTopologyMatchesFixed(t *testing.T) {
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		t.Fatal(err)
	}
	combo := mustCombo(t, "Burst-Burst")
	topo := experiment.Topology{
		Chiplets: []experiment.ChipletSpec{
			{Kind: "cpu", Benchmark: combo.CPU},
			{Kind: "gpu", Benchmark: combo.GPU},
			{Kind: "sha", Name: "sha0"},
			{Kind: "sha", Name: "sha1", WorkScale: 1.5},
			{Kind: "mem"},
		},
		SizingDur: 500 * sim.Microsecond,
	}
	const horizon = 2 * sim.Millisecond
	for _, opts := range []experiment.BuildOptions{
		{Scheme: fixedRail, TrackComponents: true},
		{Scheme: hcapp, TargetPower: 120, TrackComponents: true},
	} {
		type run struct {
			eng *sched.Engine
			res sched.Result
		}
		f, s := paired(func() run {
			eng, err := experiment.BuildTopology(config.Default(), topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			return run{eng, eng.Run(horizon)}
		})
		label := string(opts.Scheme.Kind)
		if f.eng.StridedSteps() != 0 {
			t.Fatalf("%s: the fixed-step reference strided", label)
		}
		if s.eng.StridedSteps() == 0 {
			t.Fatalf("%s: custom topology never strided", label)
		}
		if !reflect.DeepEqual(f.res, s.res) || len(s.res.Completion) != 4 {
			t.Fatalf("%s: run outcome diverges: fixed %+v strided %+v", label, f.res, s.res)
		}
		if !reflect.DeepEqual(f.eng.Recorder(), s.eng.Recorder()) {
			t.Fatalf("%s: strided trace diverges from the fixed-step reference", label)
		}
		t.Logf("%s: strided %d of %d steps", label, s.eng.StridedSteps(), s.eng.Steps())
	}
}

// stepLog is a StepObserver that checks the bulk contract as calls
// arrive — each call's first step directly follows the previous call's
// last — and replays every call's n steps into running sums, so an
// observed strided run can be compared bitwise with the reference.
type stepLog struct {
	calls, steps int64
	next         sim.Time
	gap          bool
	energy       float64 // Σ total·dt, step by step
	domainVolts  float64 // Σ per-domain voltage, step by step
}

func (o *stepLog) ObserveSteps(now, dt sim.Time, n int64, total float64, domains []sched.DomainSample) {
	if o.calls > 0 && now != o.next {
		o.gap = true
	}
	o.calls++
	o.steps += n
	o.next = now + sim.Time(n)*dt
	for ; n > 0; n-- {
		o.energy += total * sim.Seconds(dt)
		for _, d := range domains {
			o.domainVolts += d.Voltage
		}
	}
}

// TestObservedEngineStrides: observers no longer stop striding. An
// engine carrying both an energy ledger and a step observer — how every
// served job and fleet worker runs — must stride, its observer must
// hear every step exactly once at contiguous times, and the ledger
// summary, observer sums and power trace must all equal the fixed-step
// reference bit for bit. Both the fixed rail and the HCAPP scheme
// served jobs default to are covered (HCAPP re-commands the rail every
// 1 µs period, so only some combos stride under it; Burst-Burst does).
func TestObservedEngineStrides(t *testing.T) {
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		t.Fatal(err)
	}
	const dur = sim.Millisecond
	for _, c := range []struct {
		combo  string
		scheme config.Scheme
	}{{"Burst-Burst", fixedRail}, {"Burst-Burst", hcapp}} {
		type run struct {
			sys *experiment.System
			log *stepLog
			res sched.Result
		}
		f, s := paired(func() run {
			log := &stepLog{}
			sys := buildSystem(t, c.combo, c.scheme, dur, log, true)
			return run{sys, log, sys.Engine.Run(2 * dur)}
		})
		label := c.combo + "/" + string(c.scheme.Kind)
		if s.sys.Engine.StridedSteps() == 0 {
			t.Fatalf("%s: observed engine never strided", label)
		}
		if s.log.gap || s.log.steps != s.sys.Engine.Steps() || s.log.calls >= s.log.steps {
			t.Fatalf("%s: observer saw %d steps in %d calls (gap %v), engine took %d",
				label, s.log.steps, s.log.calls, s.log.gap, s.sys.Engine.Steps())
		}
		requireIdenticalTraces(t, label, f.sys, s.sys, f.res, s.res)
		if f.log.energy != s.log.energy || f.log.domainVolts != s.log.domainVolts {
			t.Fatalf("%s: observer sums diverge: fixed %+v strided %+v", label, *f.log, *s.log)
		}
		if fs, ss := f.sys.Energy.Summary(), s.sys.Energy.Summary(); !reflect.DeepEqual(fs, ss) {
			t.Fatalf("%s: ledger diverges:\nfixed   %+v\nstrided %+v", label, fs, ss)
		}
	}
}

// benchStep is the BENCH_step.json schema: the headline hot-path
// numbers the CI bench stage publishes.
type benchStep struct {
	NsPerStep       float64 `json:"ns_per_step"`
	AllocsPerStep   float64 `json:"allocs_per_step"`
	StrideSpeedup   float64 `json:"adaptive_speedup"`
	StridedFraction float64 `json:"strided_fraction"`
	Steps           int64   `json:"steps"`
}

// TestStrideSpeedupGate is the headline performance gate: on the
// Fig. 5 suite's Burst-Burst workload at a fixed rail, the striding
// engine must complete the identical run at least 5× faster than the
// fixed-step reference (measured 6–7× on the reference host), the
// fixed-step loop must not allocate in steady state, and the two traces
// must be bit for bit equal. When HCAPP_BENCH_JSON names a path, the
// measured numbers are written there as the CI bench artifact.
func TestStrideSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if sched.RaceEnabled {
		t.Skip("race instrumentation distorts both sides of the gate")
	}
	const dur = 16 * sim.Millisecond
	fixed, strided := paired(func() *experiment.System { return buildSystem(t, "Burst-Burst", fixedRail, dur, nil, false) })

	// Interleaved best-of-N: Reset is byte-identical (see the reset
	// audit), so the same two systems are re-run rather than rebuilt,
	// keeping heap layout constant across trials.
	var rf, rs sched.Result
	bestFixed, bestStrided := time.Duration(1<<62), time.Duration(1<<62)
	var allocsPerStep float64
	for trial := 0; trial < 4; trial++ {
		fixed.Engine.Reset()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		rf = fixed.Engine.Run(2 * dur)
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if d < bestFixed {
			bestFixed = d
			// Mallocs is monotonic (GC never decrements it), so the delta
			// is exactly the allocation count of the timed run. The
			// once-per-run Result/Completion allocations are amortized
			// over ~10^5 steps and must round to zero per step.
			allocsPerStep = float64(m1.Mallocs-m0.Mallocs) / float64(fixed.Engine.Steps())
		}
		strided.Engine.Reset()
		start = time.Now()
		rs = strided.Engine.Run(2 * dur)
		if d := time.Since(start); d < bestStrided {
			bestStrided = d
		}
	}
	requireIdenticalTraces(t, "Burst-Burst", fixed, strided, rf, rs)

	steps := fixed.Engine.Steps()
	out := benchStep{
		NsPerStep:       float64(bestFixed.Nanoseconds()) / float64(steps),
		AllocsPerStep:   allocsPerStep,
		StrideSpeedup:   bestFixed.Seconds() / bestStrided.Seconds(),
		StridedFraction: float64(strided.Engine.StridedSteps()) / float64(strided.Engine.Steps()),
		Steps:           steps,
	}
	t.Logf("fixed %v (%.0f ns/step, %.4f allocs/step), strided %v: %.1f× speedup, %.1f%% strided",
		bestFixed, out.NsPerStep, out.AllocsPerStep, bestStrided,
		out.StrideSpeedup, 100*out.StridedFraction)

	if path := os.Getenv("HCAPP_BENCH_JSON"); path != "" {
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if out.AllocsPerStep > 0.001 {
		t.Errorf("steady-state step loop allocates: %.4f allocs/step, want 0", out.AllocsPerStep)
	}
	if out.StrideSpeedup < 5 {
		t.Errorf("stride speedup %.2f× below the 5× gate", out.StrideSpeedup)
	}
}

// requireIdenticalResults fails unless two runs are bitwise equal in
// every measured quantity.
func requireIdenticalResults(t *testing.T, label string, f, s experiment.RunResult) {
	t.Helper()
	if f.AvgPower != s.AvgPower || f.MaxWindowPower != s.MaxWindowPower ||
		f.MaxOverLimit != s.MaxOverLimit || f.PPE != s.PPE {
		t.Fatalf("%s: power metrics diverge:\nfixed   %+v\nstrided %+v", label, f, s)
	}
	if f.Duration != s.Duration || f.Completed != s.Completed ||
		f.Violated != s.Violated || f.ControlCycles != s.ControlCycles {
		t.Fatalf("%s: run outcome diverges:\nfixed   %+v\nstrided %+v", label, f, s)
	}
	if !reflect.DeepEqual(f.Completion, s.Completion) || !reflect.DeepEqual(f.Finished, s.Finished) {
		t.Fatalf("%s: completion times diverge:\nfixed   %v/%v\nstrided %v/%v",
			label, f.Completion, f.Finished, s.Completion, s.Finished)
	}
}

// shortEvaluator is a fresh evaluator at a 2 ms horizon.
func shortEvaluator() *experiment.Evaluator {
	return experiment.NewEvaluator().WithTargetDur(2 * sim.Millisecond)
}

func mustCombo(t *testing.T, name string) experiment.Combo {
	t.Helper()
	c, err := experiment.ComboByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStridedMatchesFixedAcrossMatrix is the strided-vs-fixed
// determinism matrix: every combo × scheme cell must produce bitwise
// identical results whether the engine strides through steady state or
// steps through it. Striding is an execution detail, never a model
// change, so no result cache key needs to know about it.
func TestStridedMatchesFixedAcrossMatrix(t *testing.T) {
	limit := config.PackagePinLimit()
	schemes := []config.Scheme{shortEvaluator().FixedScheme()}
	for _, k := range []config.SchemeKind{config.HCAPP, config.RAPLLike, config.SWLike} {
		s, err := config.SchemeByKind(k)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, s)
	}
	for _, comboName := range []string{"Burst-Burst", "Hi-Hi", "Mid-Mid"} {
		combo := mustCombo(t, comboName)
		for _, scheme := range schemes {
			spec := experiment.RunSpec{Combo: combo, Scheme: scheme, Limit: limit}
			f, s := paired(func() experiment.RunResult {
				r, err := shortEvaluator().Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				return r
			})
			requireIdenticalResults(t, comboName+"/"+string(scheme.Kind), f, s)
		}
	}
}

// TestStridedFaultSweepIdentical extends the matrix to the fault
// sweep: injector windows force stride boundaries, and every scenario
// row must still come out bit for bit the same.
func TestStridedFaultSweepIdentical(t *testing.T) {
	f, s := paired(func() *experiment.FaultSweep {
		sweep, err := shortEvaluator().RunFaultSweep(mustCombo(t, "Mid-Mid"), config.PackagePinLimit(), 2*sim.Millisecond, 7)
		if err != nil {
			t.Fatal(err)
		}
		return sweep
	})
	if !reflect.DeepEqual(f.Rows, s.Rows) {
		t.Fatalf("fault sweep diverges under striding:\n%s\nvs\n%s",
			experiment.RenderFaultSweep(f), experiment.RenderFaultSweep(s))
	}
}

// TestStridedSeedSweepIdentical covers the seed sweep's stochastic
// injector draws: the PRNG consumption pattern must be unchanged by
// striding (strides never span an active or imminent fault window).
func TestStridedSeedSweepIdentical(t *testing.T) {
	f, s := paired(func() *experiment.SeedSweep {
		sweep, err := experiment.RunSeedSweep([]int64{3, 11}, config.PackagePinLimit(), 2*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return sweep
	})
	if !reflect.DeepEqual(f, s) {
		t.Fatalf("seed sweep diverges under striding:\n%+v\nvs\n%+v", f, s)
	}
}
