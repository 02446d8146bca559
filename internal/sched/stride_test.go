package sched_test

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/hostprobe"
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

// requireIdenticalTraces compares two completed runs, and the per-step
// power traces logged from them, bit for bit.
func requireIdenticalTraces(t *testing.T, label string, ft, st sched.TotalLog, rf, rs sched.Result) {
	t.Helper()
	if rf.Duration != rs.Duration || rf.Completed != rs.Completed || rf.ControlCycles != rs.ControlCycles {
		t.Fatalf("%s: run outcome diverges: fixed %+v strided %+v", label, rf, rs)
	}
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
		type run struct {
			sys   *experiment.System
			total *sched.TotalLog
		}
		f, s := paired(func() run {
			total := new(sched.TotalLog)
			return run{buildSystem(t, name, fixedRail, dur, total, false), total}
		})
		rf, rs := f.sys.Engine.Run(2*dur), s.sys.Engine.Run(2*dur)
		requireIdenticalTraces(t, name, *f.total, *s.total, rf, rs)
		if f.sys.Engine.StridedSteps() != 0 {
			t.Fatalf("%s: the fixed-step reference strided", name)
		}
		strided += s.sys.Engine.StridedSteps()
	}
	if strided == 0 {
		t.Fatal("no combo strided at all — striding is not engaging")
	}
}

// TestStridedTopologyMatchesFixed: a custom topology's components are
// the engine's own concrete types, named when built, so a Burst-Burst
// package with a second accelerator strides — on a fixed rail and
// under HCAPP — and its completions, whole power trace and every
// step's rail, per-slot power and domain voltage (a sched.SlotLog)
// equal the fixed-step reference bit for bit.
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
		{Scheme: fixedRail},
		{Scheme: hcapp, TargetPower: 120},
	} {
		type run struct {
			eng *sched.Engine
			log *sched.SlotLog
			res sched.Result
		}
		f, s := paired(func() run {
			eng, err := experiment.BuildTopology(config.Default(), topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			log := sched.NewSlotLog(eng)
			eng.SetObserver(log)
			return run{eng, log, eng.Run(horizon)}
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
		if d := f.log.Diff(s.log); d != "" {
			t.Fatalf("%s: strided per-step log diverges from the fixed-step reference: %s", label, d)
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
			sys   *experiment.System
			log   *stepLog
			total *sched.TotalLog
			res   sched.Result
		}
		f, s := paired(func() run {
			log, total := &stepLog{}, new(sched.TotalLog)
			sys := buildSystem(t, c.combo, c.scheme, dur, sched.Observers(log, total), true)
			return run{sys, log, total, sys.Engine.Run(2 * dur)}
		})
		label := c.combo + "/" + string(c.scheme.Kind)
		if s.sys.Engine.StridedSteps() == 0 {
			t.Fatalf("%s: observed engine never strided", label)
		}
		if s.log.gap || s.log.steps != s.sys.Engine.Steps() || s.log.calls >= s.log.steps {
			t.Fatalf("%s: observer saw %d steps in %d calls (gap %v), engine took %d",
				label, s.log.steps, s.log.calls, s.log.gap, s.sys.Engine.Steps())
		}
		requireIdenticalTraces(t, label, *f.total, *s.total, f.res, s.res)
		if f.log.energy != s.log.energy || f.log.domainVolts != s.log.domainVolts {
			t.Fatalf("%s: observer sums diverge: fixed %+v strided %+v", label, *f.log, *s.log)
		}
		if fs, ss := f.sys.Energy.Summary(), s.sys.Energy.Summary(); !reflect.DeepEqual(fs, ss) {
			t.Fatalf("%s: ledger diverges:\nfixed   %+v\nstrided %+v", label, fs, ss)
		}
	}
}

// TestSamplerOnBuiltSystem holds the `hcappsim trace -fig 3` sampler to
// the frozen bucket arithmetic (sched.ComponentSeries over a per-step
// sched.SlotLog) on the built paper package, fixed-step and strided, on
// a fixed rail and under HCAPP, with 30 µs buckets that do not divide
// the 1 ms run; both modes' samplers must agree bit for bit.
func TestSamplerOnBuiltSystem(t *testing.T) {
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		t.Fatal(err)
	}
	const dur, every = sim.Millisecond, 30 * sim.Microsecond
	for _, scheme := range []config.Scheme{fixedRail, hcapp} {
		type run struct {
			eng     *sched.Engine
			sampler *sched.Sampler
			log     *sched.SlotLog
		}
		f, s := paired(func() run {
			eng := buildSystem(t, "Burst-Burst", scheme, dur, nil, false).Engine
			r := run{eng, sched.NewSampler(eng, every), sched.NewSlotLog(eng)}
			eng.SetObserver(sched.Observers(r.sampler, r.log))
			eng.RunFor(dur)
			return r
		})
		label := string(scheme.Kind)
		if s.eng.StridedSteps() == 0 {
			t.Fatalf("%s: never strided", label)
		}
		for _, r := range []run{f, s} {
			if d := sched.SamplerDiff(r.sampler, r.log, every); d != "" {
				t.Fatalf("%s: sampler %s diverges from the frozen bucket arithmetic", label, d)
			}
		}
		if d := f.log.Diff(s.log); d != "" {
			t.Fatalf("%s: strided per-step log diverges from the fixed-step reference: %s", label, d)
		}
		if n := len(s.sampler.Rail()); n != int(dur/every) {
			t.Fatalf("%s: %d buckets, want %d", label, n, dur/every)
		}
	}
}

// benchRow is one row of BENCH_step.json, the stride gate's history:
// the CI bench stage appends one per run (docs/PERF.md has the schema).
type benchRow struct {
	Commit           string  `json:"commit"`
	FixedNsPerStep   float64 `json:"fixed_ns_per_step"`
	StridedNsPerStep float64 `json:"strided_ns_per_step"`
	ProbeNs          float64 `json:"probe_ns"`
	StridedFraction  float64 `json:"strided_fraction"`
	Steps            int64   `json:"steps"`
	AllocsPerStep    float64 `json:"allocs_per_step"`
}

// The stride gate's bounds. Step times are stated at the reference
// host's speed: each trial's ns/step is scaled by refProbeNs over the
// median time of one host probe run (internal/hostprobe) timed in the
// same trial, so host speed cancels as it does in a time ratio.
const (
	// gateStridedFloor is the gate workload's strided fraction. It is
	// deterministic, so it is an exact floor: a change that strides
	// less on the gate workload fails.
	gateStridedFloor = 0.8863921742146111
	// refProbeNs is one host probe run on the reference two-core host.
	refProbeNs = 200_000
	// fixedStepBudget and stridedStepBudget bound the fixed-step and
	// the strided run's ns/step at the reference probe speed. They sit
	// about 30% above the engine before per-unit operating points
	// (fixed 916–1096, strided 136–161 on the reference host, idle and
	// beside another test binary), which the engine now beats by more
	// than 2× and 1.3× (358–473, 87–105). An engine that does not
	// stride reads its fixed-step cost on the strided side and fails.
	fixedStepBudget   = 1400
	stridedStepBudget = 200
)

// TestStrideSpeedupGate is the headline performance gate, on the Fig. 5
// suite's Burst-Burst workload at a fixed rail:
//
//   - the striding engine strides at least gateStridedFloor of its
//     steps;
//   - the fixed-step reference and the striding engine each complete
//     the run within their ns/step budgets, normalised by the host
//     probe timed inside the same trials;
//   - the fixed-step loop does not allocate in steady state;
//   - the two traces are bit for bit equal.
//
// It replaces a fixed ÷ strided ≥ 5× ratio gate, which failed a
// strictly faster engine: a cheaper step shrinks both sides, and the
// fixed side more. When HCAPP_BENCH_JSON names a file, the measured
// row is appended to the JSON array there (the CI bench history), with
// HCAPP_BENCH_COMMIT as its commit.
func TestStrideSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if sched.RaceEnabled {
		t.Skip("race instrumentation distorts both sides of the gate")
	}
	const (
		dur         = 16 * sim.Millisecond
		trials      = 9
		probeRepeat = 40
	)
	fixed, strided := paired(func() *experiment.System { return buildSystem(t, "Burst-Burst", fixedRail, dur, nil, false) })

	// Interleaved trials: Reset is byte-identical (see the reset audit),
	// so the same two systems are re-run rather than rebuilt, keeping
	// heap layout constant across trials.
	probe := hostprobe.New()
	timed := func(run func()) time.Duration {
		start := time.Now()
		run()
		return time.Since(start)
	}
	var rf, rs sched.Result
	var tf, ts, tp [trials]time.Duration
	var mallocs uint64
	var fixedSteps int64
	runFixed := func() {
		fixed.Engine.Reset()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rf = fixed.Engine.Run(2 * dur)
		runtime.ReadMemStats(&m1)
		// Mallocs is monotonic (GC never decrements it), so the delta
		// is the run's allocation count. The once-per-run Result and
		// Completion allocations amortize over ~10^5 steps and must
		// round to zero per step.
		mallocs += m1.Mallocs - m0.Mallocs
		fixedSteps += fixed.Engine.Steps()
	}
	runStrided := func() {
		strided.Engine.Reset()
		rs = strided.Engine.Run(2 * dur)
	}
	for i := 0; i < trials; i++ {
		if i%2 == 0 {
			tf[i] = timed(runFixed)
			ts[i] = timed(runStrided)
		} else {
			ts[i] = timed(runStrided)
			tf[i] = timed(runFixed)
		}
		tp[i] = timed(func() {
			for k := 0; k < probeRepeat; k++ {
				probe.Run()
			}
		}) / probeRepeat
	}
	// One more run of each, untimed, logs the per-step traces to compare.
	var ft, st sched.TotalLog
	fixed.Engine.SetObserver(&ft)
	strided.Engine.SetObserver(&st)
	fixed.Engine.Reset()
	strided.Engine.Reset()
	rf, rs = fixed.Engine.Run(2*dur), strided.Engine.Run(2*dur)
	requireIdenticalTraces(t, "Burst-Burst", ft, st, rf, rs)

	steps := fixed.Engine.Steps()
	var fixedNorm, stridedNorm [trials]float64
	for i := range tf {
		scale := refProbeNs / float64(tp[i].Nanoseconds())
		fixedNorm[i] = float64(tf[i].Nanoseconds()) / float64(steps) * scale
		stridedNorm[i] = float64(ts[i].Nanoseconds()) / float64(steps) * scale
	}
	row := benchRow{
		Commit:           os.Getenv("HCAPP_BENCH_COMMIT"),
		FixedNsPerStep:   float64(median(tf[:]).Nanoseconds()) / float64(steps),
		StridedNsPerStep: float64(median(ts[:]).Nanoseconds()) / float64(steps),
		ProbeNs:          float64(median(tp[:]).Nanoseconds()),
		StridedFraction:  float64(strided.Engine.StridedSteps()) / float64(strided.Engine.Steps()),
		Steps:            steps,
		AllocsPerStep:    float64(mallocs) / float64(fixedSteps),
	}
	fixedCost, stridedCost := median(fixedNorm[:]), median(stridedNorm[:])
	t.Logf("fixed %.0f ns/step, strided %.0f ns/step, probe %.0f ns: %.0f and %.0f ns/step at the reference probe speed (budgets %d, %d)",
		row.FixedNsPerStep, row.StridedNsPerStep, row.ProbeNs, fixedCost, stridedCost, fixedStepBudget, stridedStepBudget)
	t.Logf("%.4f allocs/step; %.16g strided (floor %.16g) of %d steps",
		row.AllocsPerStep, row.StridedFraction, gateStridedFloor, steps)

	if path := os.Getenv("HCAPP_BENCH_JSON"); path != "" {
		if err := appendBenchRow(path, row); err != nil {
			t.Fatal(err)
		}
	}

	if row.AllocsPerStep > 0.001 {
		t.Errorf("steady-state step loop allocates: %.4f allocs/step, want 0", row.AllocsPerStep)
	}
	if row.StridedFraction < gateStridedFloor {
		t.Errorf("strided fraction %.16g below the gate workload's floor %.16g", row.StridedFraction, gateStridedFloor)
	}
	if fixedCost > fixedStepBudget {
		t.Errorf("fixed stepping %.0f ns/step at the reference probe speed, over its %d budget", fixedCost, fixedStepBudget)
	}
	if stridedCost > stridedStepBudget {
		t.Errorf("strided run %.0f ns/step at the reference probe speed, over its %d budget", stridedCost, stridedStepBudget)
	}
}

// appendBenchRow appends row to the JSON array in path, creating it.
func appendBenchRow(path string, row benchRow) error {
	var rows []benchRow
	buf, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(buf, &rows); err != nil {
			return fmt.Errorf("bench history %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	buf, err = json.MarshalIndent(append(rows, row), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func median[T cmp.Ordered](x []T) T {
	x = slices.Clone(x)
	slices.Sort(x)
	return x[len(x)/2]
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
