package experiment

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"hcapp/internal/config"
	"hcapp/internal/sim"
	"hcapp/internal/workload"
)

// shortEvaluator returns an evaluator with runs short enough for unit
// tests (the full evaluation uses 16 ms).
func shortEvaluator() *Evaluator {
	return NewEvaluator().WithTargetDur(2 * sim.Millisecond)
}

func mustCombo2(t *testing.T, name string) Combo {
	t.Helper()
	c, err := ComboByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSizeWorkScalesWithDuration(t *testing.T) {
	cfg := config.Default()
	combo := mustCombo2(t, "Mid-Mid")
	s1, err := SizeWork(cfg, combo, 0.95, 2*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SizeWork(cfg, combo, 0.95, 4*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]float64{
		{s1.CPUWork, s2.CPUWork},
		{s1.GPUWork, s2.GPUWork},
		{s1.AccelGB, s2.AccelGB},
	} {
		if pair[0] <= 0 {
			t.Fatalf("non-positive work pool: %+v", s1)
		}
		if math.Abs(pair[1]/pair[0]-2) > 1e-9 {
			t.Fatalf("work not proportional to duration: %g vs %g", pair[0], pair[1])
		}
	}
}

func TestBuildValidation(t *testing.T) {
	cfg := config.Default()
	combo := mustCombo2(t, "Mid-Mid")
	// Dynamic scheme without a power target must fail.
	if _, err := Build(cfg, combo, BuildOptions{Scheme: mustScheme2(t, config.HCAPP)}); err == nil {
		t.Fatal("missing power target accepted")
	}
	// Corrupt config must fail.
	bad := cfg
	bad.TimeStep = 0
	if _, err := Build(bad, combo, BuildOptions{Scheme: config.Scheme{Kind: config.FixedVoltage, FixedV: 0.95}}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func mustScheme2(t *testing.T, k config.SchemeKind) config.Scheme {
	t.Helper()
	s, err := config.SchemeByKind(k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFixedVoltageRunCompletesOnSchedule(t *testing.T) {
	ev := shortEvaluator()
	combo := mustCombo2(t, "Mid-Mid")
	r, err := ev.Run(RunSpec{Combo: combo, Scheme: ev.FixedScheme(), Limit: config.PackagePinLimit()})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("fixed run did not complete")
	}
	// Work pools are sized for the target duration at the fixed voltage.
	if r.Duration < ev.TargetDur*8/10 || r.Duration > ev.TargetDur*13/10 {
		t.Fatalf("fixed run took %s, want ≈%s", sim.FormatTime(r.Duration), sim.FormatTime(ev.TargetDur))
	}
	for _, c := range []string{"cpu", "gpu", "sha"} {
		if _, ok := r.Completion[c]; !ok {
			t.Errorf("completion missing for %s", c)
		}
	}
}

func TestRunCaching(t *testing.T) {
	ev := shortEvaluator()
	combo := mustCombo2(t, "Low-Low")
	spec := RunSpec{Combo: combo, Scheme: ev.FixedScheme(), Limit: config.PackagePinLimit()}
	r1, err := ev.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ev.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.AvgPower != r2.AvgPower || r1.Duration != r2.Duration {
		t.Fatal("cached run differs")
	}
}

func TestRunKeyDistinguishesLimitsAndPriorities(t *testing.T) {
	combo := mustCombo2(t, "Low-Low")
	fixed := config.Scheme{Kind: config.FixedVoltage, FixedV: 0.95}
	a := RunSpec{Combo: combo, Scheme: fixed, Limit: config.PackagePinLimit()}
	b := RunSpec{Combo: combo, Scheme: fixed, Limit: config.OffPackageVRLimit()}
	if a.key() == b.key() {
		t.Fatal("different limits share a cache key")
	}
	c := RunSpec{Combo: combo, Scheme: fixed, Limit: config.PackagePinLimit(),
		Priorities: map[string]float64{"cpu": 1.0, "gpu": 0.9}}
	if a.key() == c.key() {
		t.Fatal("priorities ignored in cache key")
	}
	d := c
	d.AdversarialAccel = true
	if c.key() == d.key() {
		t.Fatal("adversarial flag ignored in cache key")
	}
}

// customHiHi is a combo named like the built-in Hi-Hi whose CPU runs a
// custom benchmark.
func customHiHi(t *testing.T) Combo {
	t.Helper()
	cpu, err := workload.SpecJSON{
		Name: "ferret", Target: "cpu", Class: "Mid", Kind: "steady",
		Phases: 6, PhaseDurUS: 80, IPC: 1.1, MemFrac: 0.3,
		Activity: 0.5, StallAct: 0.1, ActJitter: 0.05,
	}.Benchmark()
	if err != nil {
		t.Fatal(err)
	}
	c := mustCombo2(t, "Hi-Hi")
	c.CPU = cpu
	return c
}

// TestRunKeyNamesComboByDefinition: a custom combo that reuses a
// built-in's name gets its own result on an evaluator that already ran
// the built-in, not the built-in's cached one.
func TestRunKeyNamesComboByDefinition(t *testing.T) {
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		t.Fatal(err)
	}
	builtin := RunSpec{Combo: mustCombo2(t, "Hi-Hi"), Scheme: hcapp, Limit: config.PackagePinLimit()}
	custom := builtin
	custom.Combo = customHiHi(t)
	run := func(ev *Evaluator, spec RunSpec) RunResult {
		t.Helper()
		r, err := ev.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run(shortEvaluator(), custom)
	ev := shortEvaluator()
	base := run(ev, builtin)
	if base.AvgPower == want.AvgPower {
		t.Fatal("the custom and built-in Hi-Hi run alike; the check would prove nothing")
	}
	if got := run(ev, custom); got.AvgPower != want.AvgPower || got.Duration != want.Duration {
		t.Fatalf("custom Hi-Hi after the built-in: avg %g W, want %g W from a fresh evaluator (built-in %g W)",
			got.AvgPower, want.AvgPower, base.AvgPower)
	}
}

func TestHCAPPHoldsFastLimitOnSteadyCombo(t *testing.T) {
	ev := shortEvaluator()
	combo := mustCombo2(t, "Mid-Mid")
	r, err := ev.Run(RunSpec{Combo: combo, Scheme: mustScheme2(t, config.HCAPP), Limit: config.PackagePinLimit()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Violated {
		t.Fatalf("HCAPP violated the fast limit: max %g", r.MaxWindowPower)
	}
	if r.MaxOverLimit != r.MaxWindowPower/100 {
		t.Fatal("MaxOverLimit inconsistent")
	}
	if r.PPE <= 0 || r.PPE > 1.2 {
		t.Fatalf("PPE = %g", r.PPE)
	}
	if r.ControlCycles <= 0 {
		t.Fatal("no control cycles recorded")
	}
}

func TestSpeedupOver(t *testing.T) {
	base := RunResult{Completion: map[string]sim.Time{"cpu": 2000, "gpu": 1000, "sha": 4000}}
	faster := RunResult{Completion: map[string]sim.Time{"cpu": 1000, "gpu": 1000, "sha": 2000}}
	per, total := faster.SpeedupOver(base)
	if per["cpu"] != 2 || per["gpu"] != 1 || per["sha"] != 2 {
		t.Fatalf("per-component speedups %v", per)
	}
	want := math.Cbrt(2 * 1 * 2)
	if math.Abs(total-want) > 1e-12 {
		t.Fatalf("Eq. 3 total = %g, want %g", total, want)
	}
}

// TestSpeedupOverMissingComponent is the Eq. 3 regression test: a
// missing completion for any of cpu/gpu/sha must poison the total to
// NaN, not silently shrink the geomean to the surviving components
// (which inflates a failing scheme's speedup).
func TestSpeedupOverMissingComponent(t *testing.T) {
	base := RunResult{Completion: map[string]sim.Time{"cpu": 2000}}
	r := RunResult{Completion: map[string]sim.Time{"cpu": 1000}}
	per, total := r.SpeedupOver(base)
	if per["cpu"] != 2 {
		t.Fatalf("cpu speedup %g", per["cpu"])
	}
	if !math.IsNaN(per["gpu"]) || !math.IsNaN(per["sha"]) {
		t.Fatalf("missing components must poison to NaN, got gpu=%g sha=%g", per["gpu"], per["sha"])
	}
	if !math.IsNaN(total) {
		t.Fatalf("Eq. 3 total over a partial run must be NaN, got %g", total)
	}
}

// TestSpeedupOverClippedComponent covers the 2-of-3-finished case: every
// component has a completion time, but one was clipped at the run
// deadline rather than genuinely finishing. The clipped component — and
// therefore the Eq. 3 total — must be NaN.
func TestSpeedupOverClippedComponent(t *testing.T) {
	allDone := map[string]bool{"cpu": true, "gpu": true, "sha": true}
	base := RunResult{
		Completion: map[string]sim.Time{"cpu": 2000, "gpu": 1000, "sha": 4000},
		Finished:   allDone,
	}
	r := RunResult{
		// gpu "completed" at the 8000-tick deadline without finishing.
		Completion: map[string]sim.Time{"cpu": 1000, "gpu": 8000, "sha": 2000},
		Finished:   map[string]bool{"cpu": true, "gpu": false, "sha": true},
	}
	per, total := r.SpeedupOver(base)
	if per["cpu"] != 2 || per["sha"] != 2 {
		t.Fatalf("finished components wrong: %v", per)
	}
	if !math.IsNaN(per["gpu"]) {
		t.Fatalf("deadline-clipped component must be NaN, got %g", per["gpu"])
	}
	if !math.IsNaN(total) {
		t.Fatalf("Eq. 3 total with a clipped component must be NaN, got %g", total)
	}
	// A clipped *baseline* poisons too: speedup against a baseline that
	// never finished is meaningless.
	clippedBase := RunResult{
		Completion: base.Completion,
		Finished:   map[string]bool{"cpu": false, "gpu": true, "sha": true},
	}
	full := RunResult{Completion: map[string]sim.Time{"cpu": 1000, "gpu": 500, "sha": 2000}, Finished: allDone}
	if _, total := full.SpeedupOver(clippedBase); !math.IsNaN(total) {
		t.Fatalf("clipped baseline must poison the total, got %g", total)
	}
}

func TestPriorityFor(t *testing.T) {
	p := PriorityFor("gpu")
	if p["gpu"] != 1.0 || p["cpu"] != 0.9 || p["sha"] != 0.9 {
		t.Fatalf("PriorityFor(gpu) = %v", p)
	}
}

func TestTargetPowerFor(t *testing.T) {
	fast := TargetPowerFor(config.PackagePinLimit())
	slow := TargetPowerFor(config.OffPackageVRLimit())
	if fast >= slow {
		t.Fatalf("fast-window target %g must carry a larger guardband than slow %g", fast, slow)
	}
	if fast >= 100 || slow >= 100 {
		t.Fatal("targets must sit below the limit (guardband)")
	}
}

func TestDefaultPIDFor(t *testing.T) {
	gvr := config.Default().GlobalVR
	h := DefaultPIDFor(mustScheme2(t, config.HCAPP), gvr)
	r := DefaultPIDFor(mustScheme2(t, config.RAPLLike), gvr)
	s := DefaultPIDFor(mustScheme2(t, config.SWLike), gvr)
	if !(h.KI > r.KI && r.KI > s.KI) {
		t.Fatalf("KI must shrink with period: %g, %g, %g", h.KI, r.KI, s.KI)
	}
	if h.OutMin != gvr.VMin || h.OutMax != gvr.VMax {
		t.Fatal("PID clamps must match the VR range")
	}
	for _, cfg := range []struct {
		name string
		c    interface{ Validate() error }
	}{{"hcapp", h}, {"rapl", r}, {"sw", s}} {
		if err := cfg.c.Validate(); err != nil {
			t.Errorf("%s PID invalid: %v", cfg.name, err)
		}
	}
}

func TestPriorityRunSpeedsUpComponent(t *testing.T) {
	ev := shortEvaluator()
	combo := mustCombo2(t, "Mid-Mid")
	hc := mustScheme2(t, config.HCAPP)
	limit := config.PackagePinLimit()
	base, err := ev.Run(RunSpec{Combo: combo, Scheme: hc, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	prio, err := ev.Run(RunSpec{Combo: combo, Scheme: hc, Limit: limit, Priorities: PriorityFor("cpu")})
	if err != nil {
		t.Fatal(err)
	}
	per, _ := prio.SpeedupOver(base)
	if per["cpu"] <= 1.0 {
		t.Fatalf("prioritized CPU speedup = %g, want > 1", per["cpu"])
	}
}

func TestAdversarialAccelStaysUnderLimit(t *testing.T) {
	ev := shortEvaluator()
	combo := mustCombo2(t, "Hi-Hi")
	r, err := ev.Run(RunSpec{
		Combo: combo, Scheme: mustScheme2(t, config.HCAPP),
		Limit: config.PackagePinLimit(), AdversarialAccel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Violated {
		t.Fatalf("adversarial local controller broke the power limit: %g", r.MaxWindowPower)
	}
}

func TestEvaluatorDeterminism(t *testing.T) {
	run := func() RunResult {
		ev := shortEvaluator()
		r, err := ev.Run(RunSpec{
			Combo: mustCombo2(t, "Burst-Burst"), Scheme: mustScheme2(t, config.HCAPP),
			Limit: config.PackagePinLimit(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.AvgPower != b.AvgPower || a.MaxWindowPower != b.MaxWindowPower || a.Duration != b.Duration {
		t.Fatalf("evaluator runs diverged: %+v vs %+v", a, b)
	}
}

// TestEvaluatorRunKeepsNoPowerSeries is the horizon guard on every
// driver that reduces a run: going from a 2 ms to an 8 ms horizon, the
// bytes a BuildSized run, Fig. 1, Fig. 2, the retarget run and the
// fault sweep allocate may grow by a budget per output sample and, for
// the fault sweep, by the post-fault power tails its recovery scan
// reads, but not per step. A per-step power series (8 bytes a step,
// more with append slack and prefix sums) grows a run by about 0.5 MB
// and more; the budgets below are a few kilobytes.
func TestEvaluatorRunKeepsNoPowerSeries(t *testing.T) {
	combo, err := ComboByName("Burst-Burst")
	if err != nil {
		t.Fatal(err)
	}
	const short, long = 2 * sim.Millisecond, 8 * sim.Millisecond
	const sample = 20 * sim.Microsecond
	dt := config.Default().TimeStep
	// Every extra Fig. 1 / Fig. 2 output sample is one 16-byte Point,
	// with append slack.
	const perSample = 64
	extraSamples := uint64((long - short) / sample)
	// Each fault-sweep run keeps its power from the last fault's end
	// (half the horizon) on, in one allocation sized up front: 8 bytes
	// a tail step, rounded up to whole 8 KiB pages. The centralized
	// controller's ticks leave some garbage as well, about 70 kB per
	// centralized run over the extra 6 ms.
	sweepRuns := uint64(2 + len(DefaultFaultPlans(long, 7)))
	tailBytes := sweepRuns * (8*uint64((long-short)/2/dt) + 8<<10)
	const centralTicks = 256 << 10

	drivers := []struct {
		name   string
		budget uint64
		run    func(ev *Evaluator) error
	}{
		{"BuildSized run", 16 << 10, func(ev *Evaluator) error {
			_, run, err := ev.BuildSized(hcappSpec(combo, config.OffPackageVRLimit()), nil)
			if err == nil {
				_, err = run(context.Background())
			}
			return err
		}},
		{"Fig1", extraSamples * perSample, func(ev *Evaluator) error {
			_, _, err := ev.Fig1(combo, sample)
			return err
		}},
		{"Fig2", 2 * extraSamples * perSample, func(ev *Evaluator) error {
			_, _, err := ev.Fig2(combo, []sim.Time{20 * sim.Microsecond, sim.Millisecond}, sample)
			return err
		}},
		{"RunRetarget", 16 << 10, func(ev *Evaluator) error {
			_, err := ev.RunRetarget(combo)
			return err
		}},
		{"RunFaultSweep", tailBytes + centralTicks, func(ev *Evaluator) error {
			_, err := ev.RunFaultSweep(combo, config.PackagePinLimit(), 0, 7)
			return err
		}},
	}
	for _, d := range drivers {
		// One evaluator, warmed at both horizons, so its trace sets
		// are built before either measured run.
		ev := NewEvaluator()
		allocated := func(dur sim.Time) uint64 {
			ev.WithTargetDur(dur)
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := d.run(ev); err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			runtime.ReadMemStats(&m1)
			return m1.TotalAlloc - m0.TotalAlloc
		}
		allocated(short)
		allocated(long)
		a, b := allocated(short), allocated(long)
		growth := int64(b) - int64(a)
		t.Logf("%s: %d bytes at 2 ms, %d at 8 ms: grows %d, budget %d", d.name, a, b, growth, d.budget)
		if growth > int64(d.budget) {
			t.Errorf("%s allocates %d more bytes at 8 ms than at 2 ms, over its budget of %d: it keeps something per step", d.name, growth, d.budget)
		}
	}
}

// TestWireLimitWindowGrowsWithRun: a limit window arrives from the wire
// unchecked in a fleet run request. Its recorder's ring grows with the
// run, up to the window, so a 1 s window over a 1 ms run — 10^7 steps
// of window, 3·10^4 of run at most — allocates under 1 MB, and a window
// of 2^62 ns neither panics nor asks for memory it will not use.
func TestWireLimitWindowGrowsWithRun(t *testing.T) {
	combo, err := ComboByName("Burst-Burst")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator().WithTargetDur(sim.Millisecond)
	for _, window := range []sim.Time{sim.Second, 1e13, 1 << 62} {
		spec := hcappSpec(combo, config.PowerLimit{Name: "wire", Watts: 100, Window: window})
		if _, err := ev.Simulate(context.Background(), spec); err != nil { // warm the trace sets
			t.Fatal(err)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r, err := ev.Simulate(context.Background(), spec)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxWindowPower != r.AvgPower {
			t.Fatalf("window %d ns over a %d ns run: max window power %v, want the run average %v", window, r.Duration, r.MaxWindowPower, r.AvgPower)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("a %d ns window over a 1 ms run allocated %d bytes, want under 1 MiB", window, alloc)
		}
	}
}

// fmtRunKey is RunKey as fmt formats it: the formulation the strconv
// appends must reproduce byte for byte, since the key addresses every
// evaluator and fleet cache entry.
func fmtRunKey(seed int64, targetDur sim.Time, maxDurFactor, fixedV float64, trackEnergy bool, s RunSpec) string {
	k := fmt.Sprintf("%s|%s|%s", s.Combo.key(), s.Scheme.Kind, s.Limit.Name)
	if s.Scheme.Kind == config.FixedVoltage {
		k += fmt.Sprintf("|fixed=%g", s.Scheme.FixedV)
	}
	if len(s.Priorities) > 0 {
		names := make([]string, 0, len(s.Priorities))
		for n := range s.Priorities {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			k += fmt.Sprintf("|%s=%.3f", n, s.Priorities[n])
		}
	}
	if s.AdversarialAccel {
		k += "|adversarial"
	}
	if s.Policy != "" {
		k += "|policy=" + s.Policy
	}
	key := fmt.Sprintf("seed=%d|dur=%d|maxf=%g|fv=%g|%s", seed, targetDur, maxDurFactor, fixedV, k)
	if trackEnergy {
		key += "|energy=1"
	}
	return key
}

// TestRunKeyMatchesFmt: RunKey and RunSpec.key build with strconv the
// same bytes fmt's %d, %g and %.3f build, over every spec Figs. 4, 5
// and 10 submit plus fixed-voltage, priority, policy and adversarial
// specs, under several evaluator parameter sets.
func TestRunKeyMatchesFmt(t *testing.T) {
	rec := &fakeRemote{}
	ev := shortEvaluator()
	ev.Remote = rec
	for _, fig := range []func() (*Matrix, error){ev.Fig4, ev.Fig5, ev.Fig10} {
		if _, err := fig(); err != nil {
			t.Fatal(err)
		}
	}
	var specs []RunSpec
	for _, b := range rec.batches() {
		specs = append(specs, b...)
	}
	if len(specs) != 56 {
		t.Fatalf("Figs. 4, 5 and 10 sent %d specs, want 56", len(specs))
	}
	hiHi := mustCombo2(t, "Hi-Hi")
	hcapp := mustScheme2(t, config.HCAPP)
	for _, v := range []float64{0.95, 0.8, 1, 1.0000001, 1e-7, 123456789} {
		specs = append(specs, RunSpec{Combo: hiHi, Scheme: config.Scheme{Kind: config.FixedVoltage, FixedV: v}, Limit: config.OffPackageVRLimit()})
	}
	specs = append(specs,
		RunSpec{Combo: hiHi, Scheme: hcapp, Limit: config.PackagePinLimit(), Priorities: map[string]float64{"cpu": 1, "gpu": 0.9, "sha": 0.12345, "io": -0.0005}},
		RunSpec{Combo: hiHi, Scheme: hcapp, Limit: config.PackagePinLimit(), AdversarialAccel: true},
		RunSpec{Combo: customHiHi(t), Scheme: hcapp, Limit: config.PackagePinLimit(), Policy: "progress-balancer", AdversarialAccel: true,
			Priorities: PriorityFor("gpu")},
	)
	for _, p := range SoftwarePolicies() {
		specs = append(specs, RunSpec{Combo: hiHi, Scheme: hcapp, Limit: config.PackagePinLimit(), Policy: p.Name()})
	}
	params := []struct {
		seed         int64
		dur          sim.Time
		maxf, fixedV float64
		trackEnergy  bool
	}{
		{42, 2 * sim.Millisecond, DefaultMaxDurFactor, DefaultFixedV, false},
		{-7, 1, 2.5, 0.9, true},
		{1 << 40, 16 * sim.Millisecond, 1e21, 1e-5, false},
	}
	for _, p := range params {
		for _, s := range specs {
			if got, want := RunKey(p.seed, p.dur, p.maxf, p.fixedV, p.trackEnergy, s), fmtRunKey(p.seed, p.dur, p.maxf, p.fixedV, p.trackEnergy, s); got != want {
				t.Fatalf("RunKey = %q, fmt formulation %q", got, want)
			}
		}
	}
}
