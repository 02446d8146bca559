// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations and micro-benchmarks of the hot paths.
//
// Each figure benchmark executes the corresponding experiment end to end
// (workload generation, co-simulation, metric extraction), reports the
// headline numbers as benchmark metrics, and logs the rendered
// paper-style table on the first iteration:
//
//	go test -bench=Fig9 -benchmem -v
//
// The evaluation horizon is reduced from the paper's ~200 ms to 12 ms to
// keep the full harness runnable in minutes; EXPERIMENTS.md records the
// paper-vs-measured comparison produced at this horizon.
package hcapp_test

import (
	"slices"
	"testing"
	"time"

	"hcapp"
	"hcapp/internal/telemetry"
)

// benchDur is the evaluation horizon for figure benchmarks: long enough
// for the 10 ms SW-like controller to act, short enough to iterate.
const benchDur = 12 * hcapp.Millisecond

func newBenchEvaluator() *hcapp.Evaluator {
	return hcapp.NewEvaluator().WithTargetDur(benchDur)
}

func BenchmarkTable1DelayBudget(b *testing.B) {
	feasible := false
	for i := 0; i < b.N; i++ {
		budget := hcapp.DelayBudget()
		feasible = budget.Feasible()
	}
	if !feasible {
		b.Fatal("delay budget infeasible")
	}
	b.Logf("\n%s", hcapp.Table1())
}

func BenchmarkFig1StaticPowerTrace(b *testing.B) {
	combo, err := hcapp.ComboByName("Burst-Burst")
	if err != nil {
		b.Fatal(err)
	}
	var peak float64
	for i := 0; i < b.N; i++ {
		ev := newBenchEvaluator()
		pts, _, err := ev.Fig1(combo, 100*hcapp.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, p := range pts {
			if p.P > peak {
				peak = p.P
			}
		}
	}
	b.ReportMetric(peak, "peak/avg")
	b.Logf("Fig 1 (%s, static 0.95 V): peak %.2f× average power", combo.Name, peak)
}

func BenchmarkFig2PowerWindows(b *testing.B) {
	combo, err := hcapp.ComboByName("Burst-Burst")
	if err != nil {
		b.Fatal(err)
	}
	windows := []hcapp.Time{20 * hcapp.Microsecond, 1 * hcapp.Millisecond, 10 * hcapp.Millisecond}
	peaks := map[hcapp.Time]float64{}
	for i := 0; i < b.N; i++ {
		ev := newBenchEvaluator()
		series, _, err := ev.Fig2(combo, windows, 100*hcapp.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range windows {
			m := 0.0
			for _, p := range series[w] {
				if p.P > m {
					m = p.P
				}
			}
			peaks[w] = m
		}
	}
	b.ReportMetric(peaks[windows[0]], "peak20us")
	b.ReportMetric(peaks[windows[1]], "peak1ms")
	b.Logf("Fig 2 peaks/avg: 20µs %.3f, 1ms %.3f, 10ms %.3f",
		peaks[windows[0]], peaks[windows[1]], peaks[windows[2]])
}

// figureBench runs one matrix-producing experiment per iteration and
// reports the named rows' averages as metrics.
func figureBench(b *testing.B, run func(*hcapp.Evaluator) (*hcapp.Matrix, error), metricRows map[string]string) {
	b.Helper()
	var m *hcapp.Matrix
	for i := 0; i < b.N; i++ {
		ev := newBenchEvaluator()
		var err error
		m, err = run(ev)
		if err != nil {
			b.Fatal(err)
		}
	}
	for row, metric := range metricRows {
		b.ReportMetric(m.RowAvg(row), metric)
	}
	b.Logf("\n%s", m.Render())
}

func BenchmarkFig4MaxPowerFastLimit(b *testing.B) {
	figureBench(b, func(ev *hcapp.Evaluator) (*hcapp.Matrix, error) { return ev.Fig4() },
		map[string]string{"HCAPP": "hcapp-max", "RAPL-like HCAPP": "rapl-max"})
}

func BenchmarkFig5SpeedupFastLimit(b *testing.B) {
	figureBench(b, func(ev *hcapp.Evaluator) (*hcapp.Matrix, error) { return ev.Fig5() },
		map[string]string{"HCAPP": "hcapp-speedup"})
}

// BenchmarkFig5SpeedupParallel is BenchmarkFig5SpeedupFastLimit with
// the runs sharded over a 4-worker runner; compare the two to measure
// the scheduler's speedup on a multi-core host (the rendered matrix is
// byte-identical either way).
func BenchmarkFig5SpeedupParallel(b *testing.B) {
	figureBench(b, func(ev *hcapp.Evaluator) (*hcapp.Matrix, error) {
		return ev.WithRunner(hcapp.NewRunner(4)).Fig5()
	}, map[string]string{"HCAPP": "hcapp-speedup"})
}

func BenchmarkFig6PPEFastLimit(b *testing.B) {
	figureBench(b, func(ev *hcapp.Evaluator) (*hcapp.Matrix, error) { return ev.Fig6() },
		map[string]string{"HCAPP": "hcapp-ppe", "Fixed Voltage": "fixed-ppe"})
}

func BenchmarkFig7MaxPowerSlowLimit(b *testing.B) {
	figureBench(b, func(ev *hcapp.Evaluator) (*hcapp.Matrix, error) { return ev.Fig7() },
		map[string]string{"HCAPP": "hcapp-max", "SW-like HCAPP": "sw-max"})
}

func BenchmarkFig8SpeedupSlowLimit(b *testing.B) {
	figureBench(b, func(ev *hcapp.Evaluator) (*hcapp.Matrix, error) { return ev.Fig8() },
		map[string]string{"HCAPP": "hcapp-speedup", "RAPL-like HCAPP": "rapl-speedup"})
}

func BenchmarkFig9PPESlowLimit(b *testing.B) {
	figureBench(b, func(ev *hcapp.Evaluator) (*hcapp.Matrix, error) { return ev.Fig9() },
		map[string]string{"HCAPP": "hcapp-ppe", "RAPL-like HCAPP": "rapl-ppe", "SW-like HCAPP": "sw-ppe"})
}

func BenchmarkFig10PrioritySpeedup(b *testing.B) {
	figureBench(b, func(ev *hcapp.Evaluator) (*hcapp.Matrix, error) { return ev.Fig10() },
		map[string]string{"CPU": "cpu-speedup", "GPU": "gpu-speedup", "SHA": "sha-speedup"})
}

// BenchmarkAblationAdversarialLocal exercises §3.3.3: the package power
// limit must survive an adversarial accelerator local controller; the
// cost falls on the adversary's neighbours.
func BenchmarkAblationAdversarialLocal(b *testing.B) {
	combo, err := hcapp.ComboByName("Hi-Hi")
	if err != nil {
		b.Fatal(err)
	}
	limit := hcapp.PackagePinLimit()
	var honest, adv hcapp.RunResult
	for i := 0; i < b.N; i++ {
		ev := newBenchEvaluator()
		honest, err = ev.Run(hcapp.RunSpec{Combo: combo, Scheme: hcapp.HCAPPScheme(), Limit: limit})
		if err != nil {
			b.Fatal(err)
		}
		adv, err = ev.Run(hcapp.RunSpec{Combo: combo, Scheme: hcapp.HCAPPScheme(), Limit: limit, AdversarialAccel: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	if adv.Violated {
		b.Fatal("adversarial local controller broke the limit")
	}
	b.ReportMetric(adv.MaxOverLimit, "adv-max")
	b.ReportMetric(float64(adv.Completion["cpu"])/float64(honest.Completion["cpu"]), "cpu-slowdown")
	b.Logf("adversarial accel: max %.3f× limit (honest %.3f×); cpu completion %.3f× honest",
		adv.MaxOverLimit, honest.MaxOverLimit,
		float64(adv.Completion["cpu"])/float64(honest.Completion["cpu"]))
}

// BenchmarkAblationChipletScaling regenerates the decentralization claim:
// HCAPP's max-power ratio stays flat as chiplet triples multiply, while a
// centralized controller's aggregation latency stretches its period and
// its control quality collapses.
func BenchmarkAblationChipletScaling(b *testing.B) {
	var res *hcapp.ScalingResult
	for i := 0; i < b.N; i++ {
		sc := hcapp.DefaultScalingConfig()
		sc.ChipletCounts = []int{1, 4, 16}
		sc.Dur = 2 * hcapp.Millisecond
		var err error
		res, err = hcapp.RunScaling(hcapp.DefaultConfig(), sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.HCAPPMax, "hcapp-max@16")
	b.ReportMetric(last.CentralMax, "central-max@16")
	b.Logf("\n%s", res.Render())
}

// BenchmarkAblationGuardband sweeps the HCAPP power target against the
// fast limit, exposing the guardband DESIGN.md calls out: higher targets
// buy PPE until window violations appear.
func BenchmarkAblationGuardband(b *testing.B) {
	combo, err := hcapp.ComboByName("Burst-Burst")
	if err != nil {
		b.Fatal(err)
	}
	limit := hcapp.PackagePinLimit()
	cfg := hcapp.DefaultConfig()
	type point struct {
		target, maxOver, ppe float64
	}
	var pts []point
	for i := 0; i < b.N; i++ {
		pts = pts[:0]
		sizing, err := hcapp.SizeWork(cfg, combo, 0.95, 4*hcapp.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		for frac := 0.78; frac <= 1.0; frac += 0.04 {
			target := limit.Watts * frac
			sys, err := hcapp.Build(cfg, combo, hcapp.BuildOptions{
				Scheme:      hcapp.HCAPPScheme(),
				TargetPower: target,
				CPUWork:     sizing.CPUWork,
				GPUWork:     sizing.GPUWork,
				AccelWorkGB: sizing.AccelGB,
			})
			if err != nil {
				b.Fatal(err)
			}
			sys.Engine.Run(12 * hcapp.Millisecond)
			rec := sys.Engine.Recorder()
			pts = append(pts, point{
				target:  target,
				maxOver: rec.MaxWindowAvg(limit.Window) / limit.Watts,
				ppe:     rec.PPE(limit.Watts),
			})
		}
	}
	for _, p := range pts {
		b.Logf("target %5.1f W: max %.3f× limit, PPE %.3f", p.target, p.maxOver, p.ppe)
	}
	b.ReportMetric(pts[0].ppe, "ppe@0.78")
	b.ReportMetric(pts[len(pts)-1].maxOver, "max@1.00")
}

// BenchmarkEngineStep measures raw co-simulation throughput: one full
// package (25 execution units + delivery network + controllers) per
// engine step.
func BenchmarkEngineStep(b *testing.B) {
	cfg := hcapp.DefaultConfig()
	combo, err := hcapp.ComboByName("Hi-Hi")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := hcapp.Build(cfg, combo, hcapp.BuildOptions{
		Scheme:      hcapp.HCAPPScheme(),
		TargetPower: hcapp.TargetPowerFor(hcapp.PackagePinLimit()),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Engine.RunFor(cfg.TimeStep)
	}
}

// newObservedSystem builds the BenchmarkEngineStep system with the
// hcapp-serve style telemetry observer attached: per-domain power and
// voltage gauges, a package power gauge, and a step counter, all on the
// label-cached zero-alloc path.
func newObservedSystem(tb testing.TB) *hcapp.System {
	cfg := hcapp.DefaultConfig()
	combo, err := hcapp.ComboByName("Hi-Hi")
	if err != nil {
		tb.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	obs := &benchObserver{
		steps: reg.Counter("hcapp_sim_steps_total", "Engine steps.", "job").With("bench"),
		pkg:   reg.Gauge("hcapp_package_power_watts", "Package power.", "job").With("bench"),
	}
	powerVec := reg.Gauge("hcapp_domain_power_watts", "Domain power.", "job", "domain")
	voltVec := reg.Gauge("hcapp_domain_voltage_volts", "Domain voltage.", "job", "domain")
	for _, d := range []string{"cpu", "gpu", "sha", "mem"} {
		obs.power = append(obs.power, powerVec.With("bench", d))
		obs.volt = append(obs.volt, voltVec.With("bench", d))
	}
	sys, err := hcapp.Build(cfg, combo, hcapp.BuildOptions{
		Scheme:      hcapp.HCAPPScheme(),
		TargetPower: hcapp.TargetPowerFor(hcapp.PackagePinLimit()),
		Observer:    obs,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

type benchObserver struct {
	steps       *telemetry.Counter
	pkg         *telemetry.Gauge
	power, volt []*telemetry.Gauge
}

func (o *benchObserver) ObserveSteps(_, _ hcapp.Time, n int64, total float64, domains []hcapp.DomainSample) {
	o.steps.Add(float64(n))
	o.pkg.Set(total)
	for i := range domains {
		o.power[i].Set(domains[i].Power)
		o.volt[i].Set(domains[i].Voltage)
	}
}

// BenchmarkEngineStepInstrumented is BenchmarkEngineStep with the live
// telemetry observer attached; compare the two to price the hook. The
// budget is < 8% overhead (TestInstrumentedStepOverhead enforces it).
func BenchmarkEngineStepInstrumented(b *testing.B) {
	cfg := hcapp.DefaultConfig()
	sys := newObservedSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Engine.RunFor(cfg.TimeStep)
	}
}

// TestInstrumentedStepOverhead measures instrumented vs uninstrumented
// engine stepping back to back and fails if telemetry costs more than
// 8% — the contract that lets hcapp-serve instrument every job. The
// budget was 5% against the pre-SoA step loop; the loop is now ~40%
// faster, so the hook's unchanged absolute cost (a counter bump plus
// ten gauge stores) is a larger relative share even though instrumented
// stepping is faster than it has ever been.
func TestInstrumentedStepOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates the telemetry ops being priced")
	}
	cfg := hcapp.DefaultConfig()
	combo, err := hcapp.ComboByName("Hi-Hi")
	if err != nil {
		t.Fatal(err)
	}
	base, err := hcapp.Build(cfg, combo, hcapp.BuildOptions{
		Scheme:      hcapp.HCAPPScheme(),
		TargetPower: hcapp.TargetPowerFor(hcapp.PackagePinLimit()),
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := newObservedSystem(t)
	ratio, tBase, tInst := pairedStepRatio(t, base, inst)
	t.Logf("median trial: uninstrumented %v, instrumented %v; median pair ratio %.3f", tBase, tInst, ratio)
	if ratio > 1.08 {
		t.Errorf("telemetry overhead %.1f%% exceeds the 8%% budget", 100*(ratio-1))
	}
}

// newEnergyTrackedSystem builds the BenchmarkEngineStep system with the
// energy-attribution ledger attached (unit meters on, per-step
// activity-share split and ground-truth integration).
func newEnergyTrackedSystem(tb testing.TB) *hcapp.System {
	cfg := hcapp.DefaultConfig()
	combo, err := hcapp.ComboByName("Hi-Hi")
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := hcapp.Build(cfg, combo, hcapp.BuildOptions{
		Scheme:      hcapp.HCAPPScheme(),
		TargetPower: hcapp.TargetPowerFor(hcapp.PackagePinLimit()),
		TrackEnergy: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// BenchmarkEngineStepEnergyLedger is BenchmarkEngineStep with the energy
// ledger attached; compare the two to price per-step attribution. The
// budget is < 8% overhead (TestEnergyLedgerStepOverhead enforces it).
func BenchmarkEngineStepEnergyLedger(b *testing.B) {
	cfg := hcapp.DefaultConfig()
	sys := newEnergyTrackedSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Engine.RunFor(cfg.TimeStep)
	}
}

// TestEnergyLedgerStepOverhead gates the energy ledger's own per-step
// cost — energy-tracked minus plain stepping — against a fixed budget,
// the contract that lets fleet workers account every job's energy. The
// budget does not scale with the plain step: a faster engine must not
// let the ledger grow, nor fail a ledger that stayed the same.
//
// Each of the 101 pairs also runs hostProbe, a fixed workload, and the
// gate reads the median over pairs of (tracked − plain) / probe time,
// so host speed cancels as it does in a time ratio. The budget is one
// probe — 100–210 ns per step of the timed span on the reference
// two-core host, by its load — which the ledger as it stood before its
// meters were read in place exceeded (1.2–1.5 probes).
func TestEnergyLedgerStepOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates the ledger ops being priced")
	}
	cfg := hcapp.DefaultConfig()
	combo, err := hcapp.ComboByName("Hi-Hi")
	if err != nil {
		t.Fatal(err)
	}
	base, err := hcapp.Build(cfg, combo, hcapp.BuildOptions{
		Scheme:      hcapp.HCAPPScheme(),
		TargetPower: hcapp.TargetPowerFor(hcapp.PackagePinLimit()),
	})
	if err != nil {
		t.Fatal(err)
	}
	tracked := newEnergyTrackedSystem(t)
	p := pairedSteps(t, base, tracked, newHostProbe().run)
	cost := make([]float64, len(p.a))
	for i := range cost {
		cost[i] = (p.b[i] - p.a[i]).Seconds() / p.probe[i].Seconds()
	}
	slices.Sort(cost)
	median := cost[len(cost)/2]
	steps := float64(pairSpan / cfg.TimeStep)
	probeNs := float64(p.median(p.probe).Nanoseconds()) / steps
	t.Logf("median trial: plain %v, energy-tracked %v, probe %v", p.median(p.a), p.median(p.b), p.median(p.probe))
	t.Logf("ledger cost %.3f of the budget (≈%.0f ns/step at this host's %.0f ns/step probe), %.1f%% of a plain step",
		median, median*probeNs, probeNs, 100*(p.ratio()-1))
	if median > 1 {
		t.Errorf("energy-ledger cost %.3f× its budget (one hostProbe per step)", median)
	}
	if tracked.Energy == nil || tracked.Energy.Summary().TotalJ <= 0 {
		t.Error("energy-tracked system integrated no energy")
	}
}

// hostProbeSteps sizes hostProbe, and with it the ledger's budget.
const hostProbeSteps = 1300

// hostProbe is the ledger guard's yardstick: a frozen copy of the
// ledger's per-step work — read 8-, 15- and 1-unit meters through
// their unit pointers, then integrate true power and split the domain
// energy by activity share — over fixed synthetic samples. It is code
// of the same shape as what it measures, so a host state that slows
// the ledger's loads and dependent float chains slows the probe alike,
// and it never changes with the code under test.
type hostProbe struct {
	slots []probeSlot
	sink  float64
}

type probeUnit struct{ act, watts float64 }

type probeSlot struct {
	units             []*probeUnit
	act, pwr, att, gt []float64
	domainJ, watts    float64
}

func newHostProbe() *hostProbe {
	p := &hostProbe{}
	for k, n := range []int{8, 15, 1} {
		st := probeSlot{watts: 20 + float64(k)}
		for u := 0; u < n; u++ {
			st.units = append(st.units, &probeUnit{act: 0.1 + 0.05*float64(u%7), watts: 0.5 + 0.1*float64(u%5)})
		}
		st.act, st.pwr = make([]float64, n), make([]float64, n)
		st.att, st.gt = make([]float64, n), make([]float64, n)
		p.slots = append(p.slots, st)
	}
	return p
}

func (p *hostProbe) run() {
	const sec = 1e-7
	for step := 0; step < hostProbeSteps; step++ {
		for k := range p.slots {
			st := &p.slots[k]
			for u, un := range st.units {
				st.act[u] = un.act
				st.pwr[u] = un.watts
			}
		}
		for k := range p.slots {
			st := &p.slots[k]
			ej := st.watts * sec
			st.domainJ += ej
			actSum := 0.0
			for u := range st.act {
				actSum += st.act[u]
				st.gt[u] += st.pwr[u] * sec
			}
			last := len(st.act) - 1
			assigned := 0.0
			inv := ej / actSum
			for u := 0; u < last; u++ {
				e := st.act[u] * inv
				st.att[u] += e
				assigned += e
			}
			st.att[last] += ej - assigned
		}
	}
	p.sink += p.slots[1].att[0]
}

// pairSpan is the simulated time of each timed trial in pairedSteps.
const pairSpan = 100 * hcapp.Microsecond

// stepPairs holds pairedSteps' per-pair wall-clock times.
type stepPairs struct {
	a, b, probe []time.Duration
}

// ratio returns the median of the per-pair time ratios b/a.
func (p stepPairs) ratio() float64 {
	r := make([]float64, len(p.a))
	for i := range r {
		r[i] = p.b[i].Seconds() / p.a[i].Seconds()
	}
	slices.Sort(r)
	return r[len(r)/2]
}

// median returns the median of one variant's trial times.
func (p stepPairs) median(d []time.Duration) time.Duration {
	d = slices.Clone(d)
	slices.Sort(d)
	return d[len(d)/2]
}

// pairedStepRatio returns the median of the per-pair time ratios b/a,
// with each system's median trial time for the log.
func pairedStepRatio(t *testing.T, a, b *hcapp.System) (ratio float64, medA, medB time.Duration) {
	p := pairedSteps(t, a, b, nil)
	return p.ratio(), p.median(p.a), p.median(p.b)
}

// pairedSteps times the two systems' stepping in 101 short alternating
// trials of pairSpan each, and, when probe is not nil, one probe call
// after each pair. Short pairs put both variants under the same host
// conditions, alternating which one goes first cancels any order
// effect, and a median over pairs ignores the pairs a burst of
// contention split unevenly.
//
// The overhead tests run Hi-Hi under HCAPP, which never strides (the
// controller re-commands the rail every 1 µs period), so they price
// the observer's per-step path — one ObserveSteps call per step — with
// the budgets set before observers could stride; the guard below keeps
// that true.
func pairedSteps(t *testing.T, a, b *hcapp.System, probe func()) stepPairs {
	const (
		warmup = 2 * hcapp.Millisecond
		pairs  = 101
	)
	// Warm-up pass faults in code and sizes trace buffers.
	a.Engine.RunFor(warmup)
	b.Engine.RunFor(warmup)
	timed := func(s *hcapp.System) time.Duration {
		start := time.Now()
		s.Engine.RunFor(pairSpan)
		return time.Since(start)
	}
	p := stepPairs{a: make([]time.Duration, pairs), b: make([]time.Duration, pairs)}
	if probe != nil {
		p.probe = make([]time.Duration, pairs)
	}
	for i := 0; i < pairs; i++ {
		if i%2 == 0 {
			p.a[i] = timed(a)
			p.b[i] = timed(b)
		} else {
			p.b[i] = timed(b)
			p.a[i] = timed(a)
		}
		if probe != nil {
			start := time.Now()
			probe()
			p.probe[i] = time.Since(start)
		}
	}
	if a.Engine.StridedSteps() != 0 || b.Engine.StridedSteps() != 0 {
		t.Fatal("timed workload strides: the overhead budgets price per-step observation")
	}
	return p
}

// BenchmarkEvaluatorRun measures one full combo simulation at a 1 ms
// horizon (build + run + metrics).
func BenchmarkEvaluatorRun(b *testing.B) {
	combo, err := hcapp.ComboByName("Mid-Mid")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ev := hcapp.NewEvaluator().WithTargetDur(1 * hcapp.Millisecond)
		if _, err := ev.Run(hcapp.RunSpec{
			Combo: combo, Scheme: hcapp.HCAPPScheme(), Limit: hcapp.PackagePinLimit(),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLocalControllers compares the level-3 designs: no
// local controllers, the paper's dynamic-IPC pair, and the GPU-CAPP
// dynamic-occupancy alternative (§3.3.1–§3.3.2).
func BenchmarkAblationLocalControllers(b *testing.B) {
	var m *hcapp.Matrix
	for i := 0; i < b.N; i++ {
		ev := newBenchEvaluator()
		var err error
		m, err = ev.AblationLocalControllers()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.RowAvg("no local controllers"), "no-local")
	b.ReportMetric(m.RowAvg("dynamic IPC (paper)"), "dyn-ipc")
	b.ReportMetric(m.RowAvg("dynamic occupancy"), "dyn-occ")
	b.Logf("\n%s", m.Render())
}

// BenchmarkAblationClocking quantifies the §3.5 guardband tax against
// adaptive clocking.
func BenchmarkAblationClocking(b *testing.B) {
	var m *hcapp.Matrix
	for i := 0; i < b.N; i++ {
		ev := newBenchEvaluator()
		var err error
		m, err = ev.AblationClocking()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.RowAvg("adaptive clocking"), "adaptive")
	b.ReportMetric(m.RowAvg("guardband 50 mV"), "gb50mV")
	b.Logf("\n%s", m.Render())
}

// BenchmarkExtensionSoftwarePolicies measures the §6 software policies'
// makespan gains on imbalanced work pools.
func BenchmarkExtensionSoftwarePolicies(b *testing.B) {
	var m *hcapp.Matrix
	for i := 0; i < b.N; i++ {
		ev := newBenchEvaluator()
		var err error
		m, err = ev.ExtensionSoftwarePolicies()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.RowAvg("progress-balancer"), "balancer")
	b.ReportMetric(m.RowAvg("critical-path"), "critpath")
	b.Logf("\n%s", m.Render())
}

// BenchmarkExtensionCentralized measures the structurally centralized
// allocator against HCAPP at the fast limit (§2 made quantitative).
func BenchmarkExtensionCentralized(b *testing.B) {
	var m *hcapp.Matrix
	for i := 0; i < b.N; i++ {
		ev := newBenchEvaluator()
		var err error
		m, err = ev.ExtensionCentralized(hcapp.PackagePinLimit())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.RowMax("HCAPP"), "hcapp-max")
	b.ReportMetric(m.RowMax("Centralized"), "central-max")
	b.Logf("\n%s", m.Render())
}

// BenchmarkThermalCheck verifies the below-TDP assumption (§3.5) while
// measuring the thermally-instrumented simulation's cost.
func BenchmarkThermalCheck(b *testing.B) {
	var cpu, gpu float64
	var tripped bool
	for i := 0; i < b.N; i++ {
		ev := newBenchEvaluator()
		var err error
		cpu, gpu, tripped, err = ev.ThermalCheck()
		if err != nil {
			b.Fatal(err)
		}
	}
	if tripped {
		b.Fatal("thermal protection tripped at evaluation power")
	}
	b.ReportMetric(cpu, "peak-cpu-C")
	b.ReportMetric(gpu, "peak-gpu-C")
}

// BenchmarkSeedRobustness re-runs the suite under several workload
// seeds and reports the spread of the headline metrics — the paper's
// single-seed numbers must not be seed artifacts.
func BenchmarkSeedRobustness(b *testing.B) {
	var sw *hcapp.SeedSweep
	for i := 0; i < b.N; i++ {
		var err error
		sw, err = hcapp.RunSeedSweep([]int64{1, 2, 3, 42}, hcapp.OffPackageVRLimit(), 4*hcapp.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	if sw.Violations != 0 {
		b.Fatalf("HCAPP violated under %d seeds", sw.Violations)
	}
	b.Logf("\n%s", sw.Render())
}

// BenchmarkRobustnessSensorFaults characterizes HCAPP under sensor
// defects: an optimistic sensor over-drives the package (the documented
// failure mode), a pessimistic one wastes PPE, a healthy one holds the
// limit.
func BenchmarkRobustnessSensorFaults(b *testing.B) {
	combo, err := hcapp.ComboByName("Mid-Mid")
	if err != nil {
		b.Fatal(err)
	}
	var healthy, optimistic float64
	for i := 0; i < b.N; i++ {
		ev := newBenchEvaluator()
		results, err := ev.RunFaultInjection(combo)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			switch r.Scenario.Name {
			case "healthy":
				healthy = r.MaxOverLimit
			case "optimistic -25%":
				optimistic = r.MaxOverLimit
			}
		}
	}
	b.ReportMetric(healthy, "healthy-max")
	b.ReportMetric(optimistic, "optimistic-max")
}

// BenchmarkAblationVREfficiency quantifies how global-VR conversion
// losses eat the power-target guardband.
func BenchmarkAblationVREfficiency(b *testing.B) {
	var m *hcapp.Matrix
	for i := 0; i < b.N; i++ {
		ev := newBenchEvaluator()
		var err error
		m, err = ev.AblationVREfficiency()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.RowMax("lossless (paper)"), "lossless-max")
	b.ReportMetric(m.RowMax("90% efficient"), "eff90-max")
	b.Logf("\n%s", m.Render())
}

// BenchmarkDynamicRetarget validates the §5.2 claim that the power
// target can change mid-run without PID retuning: each half of the run
// must track its own target with the same constants.
func BenchmarkDynamicRetarget(b *testing.B) {
	combo, err := hcapp.ComboByName("Mid-Mid")
	if err != nil {
		b.Fatal(err)
	}
	var first, second float64
	for i := 0; i < b.N; i++ {
		ev := newBenchEvaluator()
		r, err := ev.RunRetarget(combo)
		if err != nil {
			b.Fatal(err)
		}
		first, second = r.FirstAvg, r.SecondAvg
	}
	b.ReportMetric(first, "first-avg-W")
	b.ReportMetric(second, "second-avg-W")
}
