package chiplet

import (
	"fmt"
	"math"
	"testing"

	"hcapp/internal/core"
	"hcapp/internal/sim"
	"hcapp/internal/thermal"
	"hcapp/internal/workload"
)

// pinnedLocal is a level-3 controller that holds one ratio forever, so
// a test can give each unit the local voltage it wants.
type pinnedLocal float64

func (p pinnedLocal) Epoch(sim.Time, core.Metrics, float64) float64 { return float64(p) }
func (p pinnedLocal) Ratio() float64                                { return float64(p) }
func (p pinnedLocal) Reset()                                        {}

// mixedChiplet builds a metered chiplet whose units hold the given
// local ratios (repeats share a local voltage, so the table both hits
// and misses within one step) over a two-phase trace whose phases hold
// phaseInstr and phaseInstr/2 instructions. A unit at ratio exactly 1
// gets no local controller, so StepN replays both kinds of unit. work
// is the chiplet's work pool (zero runs forever).
func mixedChiplet(t testing.TB, ratios []float64, margin float64, th *thermal.Config, phaseInstr, work float64) *Chiplet {
	t.Helper()
	tr := &workload.Trace{Name: "two-phase", Phases: []workload.Phase{
		{Instr: phaseInstr, IPC: 1.5, MemFrac: 0.2, Activity: 0.7, StallAct: 0.1},
		{Instr: phaseInstr / 2, IPC: 0.8, MemFrac: 0.5, Activity: 0.4, StallAct: 0.05},
	}}
	specs := make([]UnitSpec, len(ratios))
	for i, r := range ratios {
		specs[i] = UnitSpec{Trace: tr, StartPhase: i % 2}
		if r != 1 {
			specs[i].Local = pinnedLocal(r)
		}
	}
	m := testModel()
	if th != nil {
		m.CEff *= 6 // hot enough to trip the node below
	}
	c, err := New(Config{
		Name: "mixed", Units: specs, Model: m,
		LocalEpoch: 2 * sim.Microsecond,
		UncoreLeak: 1.0, UncoreDyn: 1.0,
		Thermal:       th,
		VoltageMargin: margin,
		TotalWork:     work,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableUnitMeter()
	return c
}

// directStep runs one Step and checks its power against the model
// evaluated directly — Freq(vlocal − margin) and Leakage(vlocal) with
// no table — bit for bit, per unit and in total.
func directStep(t testing.TB, c *Chiplet, now sim.Time, vdd float64) {
	t.Helper()
	ratios := make([]float64, c.Units())
	throttle := c.ThermalTripped()
	for i := range ratios {
		ratios[i] = c.UnitRatio(i)
		if throttle && ratios[i] > c.cfg.ThermalThrottleRatio {
			ratios[i] = c.cfg.ThermalThrottleRatio
		}
	}
	got := c.Step(now, 100, vdd).Power
	act, watts, actSum := c.UnitSamples()
	m := c.cfg.Model
	want := 0.0
	sum := 0.0
	for i, r := range ratios {
		v := vdd * r
		up := m.Dynamic(v, m.DVFS.Freq(v-c.cfg.VoltageMargin), act[i]) + m.Leakage(v)
		if math.Float64bits(up) != math.Float64bits(watts[i]) {
			t.Fatalf("vdd %v unit %d (ratio %v): Step drew %v, the model gives %v", vdd, i, r, watts[i], up)
		}
		want += up
		sum += act[i]
	}
	if math.Float64bits(sum) != math.Float64bits(actSum) {
		t.Fatalf("vdd %v: activity sum %v, units sum to %v", vdd, actSum, sum)
	}
	vn := vdd / m.DVFS.VNom
	if vn < 0 {
		vn = 0
	}
	want += (c.cfg.UncoreLeak + c.cfg.UncoreDyn*(sum/float64(len(ratios)))) * vn * vn * vn
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("vdd %v: Step drew %v, the model gives %v", vdd, got, want)
	}
}

// coldSteadyFor is SteadyFor with the per-voltage table and every
// unit's operating point emptied first, so everything it needs is
// evaluated afresh. It restores both afterwards, so a stale entry the
// warm state carries stays there for the next check to find.
func coldSteadyFor(c *Chiplet, now, dt sim.Time, vdd float64) int64 {
	vtab, vlen, vnext, vlast := c.vtab, c.vlen, c.vnext, c.vlast
	ops := make([]opPoint, len(c.units))
	for i, u := range c.units {
		ops[i], u.op = u.op, opPoint{phase: -1}
	}
	c.vlen, c.vnext, c.vlast = 0, 0, 0
	n := c.SteadyFor(now, dt, vdd)
	c.vtab, c.vlen, c.vnext, c.vlast = vtab, vlen, vnext, vlast
	for i, u := range c.units {
		u.op = ops[i]
	}
	return n
}

// movingRail is a rail that never repeats for fourteen steps, then
// holds: more distinct voltages than the table has entries, neighbours
// one ulp apart that only an exact key tells apart, then hits.
var movingRail = []float64{
	0.95, math.Nextafter(0.95, 1), 0.951, math.Nextafter(0.95, 0), 0.9525, 0.949, 0.95,
	0.93, 0.97, 0.9, 1.0, 1.05, 0.88, math.Nextafter(0.88, 1), 0.95, 0.95, 0.95, 0.95,
}

func TestPerVoltageTableMatchesModel(t *testing.T) {
	ratios := []float64{1, 0.95, 1, 0.9, 0.95, 0.85, 1, 0.75, 0.8, 0.9}
	for _, margin := range []float64{0, 0.05} {
		c := mixedChiplet(t, ratios, margin, nil, 4e4, 0)
		var now sim.Time
		for pass := 0; pass < 2; pass++ {
			for step := 0; step < 60; step++ {
				now += 100
				directStep(t, c, now, movingRail[step%len(movingRail)])
			}
			// A NaN rail is evaluated as it comes and never enters the
			// table; zero and a rail below threshold clock nothing.
			for _, vdd := range []float64{math.NaN(), 0, 0.3, 0.95} {
				now += 100
				c.Step(now, 100, vdd)
				for i := 0; i < c.vlen; i++ {
					if k := c.vtab[i].key; math.IsNaN(math.Float64frombits(k)) {
						t.Fatalf("table holds a NaN key %#x", k)
					}
				}
				now += 100
				directStep(t, c, now, vdd)
			}
			// The table outlives Reset: its entries stay exact.
			c.Reset()
			now = 0
		}
	}
}

func TestPerVoltageTableThrottled(t *testing.T) {
	th := thermal.Config{RthKperW: 2, Tau: 2 * sim.Microsecond, AmbientC: 25, TripC: 40, HystC: 1}
	c := mixedChiplet(t, []float64{1, 0.95, 0.8, 1, 0.7}, 0, &th, 4e4, 0)
	var now sim.Time
	tripped := 0
	for step := 0; step < 400; step++ {
		now += 100
		directStep(t, c, now, movingRail[step%len(movingRail)])
		if c.ThermalTripped() {
			tripped++
		}
	}
	if tripped == 0 {
		t.Fatal("the chiplet never tripped: the throttled path went untested")
	}
}

// TestSteadyForAndStepNMatchSteps holds SteadyFor's table-fed
// recomputation to a cold-table one, and StepN's replay to stepping the
// same chiplet one step at a time, across hits and misses.
func TestSteadyForAndStepNMatchSteps(t *testing.T) {
	ratios := []float64{1, 0.95, 1, 0.9, 0.95, 0.85, 1, 1, 1, 1, 1}
	for _, margin := range []float64{0, 0.05} {
		strided := mixedChiplet(t, ratios, margin, nil, 4e4, 0)
		stepped := mixedChiplet(t, ratios, margin, nil, 4e4, 0)
		var now sim.Time
		strides := 0
		for now < 400*sim.Microsecond {
			vdd := 0.95
			if (now/(20*sim.Microsecond))%2 == 1 {
				vdd = 1.0
			}
			now += 100
			directStep(t, strided, now, vdd)
			stepped.Step(now, 100, vdd)
			n := strided.SteadyFor(now, 100, vdd)
			if cold := coldSteadyFor(strided, now, 100, vdd); cold != n {
				t.Fatalf("t=%d: SteadyFor %d with a warm table, %d with a cold one", now, n, cold)
			}
			if n > 50 {
				n = 50
			}
			if n == 0 {
				continue
			}
			strides++
			strided.StepN(now, 100, vdd, n)
			for i := int64(0); i < n; i++ {
				now += 100
				stepped.Step(now, 100, vdd)
			}
			if math.Float64bits(strided.DoneWork()) != math.Float64bits(stepped.DoneWork()) {
				t.Fatalf("t=%d: strided work %v, stepped %v", now, strided.DoneWork(), stepped.DoneWork())
			}
			for i, u := range strided.units {
				v := stepped.units[i]
				if u.cursor.Remaining() != v.cursor.Remaining() || u.accInstr != v.accInstr ||
					u.accCycles != v.accCycles || u.accAct != v.accAct || u.accSteps != v.accSteps {
					t.Fatalf("t=%d unit %d: replayed state %+v, stepped %+v", now, i, *u, *v)
				}
			}
		}
		if strides == 0 {
			t.Fatal("no stride taken: StepN went untested")
		}
		if strided.LastPower() != stepped.LastPower() || strided.UnitIPC(0) != stepped.UnitIPC(0) {
			t.Fatalf("strided chiplet ends at %v W / IPC %v, stepped at %v W / IPC %v",
				strided.LastPower(), strided.UnitIPC(0), stepped.LastPower(), stepped.UnitIPC(0))
		}
	}
}

// TestStepReusesOperatingPoint holds the kernel to its design: a step
// whose key — phase, local voltage and dt — matches a unit's operating
// point takes the point's floats instead of deriving them again. It
// marks each held point's power and expects the mark back, so a kernel
// that refills the point every step, or never reads it, fails.
func TestStepReusesOperatingPoint(t *testing.T) {
	c := mixedChiplet(t, []float64{1, 0.95, 0.9}, 0, nil, 4e4, 0)
	c.Step(100, 100, 0.95)
	for i, u := range c.units {
		u.op.up = float64(1000 + i)
	}
	c.Step(200, 100, 0.95)
	_, watts, _ := c.UnitSamples()
	for i, w := range watts {
		if w != float64(1000+i) {
			t.Fatalf("unit %d drew %v W on a held operating point: the step re-derived it", i, w)
		}
	}
}

// reference is a chiplet evaluated directly, one step at a time:
// Cursor.Step on a twin cursor per unit, then the model's Freq, Leakage
// and Dynamic at the unit's local voltage — no per-voltage table, no
// operating point, no stride — with Step's work-pool and epoch
// bookkeeping. Of the chiplet under test it reads only its fixed
// config and, for the throttle, whether its thermal node is tripped
// before the step; the node is fed the total power the checks hold to
// this reference.
type reference struct {
	c          *Chiplet
	cursors    []*workload.Cursor
	units      []refUnit
	done       float64
	doneAt     sim.Time
	power      float64
	act, watts []float64
	actSum     float64
}

type refUnit struct {
	accInstr, accCycles, accAct float64
	accSteps                    int64
	nextEpoch                   sim.Time
	ipc, meanAct                float64
}

func newReference(c *Chiplet) *reference {
	r := &reference{
		c: c, units: make([]refUnit, len(c.units)), doneAt: -1,
		act: make([]float64, len(c.units)), watts: make([]float64, len(c.units)),
	}
	for _, u := range c.units {
		r.cursors = append(r.cursors, workload.NewCursor(u.spec.Trace, u.spec.StartPhase))
	}
	return r
}

// step evaluates the step ending at now from scratch. Call it before
// the chiplet's own Step, which moves the thermal state it reads.
func (r *reference) step(now, dt sim.Time, vdd float64) {
	c := r.c
	m := &c.cfg.Model
	dtSec := sim.Seconds(dt)
	finished := c.cfg.TotalWork > 0 && r.done >= c.cfg.TotalWork
	tripped := c.ThermalTripped()
	r.power, r.actSum = 0, 0
	instr := 0.0
	for i, u := range c.units {
		ratio := ratioOf(u.spec.Local) // pinned: Epoch answers the same
		if tripped && ratio > c.cfg.ThermalThrottleRatio {
			ratio = c.cfg.ThermalThrottleRatio
		}
		v := vdd * ratio
		f := m.DVFS.Freq(v - c.cfg.VoltageMargin)
		ru := &r.units[i]
		act := m.IdleAct
		if !finished {
			out := r.cursors[i].Step(dt, f, m.DVFS.FMax)
			instr += out.Instr
			act = out.Activity
			if u.spec.Local != nil {
				ru.accInstr += out.Instr
				ru.accCycles += f * dtSec
				ru.accAct += act
				ru.accSteps++
			}
		}
		r.act[i] = act
		r.watts[i] = m.Dynamic(v, f, act) + m.Leakage(v)
		r.power += r.watts[i]
		r.actSum += act
		if u.spec.Local != nil && now >= ru.nextEpoch {
			ru.ipc, ru.meanAct = 0, 0
			if ru.accCycles > 0 {
				ru.ipc = ru.accInstr / ru.accCycles
			}
			if ru.accSteps > 0 {
				ru.meanAct = ru.accAct / float64(ru.accSteps)
			}
			ru.accInstr, ru.accCycles, ru.accAct, ru.accSteps = 0, 0, 0, 0
			ru.nextEpoch = now + c.cfg.LocalEpoch
		}
	}
	vn := vdd / m.DVFS.VNom
	if vn < 0 {
		vn = 0
	}
	r.power += (c.cfg.UncoreLeak + c.cfg.UncoreDyn*(r.actSum/float64(len(c.units)))) * vn * vn * vn
	if !finished {
		r.done += instr
		if c.cfg.TotalWork > 0 && r.done >= c.cfg.TotalWork && r.doneAt < 0 {
			r.doneAt = now
		}
	}
}

// check holds everything the chiplet keeps to the reference, bit for
// bit: work done and completion, power and unit samples, and each
// unit's cursor, epoch accumulators and last epoch metrics.
func (r *reference) check(t testing.TB, at string) {
	t.Helper()
	c := r.c
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(c.DoneWork(), r.done) || c.CompletionTime() != r.doneAt {
		t.Fatalf("%s: work %v done at %d, the reference %v at %d", at, c.DoneWork(), c.CompletionTime(), r.done, r.doneAt)
	}
	act, watts, actSum := c.UnitSamples()
	if !same(c.LastPower(), r.power) || !same(actSum, r.actSum) {
		t.Fatalf("%s: power %v, activity sum %v; the reference %v, %v", at, c.LastPower(), actSum, r.power, r.actSum)
	}
	for i, u := range c.units {
		ru, cur := &r.units[i], r.cursors[i]
		switch {
		case !same(act[i], r.act[i]) || !same(watts[i], r.watts[i]):
			t.Fatalf("%s unit %d: activity %v at %v W, the reference %v at %v W", at, i, act[i], watts[i], r.act[i], r.watts[i])
		case u.cursor.PhaseIndex() != cur.PhaseIndex() || !same(u.cursor.Remaining(), cur.Remaining()):
			t.Fatalf("%s unit %d: phase %d with %v left, the reference phase %d with %v", at, i,
				u.cursor.PhaseIndex(), u.cursor.Remaining(), cur.PhaseIndex(), cur.Remaining())
		case !same(u.accInstr, ru.accInstr) || !same(u.accCycles, ru.accCycles) ||
			!same(u.accAct, ru.accAct) || u.accSteps != ru.accSteps:
			t.Fatalf("%s unit %d: epoch accumulators %v/%v/%v/%d, the reference %v/%v/%v/%d", at, i,
				u.accInstr, u.accCycles, u.accAct, u.accSteps, ru.accInstr, ru.accCycles, ru.accAct, ru.accSteps)
		case !same(c.UnitIPC(i), ru.ipc) || !same(c.UnitActivity(i), ru.meanAct):
			t.Fatalf("%s unit %d: epoch IPC %v activity %v, the reference %v, %v", at, i,
				c.UnitIPC(i), c.UnitActivity(i), ru.ipc, ru.meanAct)
		}
	}
}

// refCase is one FuzzPerVoltageTable input: a rail alternating between
// v0 and v1 so it revisits earlier voltages, four unit ratios, a
// guardband, the trace's phase length, the work pool, two step lengths
// the run switches between, and whether the chiplet carries a thermal
// node hot enough to trip.
type refCase struct {
	v0, v1, r0, r1, r2, r3, margin, phaseInstr, work float64
	dtA, dtB                                         sim.Time
	hot                                              bool
}

// refCoverage counts what a run exercised.
type refCoverage struct {
	strides, crossings, tripped int
	finished, dtChanged         bool
}

// runAgainstReference steps a chiplet and its reference through one
// refCase, taking every stride SteadyFor offers (up to 8 steps), and
// holds the chiplet to the reference after each step and each stride,
// and SteadyFor to a cold recomputation.
func runAgainstReference(t testing.TB, in refCase) (cov refCoverage) {
	if !(in.margin >= 0) || in.margin > 2 {
		t.Skip("New rejects negative margins; larger ones only clock nothing")
	}
	for _, x := range []float64{in.v0, in.v1, in.r0, in.r1, in.r2, in.r3} {
		if math.IsInf(x, 0) || math.Abs(x) > 4 {
			t.Skip("outside any rail the engine can command")
		}
	}
	if !(in.phaseInstr >= 1 && in.phaseInstr <= 1e6) || !(in.work >= 0 && in.work <= 1e7) {
		t.Skip("phases or a work pool outside what a 100-step run can exercise")
	}
	if in.dtA < 1 || in.dtA > 1000 || in.dtB < 1 || in.dtB > 1000 {
		t.Skip("step outside 1 ns to 1 µs")
	}
	var th *thermal.Config
	if in.hot {
		th = &thermal.Config{RthKperW: 2, Tau: 2 * sim.Microsecond, AmbientC: 25, TripC: 40, HystC: 1}
	}
	c := mixedChiplet(t, []float64{in.r0, in.r1, in.r2, in.r3, in.r0, in.r1}, in.margin, th, in.phaseInstr, in.work)
	r := newReference(c)
	rail := []float64{in.v0, in.v0, in.v1, in.v0, in.v1, in.v1, in.v1, in.v1}
	cov.dtChanged = in.dtA != in.dtB
	var now sim.Time
	for step := 0; step < 64; step++ {
		vdd := rail[step%len(rail)]
		dt := in.dtA
		if (step/5)%2 == 1 {
			dt = in.dtB
		}
		if c.ThermalTripped() {
			cov.tripped++
		}
		phase := r.cursors[0].PhaseIndex()
		now += dt
		r.step(now, dt, vdd)
		c.Step(now, dt, vdd)
		at := fmt.Sprintf("step %d (t=%d, dt=%d, vdd=%v)", step, now, dt, vdd)
		r.check(t, at)
		if r.cursors[0].PhaseIndex() != phase {
			cov.crossings++
		}
		cov.finished = cov.finished || c.Done()
		n := c.SteadyFor(now, dt, vdd)
		if cold := coldSteadyFor(c, now, dt, vdd); cold != n {
			t.Fatalf("%s: SteadyFor %d with warm operating points, %d with cold ones", at, n, cold)
		}
		if n > 8 {
			n = 8
		}
		if n > 0 {
			c.StepN(now, dt, vdd, n)
			for i := int64(0); i < n; i++ {
				now += dt
				r.step(now, dt, vdd)
			}
			r.check(t, at+fmt.Sprintf(" after a %d-step stride", n))
			cov.strides++
		}
	}
	return cov
}

// refSeeds are FuzzPerVoltageTable's seed corpus; together they cover
// every case TestPerVoltageTableSeedsCover lists.
var refSeeds = []refCase{
	// Hits: every unit shares one ratio at a held rail, long phases.
	{v0: 0.95, v1: 0.95, r0: 1, r1: 1, r2: 1, r3: 1, phaseInstr: 4e4, dtA: 100, dtB: 100},
	// Misses: four distinct ratios on a moving rail, phase boundaries
	// every few steps, and a shorter step every other five.
	{v0: 0.95, v1: 1.05, r0: 1, r1: 0.95, r2: 0.9, r3: 0.85, phaseInstr: 600, dtA: 100, dtB: 70},
	// Rails and ratios one ulp apart (distinct keys, near-equal values),
	// with a work pool that runs out mid-run.
	{v0: 0.95, v1: math.Nextafter(0.95, 1), r0: 1, r1: math.Nextafter(1, 0), r2: 0.95, r3: math.Nextafter(0.95, 0),
		phaseInstr: 4e4, work: 2.5e4, dtA: 100, dtB: 100},
	// Mixed, with a guardband, on a chiplet that trips thermally.
	{v0: 0.9, v1: 0.9, r0: 1, r1: 0.95, r2: 1, r3: 0.95, margin: 0.05, phaseInstr: 3e3, dtA: 100, dtB: 150, hot: true},
	// Below threshold and a margin that leaves nothing to clock.
	{v0: 0.3, v1: 1.1, r0: 1, r1: 0.75, r2: 1, r3: 0.5, margin: 0.6, phaseInstr: 2e4, dtA: 50, dtB: 100},
	// Revisited voltages and strides across phase boundaries into a
	// finish.
	{v0: 0.95, v1: 1, r0: 1, r1: 1, r2: 0.9, r3: 0.9, phaseInstr: 8e3, work: 4e4, dtA: 100, dtB: 100},
}

// FuzzPerVoltageTable holds a metered chiplet — its per-voltage table,
// its units' operating points, and its SteadyFor/StepN strides — to the
// direct reference above, bit for bit, over fuzzed rails that revisit
// their voltages, per-unit ratios, guardbands, phase lengths, work
// pools, step lengths and thermal trips.
func FuzzPerVoltageTable(f *testing.F) {
	for _, s := range refSeeds {
		f.Add(s.v0, s.v1, s.r0, s.r1, s.r2, s.r3, s.margin, s.phaseInstr, s.work, int64(s.dtA), int64(s.dtB), s.hot)
	}
	f.Fuzz(func(t *testing.T, v0, v1, r0, r1, r2, r3, margin, phaseInstr, work float64, dtA, dtB int64, hot bool) {
		runAgainstReference(t, refCase{v0, v1, r0, r1, r2, r3, margin, phaseInstr, work, dtA, dtB, hot})
	})
}

// TestPerVoltageTableSeedsCover keeps the seed corpus honest: between
// them the seeds must stride, cross phase boundaries, finish a work
// pool, trip a thermal node and change dt, or the fuzz target's seed
// run leaves one of those paths unchecked.
func TestPerVoltageTableSeedsCover(t *testing.T) {
	var total refCoverage
	for _, s := range refSeeds {
		cov := runAgainstReference(t, s)
		total.strides += cov.strides
		total.crossings += cov.crossings
		total.tripped += cov.tripped
		total.finished = total.finished || cov.finished
		total.dtChanged = total.dtChanged || cov.dtChanged
	}
	if total.strides == 0 || total.crossings == 0 || total.tripped == 0 || !total.finished || !total.dtChanged {
		t.Fatalf("seeds leave a case unexercised: %+v", total)
	}
	t.Logf("seeds exercise %+v", total)
}
