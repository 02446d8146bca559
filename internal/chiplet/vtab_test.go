package chiplet

import (
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
// and misses within one step) over a two-phase trace. A unit at ratio
// exactly 1 gets no local controller, so StepN replays both kinds of
// unit.
func mixedChiplet(t testing.TB, ratios []float64, margin float64, th *thermal.Config) *Chiplet {
	t.Helper()
	tr := &workload.Trace{Name: "two-phase", Phases: []workload.Phase{
		{Instr: 4e4, IPC: 1.5, MemFrac: 0.2, Activity: 0.7, StallAct: 0.1},
		{Instr: 2e4, IPC: 0.8, MemFrac: 0.5, Activity: 0.4, StallAct: 0.05},
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

// coldSteadyFor is SteadyFor with the per-voltage table emptied first,
// so every voltage it needs is evaluated afresh.
func coldSteadyFor(c *Chiplet, now sim.Time, vdd float64) int64 {
	c.vlen, c.vnext, c.vlast = 0, 0, 0
	return c.SteadyFor(now, 100, vdd)
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
		c := mixedChiplet(t, ratios, margin, nil)
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
	c := mixedChiplet(t, []float64{1, 0.95, 0.8, 1, 0.7}, 0, &th)
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
		strided := mixedChiplet(t, ratios, margin, nil)
		stepped := mixedChiplet(t, ratios, margin, nil)
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
			if cold := coldSteadyFor(strided, now, vdd); cold != n {
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

// FuzzPerVoltageTable drives a metered chiplet with fuzzed rail
// voltages, per-unit ratios and guardband margin, and holds Step power
// to the model evaluated directly, SteadyFor to a cold-table
// recomputation, and StepN to stepping a twin one step at a time — all
// bit for bit.
func FuzzPerVoltageTable(f *testing.F) {
	// Hits: every unit shares one ratio at a held rail.
	f.Add(0.95, 0.95, 1.0, 1.0, 1.0, 1.0, 0.0)
	// Misses: four distinct ratios on a rail that moves every step.
	f.Add(0.95, 1.05, 1.0, 0.95, 0.9, 0.85, 0.0)
	// Rails and ratios one ulp apart: distinct keys, near-equal values.
	f.Add(0.95, math.Nextafter(0.95, 1), 1.0, math.Nextafter(1, 0), 0.95, math.Nextafter(0.95, 0), 0.0)
	// Mixed, with a guardband.
	f.Add(0.9, 0.9, 1.0, 0.95, 1.0, 0.95, 0.05)
	// Below threshold and a margin that leaves nothing to clock.
	f.Add(0.3, 1.1, 1.0, 0.75, 1.0, 0.5, 0.6)
	f.Fuzz(func(t *testing.T, v0, v1, r0, r1, r2, r3, margin float64) {
		if !(margin >= 0) || margin > 2 {
			t.Skip("New rejects negative margins; larger ones only clock nothing")
		}
		for _, x := range []float64{v0, v1, r0, r1, r2, r3} {
			if math.IsInf(x, 0) || math.Abs(x) > 4 {
				t.Skip("outside any rail the engine can command")
			}
		}
		ratios := []float64{r0, r1, r2, r3, r0, r1}
		c := mixedChiplet(t, ratios, margin, nil)
		twin := mixedChiplet(t, ratios, margin, nil)
		rail := []float64{v0, v0, v1, v0, v1, v1, v1, v1}
		var now sim.Time
		for step := 0; step < 24; step++ {
			vdd := rail[step%len(rail)]
			now += 100
			directStep(t, c, now, vdd)
			twin.Step(now, 100, vdd)
			n := c.SteadyFor(now, 100, vdd)
			if cold := coldSteadyFor(c, now, vdd); cold != n {
				t.Fatalf("SteadyFor %d with a warm table, %d with a cold one", n, cold)
			}
			if n > 8 {
				n = 8
			}
			if n > 0 {
				c.StepN(now, 100, vdd, n)
				for i := int64(0); i < n; i++ {
					now += 100
					twin.Step(now, 100, vdd)
				}
			}
			if math.Float64bits(c.DoneWork()) != math.Float64bits(twin.DoneWork()) {
				t.Fatalf("replayed work %v, stepped %v", c.DoneWork(), twin.DoneWork())
			}
		}
	})
}
