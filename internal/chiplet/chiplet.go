// Package chiplet implements the generic multi-unit chiplet simulator
// underlying both the CPU model (internal/cpusim) and the GPU model
// (internal/gpusim).
//
// A chiplet is a set of execution units (cores or SMs), each running its
// own workload trace and carrying its own HCAPP local controller, plus a
// shared uncore. Every engine step each unit derives its local voltage
// from the domain voltage and its local ratio, clocks at the frequency
// the DVFS envelope permits, retires work, and draws power; every local
// epoch the unit's measured IPC feeds its local controller, which answers
// with a new ratio. This is the simulation contract the paper's Sniper
// and GPGPU-Sim components fulfilled.
package chiplet

import (
	"fmt"
	"math"

	"hcapp/internal/core"
	"hcapp/internal/power"
	"hcapp/internal/sim"
	"hcapp/internal/thermal"
	"hcapp/internal/workload"
)

// UnitSpec describes one execution unit at construction time.
type UnitSpec struct {
	Trace      *workload.Trace
	StartPhase int
	Local      core.Local
}

// Config assembles a chiplet.
type Config struct {
	Name  string
	Units []UnitSpec
	// Model is the per-unit power model (shared; units are homogeneous
	// within a chiplet).
	Model power.Model
	// LocalEpoch is the local-controller evaluation period.
	LocalEpoch sim.Time
	// UncoreLeak / UncoreDyn model the shared uncore: leakage plus a
	// dynamic term proportional to mean unit activity, both scaled by
	// (V/VNom)^3.
	UncoreLeak, UncoreDyn float64
	// TotalWork is the chiplet's assigned work (summed over units);
	// the chiplet is Done when this much work has retired. Zero means
	// "run forever" (useful in tuning harnesses).
	TotalWork float64
	// Thermal, when non-nil, attaches a junction thermal node fed by
	// the chiplet's total power. When the node trips, every unit's
	// local ratio is overridden down to ThermalThrottleRatio until the
	// junction cools past the hysteresis band — the §3.3 protective
	// behaviour.
	Thermal *thermal.Config
	// ThermalThrottleRatio is the protective ratio applied while
	// tripped; zero defaults to 0.75.
	ThermalThrottleRatio float64
	// VoltageMargin selects the §3.5 timing-safety mechanism. Zero
	// models adaptive clocking: the clock follows the delivered voltage
	// exactly (Keller-style). A positive value models a static
	// guardband instead: the clock is generated as if the supply were
	// VoltageMargin lower, trading performance for immunity to voltage
	// transients.
	VoltageMargin float64
}

type unit struct {
	spec      UnitSpec
	cursor    *workload.Cursor
	ratio     float64
	accInstr  float64
	accCycles float64
	accAct    float64
	accSteps  int64
	nextEpoch sim.Time
	lastIPC   float64
	lastAct   float64
}

// Chiplet is a multi-unit component implementing sim.Component.
type Chiplet struct {
	cfg       Config
	units     []*unit
	doneWork  float64
	doneAt    sim.Time // completion timestamp; -1 while running
	lastPower float64
	therm     *thermal.Node // nil when unsensed

	// Per-unit meter samples (activity and power drawn on the most
	// recent step) and their activity sum, recorded only when the unit
	// meter is on — the energy ledger's ground-truth feed.
	meterOn     bool
	meterAct    []float64
	meterPower  []float64
	meterActSum float64

	// The per-voltage table behind at: the model and VoltageMargin are
	// fixed at New, so an entry is exact for as long as the chiplet
	// lives — Reset leaves it alone.
	norm  float64 // cfg.Model.DVFS.Norm()
	vtab  [vtabSize]vpoint
	vlen  int // filled entries
	vnext int // next entry to overwrite once the table is full
	vlast int // entry of the latest hit or fill, tried first
}

// vtabSize bounds the per-voltage table. Units take their local voltage
// from one rail through a ratio that local controllers move in 0.05
// steps over [0.75, 1], so a step sees a handful of distinct voltages.
const vtabSize = 8

// vpoint is one exact evaluation: the clock frequency and leakage at the
// local voltage whose bits are key.
type vpoint struct {
	key     uint64
	f, leak float64
}

// New builds a chiplet. Local controllers may be nil (no level-3
// control, ratio pinned at 1.0 — the paper's fixed-voltage baseline has
// "no local controllers").
func New(cfg Config) (*Chiplet, error) {
	if len(cfg.Units) == 0 {
		return nil, fmt.Errorf("chiplet: %q has no units", cfg.Name)
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, fmt.Errorf("chiplet: %q model: %w", cfg.Name, err)
	}
	if cfg.LocalEpoch <= 0 {
		return nil, fmt.Errorf("chiplet: %q non-positive local epoch", cfg.Name)
	}
	if cfg.TotalWork < 0 {
		return nil, fmt.Errorf("chiplet: %q negative total work", cfg.Name)
	}
	if cfg.VoltageMargin < 0 {
		return nil, fmt.Errorf("chiplet: %q negative voltage margin", cfg.Name)
	}
	if cfg.ThermalThrottleRatio == 0 {
		cfg.ThermalThrottleRatio = 0.75
	}
	if cfg.ThermalThrottleRatio < 0 || cfg.ThermalThrottleRatio > 1 {
		return nil, fmt.Errorf("chiplet: %q throttle ratio %g outside (0,1]", cfg.Name, cfg.ThermalThrottleRatio)
	}
	c := &Chiplet{
		cfg:        cfg,
		doneAt:     -1,
		norm:       cfg.Model.DVFS.Norm(),
		meterAct:   make([]float64, len(cfg.Units)),
		meterPower: make([]float64, len(cfg.Units)),
	}
	if cfg.Thermal != nil {
		node, err := thermal.NewNode(*cfg.Thermal)
		if err != nil {
			return nil, fmt.Errorf("chiplet: %q thermal: %w", cfg.Name, err)
		}
		c.therm = node
	}
	for i, us := range cfg.Units {
		if us.Trace == nil {
			return nil, fmt.Errorf("chiplet: %q unit %d has no trace", cfg.Name, i)
		}
		if err := us.Trace.Validate(); err != nil {
			return nil, fmt.Errorf("chiplet: %q unit %d: %w", cfg.Name, i, err)
		}
		c.units = append(c.units, &unit{
			spec:   us,
			cursor: workload.NewCursor(us.Trace, us.StartPhase),
			ratio:  ratioOf(us.Local),
		})
	}
	return c, nil
}

func ratioOf(l core.Local) float64 {
	if l == nil {
		return 1.0
	}
	return l.Ratio()
}

// Name implements sim.Component.
func (c *Chiplet) Name() string { return c.cfg.Name }

// Done implements sim.Component.
func (c *Chiplet) Done() bool { return c.cfg.TotalWork > 0 && c.doneWork >= c.cfg.TotalWork }

// Progress implements sim.Component.
func (c *Chiplet) Progress() float64 {
	if c.cfg.TotalWork <= 0 {
		return 0
	}
	p := c.doneWork / c.cfg.TotalWork
	if p > 1 {
		p = 1
	}
	return p
}

// CompletionTime returns when the chiplet finished, or -1 if it has not.
func (c *Chiplet) CompletionTime() sim.Time { return c.doneAt }

// DoneWork returns the work (instructions) completed so far — the
// throughput measure for continuous-load runs, whose zero work pool
// makes Progress meaningless.
func (c *Chiplet) DoneWork() float64 { return c.doneWork }

// Units returns the unit count.
func (c *Chiplet) Units() int { return len(c.units) }

// UnitRatio returns unit i's current local voltage ratio.
func (c *Chiplet) UnitRatio(i int) float64 { return c.units[i].ratio }

// UnitIPC returns unit i's last measured epoch IPC.
func (c *Chiplet) UnitIPC(i int) float64 { return c.units[i].lastIPC }

// UnitActivity returns unit i's last measured epoch activity.
func (c *Chiplet) UnitActivity(i int) float64 { return c.units[i].lastAct }

// MeanRatio returns the mean local ratio across units.
func (c *Chiplet) MeanRatio() float64 {
	sum := 0.0
	for _, u := range c.units {
		sum += u.ratio
	}
	return sum / float64(len(c.units))
}

// LastPower returns the power drawn on the most recent step.
func (c *Chiplet) LastPower() float64 { return c.lastPower }

// EnableUnitMeter turns on per-unit step sampling (a couple of stores
// per unit per step — off by default so the hot path stays lean). The
// samples feed energy.UnitMeter, which the chiplet then satisfies.
func (c *Chiplet) EnableUnitMeter() { c.meterOn = true }

// UnitSamples returns each unit's most recent step activity and power,
// and the activity sum Step formed from them. Zeros until the meter is
// enabled and a step has run. The slices are the chiplet's own: the
// next step overwrites them. Unit power excludes the shared uncore,
// which belongs to no single unit — that gap is exactly the attribution
// error the energy subsystem measures.
func (c *Chiplet) UnitSamples() (act, watts []float64, actSum float64) {
	return c.meterAct, c.meterPower, c.meterActSum
}

// Step implements sim.Component.
func (c *Chiplet) Step(now sim.Time, dt sim.Time, vdd float64) sim.StepResult {
	dtSec := sim.Seconds(dt)
	finished := c.Done()
	m := &c.cfg.Model

	tripped := c.therm != nil && c.therm.Tripped()
	var tempC float64
	if c.therm != nil {
		tempC = c.therm.Temp()
	}

	totalPower := 0.0
	totalInstr := 0.0
	actSum := 0.0
	for i, u := range c.units {
		ratio := u.ratio
		if tripped && ratio > c.cfg.ThermalThrottleRatio {
			// Thermal protection overrides the local controller
			// ("the local controller would reduce the local voltage at
			// the affected component to prevent failure", §3.3).
			ratio = c.cfg.ThermalThrottleRatio
		}
		vlocal := vdd * ratio
		f, leak := c.at(vlocal)

		var act float64
		if finished {
			// Work exhausted: the chiplet idles at its floor activity
			// (clock gating), still leaking.
			act = m.IdleAct
		} else {
			out := u.cursor.Step(dt, f, m.DVFS.FMax)
			totalInstr += out.Instr
			act = out.Activity
			// Epoch accumulators feed only the level-3 controller; a
			// unit without one would write them forever and read them
			// never, so skip the stores on the hot path.
			if u.spec.Local != nil {
				u.accInstr += out.Instr
				u.accCycles += f * dtSec
				u.accAct += act
				u.accSteps++
			}
		}

		up := m.Dynamic(vlocal, f, act) + leak
		totalPower += up
		actSum += act
		if c.meterOn {
			c.meterAct[i] = act
			c.meterPower[i] = up
		}

		// Local epoch: feed measured metrics to the level-3 controller.
		if u.spec.Local != nil && now >= u.nextEpoch {
			ipc := 0.0
			if u.accCycles > 0 {
				ipc = u.accInstr / u.accCycles
			}
			meanAct := 0.0
			if u.accSteps > 0 {
				meanAct = u.accAct / float64(u.accSteps)
			}
			u.lastIPC = ipc
			u.lastAct = meanAct
			u.ratio = u.spec.Local.Epoch(now, core.Metrics{
				IPC:      ipc,
				Activity: meanAct,
				TempC:    tempC,
			}, vdd)
			u.accInstr, u.accCycles = 0, 0
			u.accAct, u.accSteps = 0, 0
			u.nextEpoch = now + c.cfg.LocalEpoch
		}
	}

	// Shared uncore, scaled with the domain voltage.
	vn := vdd / m.DVFS.VNom
	if vn < 0 {
		vn = 0
	}
	meanAct := actSum / float64(len(c.units))
	totalPower += (c.cfg.UncoreLeak + c.cfg.UncoreDyn*meanAct) * vn * vn * vn
	if c.meterOn {
		c.meterActSum = actSum
	}

	if !finished {
		c.doneWork += totalInstr
		if c.Done() && c.doneAt < 0 {
			c.doneAt = now
		}
	}
	c.lastPower = totalPower
	if c.therm != nil {
		c.therm.Step(dt, totalPower)
	}
	return sim.StepResult{Power: totalPower, Work: totalInstr}
}

// steadyMargin is how many steps the float-derived completion bound
// holds back: the replay subtracts per-step work repeatedly while the
// bound divides once, and the two drift by ulps per step. See the
// matching constant in internal/workload.
const steadyMargin = 8

// SteadyFor implements sim.BulkStepper: the number of future steps at
// constant vdd guaranteed to reproduce the last Step bitwise. It
// recomputes the next step's power operation-for-operation from the
// current state and demands it match lastPower exactly — catching the
// one-step transitions (a unit finishing, an epoch retune) the caller's
// cheaper invariants cannot see; with the unit meter on, each unit's
// sample must match too — and bounds the stride conservatively
// before every internal event: local-controller epochs, workload phase
// boundaries, and work-pool completion. Chiplets with a thermal node
// never stride (the RC network integrates every step).
func (c *Chiplet) SteadyFor(now sim.Time, dt sim.Time, vdd float64) int64 {
	if c.therm != nil {
		return 0
	}
	m := &c.cfg.Model
	finished := c.Done()
	n := int64(1 << 62)
	totalPower := 0.0
	totalInstr := 0.0
	actSum := 0.0
	for i, u := range c.units {
		if u.spec.Local != nil {
			if k := sim.StepsBefore(now, dt, u.nextEpoch); k < n {
				n = k
			}
			if n <= 0 {
				return 0
			}
		}
		vlocal := vdd * u.ratio
		f, leak := c.at(vlocal)
		var act float64
		if finished {
			act = m.IdleAct
		} else {
			k, instr, a := u.cursor.SteadySteps(dt, f, m.DVFS.FMax)
			if k < n {
				n = k
			}
			if n <= 0 {
				return 0
			}
			totalInstr += instr
			act = a
		}
		up := m.Dynamic(vlocal, f, act) + leak
		// With the unit meter on, the per-unit samples an observer reads
		// after a stride must be the last step's too.
		if c.meterOn && (act != c.meterAct[i] || up != c.meterPower[i]) {
			return 0
		}
		totalPower += up
		actSum += act
	}
	vn := vdd / m.DVFS.VNom
	if vn < 0 {
		vn = 0
	}
	meanAct := actSum / float64(len(c.units))
	totalPower += (c.cfg.UncoreLeak + c.cfg.UncoreDyn*meanAct) * vn * vn * vn
	if totalPower != c.lastPower {
		return 0
	}
	if !finished && c.cfg.TotalWork > 0 && totalInstr > 0 {
		k := int64((c.cfg.TotalWork-c.doneWork)/totalInstr) - steadyMargin
		if k < n {
			n = k
		}
	}
	if n < 0 {
		return 0
	}
	return n
}

// StepN implements sim.BulkStepper: replays n steady steps verified by
// SteadyFor. Every per-step accumulation is repeated n times with the
// identical floating-point operation Step performs, so the state after
// the replay is bitwise what n real steps would have left. The chains
// run side by side in loops over locals, so the replay costs about one
// dependent add per step per loop rather than one per chain: a unit
// with a local controller replays its cursor's remaining work and its
// three epoch accumulators in one loop, and units without one replay
// their remaining work four units to a loop.
func (c *Chiplet) StepN(now sim.Time, dt sim.Time, vdd float64, n int64) {
	if c.Done() {
		return
	}
	dtSec := sim.Seconds(dt)
	fmax := c.cfg.Model.DVFS.FMax
	totalInstr := 0.0
	var batch [4]*unit
	var dec [4]float64
	k := 0
	for _, u := range c.units {
		f, _ := c.at(vdd * u.ratio)
		// instr is zero when the unit cannot clock or its phase stalls;
		// Step then leaves the cursor alone, and subtracting zero leaves
		// every float bitwise as it was.
		_, instr, act := u.cursor.SteadySteps(dt, f, fmax)
		totalInstr += instr
		if u.spec.Local == nil {
			batch[k], dec[k] = u, instr
			if k++; k == len(batch) {
				replayRemaining(batch[:], dec, n)
				k = 0
			}
			continue
		}
		rem := u.cursor.Remaining()
		cycles := f * dtSec
		ai, ac, aa := u.accInstr, u.accCycles, u.accAct
		for i := int64(0); i < n; i++ {
			rem -= instr
			ai += instr
			ac += cycles
			aa += act
		}
		u.cursor.SetRemaining(rem)
		u.accInstr, u.accCycles, u.accAct = ai, ac, aa
		u.accSteps += n
	}
	replayRemaining(batch[:k], dec, n)
	done := c.doneWork
	for i := int64(0); i < n; i++ {
		done += totalInstr
	}
	c.doneWork = done
}

// replayRemaining subtracts dec[i] n times from the remaining work of
// units[i]'s cursor, for up to four units, the chains side by side in
// one loop. Lanes past len(units) compute on leftovers and are dropped.
func replayRemaining(units []*unit, dec [4]float64, n int64) {
	var r [4]float64
	for i, u := range units {
		r[i] = u.cursor.Remaining()
	}
	r0, r1, r2, r3 := r[0], r[1], r[2], r[3]
	d0, d1, d2, d3 := dec[0], dec[1], dec[2], dec[3]
	for i := int64(0); i < n; i++ {
		r0 -= d0
		r1 -= d1
		r2 -= d2
		r3 -= d3
	}
	r = [4]float64{r0, r1, r2, r3}
	for i, u := range units {
		u.cursor.SetRemaining(r[i])
	}
}

// at returns the clock frequency and the leakage at local voltage v:
// exactly m.DVFS.Freq(v − VoltageMargin) and m.Leakage(v), evaluated
// once per distinct v. Adaptive clocking follows v exactly; a
// guardbanded design clocks as if the rail were VoltageMargin lower
// (§3.5). The table matches keys bit for bit, so a hit returns the very
// floats a fresh evaluation would; a NaN voltage is never stored, so it
// never hits and is evaluated as it comes.
func (c *Chiplet) at(v float64) (f, leak float64) {
	key := math.Float64bits(v)
	if p := &c.vtab[c.vlast]; p.key == key && c.vlen > 0 {
		return p.f, p.leak
	}
	for i := 0; i < c.vlen; i++ {
		if p := &c.vtab[i]; p.key == key {
			c.vlast = i
			return p.f, p.leak
		}
	}
	m := &c.cfg.Model
	f = m.DVFS.FreqNorm(v-c.cfg.VoltageMargin, c.norm)
	leak = m.Leakage(v)
	if v != v {
		return f, leak
	}
	i := c.vlen
	if i < vtabSize {
		c.vlen++
	} else {
		i = c.vnext
		c.vnext = (c.vnext + 1) % vtabSize
	}
	c.vtab[i] = vpoint{key: key, f: f, leak: leak}
	c.vlast = i
	return f, leak
}

// Temp returns the junction temperature, or ambient-less 0 when the
// chiplet carries no thermal node.
func (c *Chiplet) Temp() float64 {
	if c.therm == nil {
		return 0
	}
	return c.therm.Temp()
}

// PeakTemp returns the maximum junction temperature seen.
func (c *Chiplet) PeakTemp() float64 {
	if c.therm == nil {
		return 0
	}
	return c.therm.Peak()
}

// ThermalTripped reports whether thermal protection is engaged.
func (c *Chiplet) ThermalTripped() bool {
	return c.therm != nil && c.therm.Tripped()
}

// Reset implements sim.Resetter.
func (c *Chiplet) Reset() {
	c.doneWork = 0
	c.doneAt = -1
	c.lastPower = 0
	if c.therm != nil {
		c.therm.Reset()
	}
	clear(c.meterAct)
	clear(c.meterPower)
	c.meterActSum = 0
	for _, u := range c.units {
		u.cursor.Reset(u.spec.StartPhase)
		if u.spec.Local != nil {
			u.spec.Local.Reset()
		}
		u.ratio = ratioOf(u.spec.Local)
		u.accInstr, u.accCycles = 0, 0
		u.accAct, u.accSteps = 0, 0
		u.nextEpoch = 0
		u.lastIPC = 0
		u.lastAct = 0
	}
}

// AvgIPSAt returns the chiplet's aggregate steady-state instruction rate
// at a constant local voltage v (ratios at 1.0), used to size TotalWork
// for a target runtime.
func (c *Chiplet) AvgIPSAt(v float64) float64 {
	f := c.cfg.Model.DVFS.Freq(v)
	sum := 0.0
	for _, u := range c.units {
		sum += u.spec.Trace.AvgIPS(f, c.cfg.Model.DVFS.FMax)
	}
	return sum
}

// SetTotalWork assigns the chiplet's work pool (used by the experiment
// harness after sizing against the fixed-voltage baseline).
func (c *Chiplet) SetTotalWork(w float64) { c.cfg.TotalWork = w }

// TotalWork returns the assigned work pool.
func (c *Chiplet) TotalWork() float64 { return c.cfg.TotalWork }

// Constant is a fixed-draw component (the memory/uncore domain): always
// Done, constant power.
type Constant struct {
	name  string
	watts float64
}

// NewConstant returns a constant-power component.
func NewConstant(name string, watts float64) *Constant {
	return &Constant{name: name, watts: watts}
}

// Name implements sim.Component.
func (c *Constant) Name() string { return c.name }

// Step implements sim.Component.
func (c *Constant) Step(_ sim.Time, _ sim.Time, _ float64) sim.StepResult {
	return sim.StepResult{Power: c.watts}
}

// Done implements sim.Component.
func (c *Constant) Done() bool { return true }

// Progress implements sim.Component.
func (c *Constant) Progress() float64 { return 1 }

// Reset implements sim.Resetter.
func (c *Constant) Reset() {}

// SteadyFor implements sim.BulkStepper: a fixed draw is steady forever.
func (c *Constant) SteadyFor(_ sim.Time, _ sim.Time, _ float64) int64 { return 1 << 62 }

// StepN implements sim.BulkStepper: stateless, nothing to replay.
func (c *Constant) StepN(_ sim.Time, _ sim.Time, _ float64, _ int64) {}
