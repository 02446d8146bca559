// Package workload provides the synthetic benchmark proxies that stand in
// for the paper's PARSEC and Rodinia subsets.
//
// The paper selects benchmarks purely for their package-level power
// behaviour ("this subset captures a wide variety of power behavior",
// §4.2/§4.3) and names each combination after that behaviour in Table 3
// (Low, Hi, Mid, Burst, Const). Each proxy here is a deterministic,
// seeded generator of phase traces reproducing the named behaviour:
// ferret is long low-activity stretches punctuated by short high-power
// bursts, myocyte is low steady, backprop high steady, and so on.
//
// Phases carry the quantities the chiplet simulators need: work
// (instructions), the no-stall IPC, the fraction of time stalled on
// memory at maximum frequency (frequency-insensitive time), and switching
// activity factors for the compute and stall portions.
package workload

import (
	"fmt"
	"math"

	"hcapp/internal/sim"
)

// Phase is one homogeneous region of a workload trace.
type Phase struct {
	// Instr is the number of instructions (abstract work units) retired
	// during the phase by one execution unit.
	Instr float64
	// IPC is the instructions-per-cycle achieved while not stalled.
	IPC float64
	// MemFrac is the fraction of wall time spent in frequency-insensitive
	// memory stalls when running at maximum frequency, in [0,1).
	MemFrac float64
	// Activity is the switching activity factor while computing, in (0,1].
	Activity float64
	// StallAct is the switching activity factor while stalled.
	StallAct float64
}

// Validate reports whether the phase is physically meaningful.
func (p Phase) Validate() error {
	switch {
	case p.Instr <= 0:
		return fmt.Errorf("workload: non-positive phase work %g", p.Instr)
	case p.IPC <= 0:
		return fmt.Errorf("workload: non-positive IPC %g", p.IPC)
	case p.MemFrac < 0 || p.MemFrac >= 1:
		return fmt.Errorf("workload: memory fraction %g outside [0,1)", p.MemFrac)
	case p.Activity <= 0 || p.Activity > 1:
		return fmt.Errorf("workload: activity %g outside (0,1]", p.Activity)
	case p.StallAct < 0 || p.StallAct > 1:
		return fmt.Errorf("workload: stall activity %g outside [0,1]", p.StallAct)
	}
	return nil
}

// Slowdown returns the execution-time dilation of the phase at frequency
// f relative to fmax: (1−m)·(fmax/f) + m. Compute time scales inversely
// with frequency; memory time does not (the interval model Sniper uses).
func (p Phase) Slowdown(f, fmax float64) float64 {
	if f <= 0 {
		return 0 // sentinel: cannot execute
	}
	return (1-p.MemFrac)*(fmax/f) + p.MemFrac
}

// IPS returns instructions per second at frequency f (fmax is the rated
// maximum). Zero frequency executes nothing.
func (p Phase) IPS(f, fmax float64) float64 {
	ips, _ := p.rates(f, fmax)
	return ips
}

// rates returns IPS and the time-weighted switching activity eff at
// frequency f from one Slowdown: the stall fraction grows as frequency
// rises (stalls take the same wall time while compute shrinks).
func (p *Phase) rates(f, fmax float64) (ips, eff float64) {
	s := p.Slowdown(f, fmax)
	if s <= 0 {
		return 0, p.StallAct
	}
	stallFrac := p.MemFrac / s
	return p.IPC * fmax * (1 - p.MemFrac) / s, p.Activity*(1-stallFrac) + p.StallAct*stallFrac
}

// DurationAtFmax returns the phase's wall-clock duration at maximum
// frequency.
func (p Phase) DurationAtFmax(fmax float64) sim.Time {
	ips := p.IPS(fmax, fmax)
	if ips <= 0 {
		return 0
	}
	return sim.FromSeconds(p.Instr / ips)
}

// PhaseFor constructs a phase sized to last dur at maximum frequency fmax
// with the given characteristics.
func PhaseFor(dur sim.Time, fmax, ipc, memFrac, activity, stallAct float64) Phase {
	p := Phase{IPC: ipc, MemFrac: memFrac, Activity: activity, StallAct: stallAct}
	p.Instr = p.IPS(fmax, fmax) * sim.Seconds(dur)
	return p
}

// Trace is a looping sequence of phases executed by one unit (a CPU core
// or a GPU SM). When the cursor exhausts the last phase it restarts from
// the first, matching the paper's approach of looping short workloads to
// a common timescale (§4).
type Trace struct {
	Name   string
	Phases []Phase
}

// Validate checks every phase.
func (t *Trace) Validate() error {
	if len(t.Phases) == 0 {
		return fmt.Errorf("workload: trace %q has no phases", t.Name)
	}
	for i, p := range t.Phases {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("workload: trace %q phase %d: %w", t.Name, i, err)
		}
	}
	return nil
}

// TotalInstr returns the work in one loop of the trace.
func (t *Trace) TotalInstr() float64 {
	sum := 0.0
	for _, p := range t.Phases {
		sum += p.Instr
	}
	return sum
}

// LoopDurationAtFmax returns the wall time of one loop at fmax.
func (t *Trace) LoopDurationAtFmax(fmax float64) sim.Time {
	var d sim.Time
	for _, p := range t.Phases {
		d += p.DurationAtFmax(fmax)
	}
	return d
}

// AvgIPS returns the time-averaged instruction rate over one loop at
// constant frequency f.
func (t *Trace) AvgIPS(f, fmax float64) float64 {
	totalInstr := 0.0
	totalTime := 0.0
	for _, p := range t.Phases {
		ips := p.IPS(f, fmax)
		if ips <= 0 {
			return 0
		}
		totalInstr += p.Instr
		totalTime += p.Instr / ips
	}
	if totalTime == 0 {
		return 0
	}
	return totalInstr / totalTime
}

// StepOutcome summarizes a cursor step for the owning simulator.
type StepOutcome struct {
	Instr    float64 // instructions retired over the step
	Activity float64 // time-weighted switching activity over the step
}

// Cursor walks a trace, consuming work at the rate the supplied frequency
// permits, looping forever. It is the per-unit execution state.
type Cursor struct {
	trace     *Trace
	idx       int
	remaining float64 // instructions left in the current phase
}

// NewCursor returns a cursor at the start of the trace. startPhase allows
// units to begin at different points (decorrelating steady workloads).
func NewCursor(t *Trace, startPhase int) *Cursor {
	if len(t.Phases) == 0 {
		panic("workload: cursor over empty trace")
	}
	idx := startPhase % len(t.Phases)
	if idx < 0 {
		idx += len(t.Phases)
	}
	return &Cursor{trace: t, idx: idx, remaining: t.Phases[idx].Instr}
}

// Phase returns the current phase.
func (c *Cursor) Phase() Phase { return c.trace.Phases[c.idx] }

// PhaseIndex returns the position of the current phase in the trace.
// With the trace fixed, it names the phase InPhase reads.
func (c *Cursor) PhaseIndex() int { return c.idx }

// Step advances the cursor by dt at frequency f, crossing phase
// boundaries as needed, and reports retired instructions and the
// time-weighted activity over the step.
func (c *Cursor) Step(dt sim.Time, f, fmax float64) StepOutcome {
	dtSec := sim.Seconds(dt)
	if f <= 0 {
		// Cannot clock: nothing retires; power is stall/leakage only.
		return StepOutcome{Activity: c.Phase().StallAct}
	}
	var out StepOutcome
	remainingTime := dtSec
	actWeighted := 0.0
	for remainingTime > 1e-18 {
		p := &c.trace.Phases[c.idx]
		ips, eff := p.rates(f, fmax)
		if ips <= 0 {
			actWeighted += p.StallAct * remainingTime
			remainingTime = 0
			break
		}
		phaseTime := c.remaining / ips
		if phaseTime > remainingTime {
			// Phase outlasts the step.
			done := ips * remainingTime
			c.remaining -= done
			out.Instr += done
			actWeighted += eff * remainingTime
			remainingTime = 0
		} else {
			// Finish the phase and move on.
			out.Instr += c.remaining
			actWeighted += eff * phaseTime
			remainingTime -= phaseTime
			c.advance()
		}
	}
	out.Activity = actWeighted / dtSec
	return out
}

// steadyMargin is how many steps InPhaseSteps holds back from a
// float-derived event bound. The phase-boundary estimate divides the
// remaining work by the per-step retirement, while the replay subtracts
// the per-step amount repeatedly; the two drift apart by at most a few
// ulps per step (≪ 1 step over any realistic phase), so a fixed margin
// of whole steps keeps the stride strictly inside the phase.
const steadyMargin = 8

// InPhase returns what Step(dt, f, fmax) does when the current phase
// outlasts the step, computed operation for operation as Step computes
// it: the phase's instruction rate ips, the work done = ips·dtSec the
// step retires, and the step's activity. The values depend only on the
// phase, f and dt, so a caller may keep them for as long as those hold
// and step with StepWithin. A unit that cannot clock (f ≤ 0) or whose
// phase retires nothing gets ips = done = 0 and the stall activity Step
// reports. A step too short for Step's loop to run (dtSec ≤ 1e-18) gets
// ips = NaN, which StepWithin and InPhaseSteps never accept.
func (c *Cursor) InPhase(dt sim.Time, f, fmax float64) (ips, done, act float64) {
	dtSec := sim.Seconds(dt)
	p := &c.trace.Phases[c.idx]
	switch {
	case !(dtSec > 1e-18):
		return math.NaN(), 0, 0
	case f <= 0:
		return 0, 0, p.StallAct
	}
	ips, eff := p.rates(f, fmax)
	if ips <= 0 {
		return 0, 0, (0 + p.StallAct*dtSec) / dtSec
	}
	return ips, ips * dtSec, (0 + eff*dtSec) / dtSec
}

// StepWithin is Step for a caller holding the current phase's InPhase
// values at the step's f and dt. If the phase outlasts the step — Step's
// own test, remaining/ips > dtSec — it retires done exactly as Step
// would and reports true; Step would have returned Instr = done and
// Activity = InPhase's act. Otherwise it changes nothing and reports
// false, and the caller must run Step. An ips of zero retires nothing
// and always outlasts the step.
func (c *Cursor) StepWithin(ips, done, dtSec float64) bool {
	if c.remaining/ips > dtSec {
		c.remaining -= done
		return true
	}
	return false
}

// InPhaseSteps reports how many consecutive StepWithin(ips, done, dtSec)
// calls are guaranteed to succeed, each retiring done, holding back
// steadyMargin steps from the float-derived bound. Zero means the next
// step may reach the phase boundary. A unit that retires nothing
// (ips = 0) is steady indefinitely.
func (c *Cursor) InPhaseSteps(ips, done, dtSec float64) int64 {
	if !(c.remaining/ips > dtSec) {
		return 0
	}
	if ips == 0 {
		return 1 << 62
	}
	n := int64(c.remaining/done) - steadyMargin
	if n < 0 {
		return 0
	}
	return n
}

// Remaining returns the instructions left in the current phase.
func (c *Cursor) Remaining() float64 { return c.remaining }

// SetRemaining stores the instructions left in the current phase after a
// caller's own replay of in-phase steps: starting from Remaining, it
// subtracts InPhase's done once per step — the identical subtraction
// Step performs — in a loop fused with its own accumulators. The caller
// must bound the replay by InPhaseSteps so no replayed step could have
// crossed a phase boundary.
func (c *Cursor) SetRemaining(rem float64) { c.remaining = rem }

func (c *Cursor) advance() {
	c.idx = (c.idx + 1) % len(c.trace.Phases)
	c.remaining = c.trace.Phases[c.idx].Instr
}

// Reset rewinds the cursor to the given phase.
func (c *Cursor) Reset(startPhase int) {
	idx := startPhase % len(c.trace.Phases)
	if idx < 0 {
		idx += len(c.trace.Phases)
	}
	c.idx = idx
	c.remaining = c.trace.Phases[c.idx].Instr
}
