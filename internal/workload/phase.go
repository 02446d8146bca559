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
	s := p.Slowdown(f, fmax)
	if s <= 0 {
		return 0
	}
	return p.IPC * fmax * (1 - p.MemFrac) / s
}

// EffActivity returns the time-weighted switching activity at frequency
// f: the stall fraction grows as frequency rises (stalls take the same
// wall time while compute shrinks).
func (p Phase) EffActivity(f, fmax float64) float64 {
	s := p.Slowdown(f, fmax)
	if s <= 0 {
		return p.StallAct
	}
	stallFrac := p.MemFrac / s
	return p.Activity*(1-stallFrac) + p.StallAct*stallFrac
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
	IPC      float64 // measured IPC over the step (retired / (f·dt))
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
		p := c.trace.Phases[c.idx]
		ips := p.IPS(f, fmax)
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
			actWeighted += p.EffActivity(f, fmax) * remainingTime
			remainingTime = 0
		} else {
			// Finish the phase and move on.
			out.Instr += c.remaining
			actWeighted += p.EffActivity(f, fmax) * phaseTime
			remainingTime -= phaseTime
			c.advance()
		}
	}
	out.Activity = actWeighted / dtSec
	out.IPC = out.Instr / (f * dtSec)
	return out
}

// steadyMargin is how many steps SteadySteps holds back from a
// float-derived event bound. The phase-boundary estimate divides the
// remaining work by the per-step retirement, while the replay subtracts
// the per-step amount repeatedly; the two drift apart by at most a few
// ulps per step (≪ 1 step over any realistic phase), so a fixed margin
// of whole steps keeps the stride strictly inside the phase.
const steadyMargin = 8

// SteadySteps reports how many consecutive Step(dt, f, fmax) calls are
// guaranteed to stay inside the current phase and return bitwise
// identical outcomes, along with the per-step Instr and Activity those
// steps produce — computed operation-for-operation as Step computes
// them. Zero means the next step may cross a phase boundary (or the
// cursor is too close to one to stride safely). The f ≤ 0 and
// stalled-phase cases mutate nothing and are steady indefinitely.
func (c *Cursor) SteadySteps(dt sim.Time, f, fmax float64) (n int64, instr, act float64) {
	dtSec := sim.Seconds(dt)
	if f <= 0 {
		return 1 << 62, 0, c.Phase().StallAct
	}
	p := c.trace.Phases[c.idx]
	ips := p.IPS(f, fmax)
	if ips <= 0 {
		return 1 << 62, 0, (p.StallAct * dtSec) / dtSec
	}
	done := ips * dtSec
	act = (p.EffActivity(f, fmax) * dtSec) / dtSec
	if c.remaining/ips <= dtSec {
		return 0, done, act
	}
	n = int64(c.remaining/done) - steadyMargin
	if n < 0 {
		n = 0
	}
	return n, done, act
}

// Remaining returns the instructions left in the current phase.
func (c *Cursor) Remaining() float64 { return c.remaining }

// SetRemaining stores the instructions left in the current phase after a
// caller's own replay of in-phase steps: starting from Remaining, it
// subtracts SteadySteps' per-step instr once per step — the identical
// subtraction Step performs — in a loop fused with its own accumulators.
// The caller must bound the replay by SteadySteps so no replayed step
// could have crossed a phase boundary.
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
