// Package sched is the central simulation controller (paper §4.1): the
// fixed-timestep co-simulation engine that steps the package's voltage
// regulators, power supply network, chiplet simulators, sensing path and
// the HCAPP global controller on a common clock, and records the power
// trace.
//
// One engine step, in order:
//
//  1. the global VR slews toward its commanded voltage;
//  2. the PSN delay line propagates the global rail to the domains, with
//     IR droop from the previous step's load;
//  3. each domain controller normalizes the rail and steps its chiplet;
//  4. the summed package power enters the sensing path;
//  5. on a control-cycle boundary, the global controller reads the
//     sensed power and commands a new global voltage.
//
// The per-slot state the step loop touches lives in parallel arrays
// compiled at construction (see Engine). Wherever the next steps are
// provably bitwise identical to the last one, the engine strides over
// them in bulk with byte-identical results; see docs/PERF.md.
package sched

import (
	"fmt"

	"hcapp/internal/accelsim"
	"hcapp/internal/chiplet"
	"hcapp/internal/core"
	"hcapp/internal/fault"
	"hcapp/internal/psn"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
	"hcapp/internal/vr"
)

// Slot binds a domain controller to the component it powers.
type Slot struct {
	Domain *core.Domain
	Comp   sim.Component
}

// Supervisor is an optional software-timescale controller invoked on its
// own period with full engine access — the consumer of the §3.2/§5.3
// software interface (priority registers). Policies live in
// internal/swctl; the engine only provides the hook.
type Supervisor interface {
	// Period is the supervisor's invocation period (OS timescale,
	// typically ≥ 1 ms).
	Period() sim.Time
	// Tick runs one supervision pass at time now.
	Tick(now sim.Time, eng *Engine)
}

// DomainSample is one domain's contribution to a step, delivered to a
// StepObserver. The slice passed to ObserveSteps is reused between
// calls; observers must copy anything they keep.
type DomainSample struct {
	// Domain is the domain controller's name ("cpu", "gpu", "sha", ...).
	Domain string
	// Component is the powered component's name.
	Component string
	// Power is the component's draw over the step, watts.
	Power float64
	// Voltage is the domain output voltage applied this step.
	Voltage float64
}

// StepObserver receives live per-step telemetry from a running engine —
// the hook the energy ledger and the hcapp-serve metrics/trace pipeline
// hang off. ObserveSteps reports n consecutive, bitwise-identical steps
// at now, now+dt, …, now+(n-1)·dt: an ordinary step calls it with
// n = 1, a stride once with its length. Implementations replay their
// per-step work n times in order, never in closed form, so a run's
// observed totals do not depend on how it was strided. It is called on
// the simulation goroutine after all components have stepped;
// implementations must be fast and must not retain domains.
type StepObserver interface {
	ObserveSteps(now, dt sim.Time, n int64, totalPower float64, domains []DomainSample)
}

// multiObserver fans each call out to several observers, in order.
type multiObserver []StepObserver

func (m multiObserver) ObserveSteps(now, dt sim.Time, n int64, totalPower float64, domains []DomainSample) {
	for _, o := range m {
		o.ObserveSteps(now, dt, n, totalPower, domains)
	}
}

// Observers combines step observers into one, dropping nils: an energy
// ledger and a live-metrics observer can watch the same engine without
// either knowing about the other. Zero non-nil observers return nil (the
// engine then skips the observer path entirely), and a single observer
// is returned unwrapped, so composition never costs an extra interface
// hop unless there really are several.
func Observers(obs ...StepObserver) StepObserver {
	out := make(multiObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// Config assembles an engine.
type Config struct {
	DT       sim.Time
	GlobalVR *vr.Regulator
	Sensor   *vr.Sensor
	PSN      *psn.DelayLine
	Droop    psn.Droop
	// Global is the level-1 controller; nil runs the fixed-voltage
	// baseline (the global VR holds its initial voltage forever).
	Global *core.Global
	Slots  []Slot
	// Recorder reduces every step's package power to the run's average
	// and window maxima, keeping no series; required.
	Recorder *trace.Recorder
	// Supervisor, when non-nil, runs on its own period (software
	// control on top of HCAPP, §5.3/§6).
	Supervisor Supervisor
	// Observer, when non-nil, receives per-step telemetry (power,
	// per-domain voltage): one interface call per step or per stride
	// plus a few stores; no allocations. Observers never stop the
	// engine from striding.
	Observer StepObserver
	// Injector, when non-nil, perturbs the step loop with deterministic
	// faults (sensing-path defects, rail droop, VR degradation, domain
	// silence); see internal/fault. A nil injector costs one pointer
	// comparison per step (guarded in bench_test.go).
	Injector *fault.Injector
	// Clamp, when non-nil, is the package-level safety clamp: it runs
	// after the global controller each step against the *true* summed
	// power, so the cap holds even when the sensing path lies.
	Clamp *core.Clamp
}

// fixedStep makes engines built while it is set execute one step at a
// time: the reference the strided path is diffed against. Building
// with the hcapp_fixedstep tag sets it for a whole binary
// (fixedstep.go); the package's paired tests flip it in process
// through export_test.go. No other code writes it.
var fixedStep bool

// slotKind selects the devirtualized dispatch for one slot: the engine
// calls the concrete Step of the known component types directly and
// falls back to the interface for anything else.
type slotKind uint8

const (
	slotGeneric slotKind = iota
	slotChiplet
	slotAccel
	slotConstant
)

// Engine is the central simulation controller. Per-slot hot-path state
// is compiled into parallel arrays at construction (struct-of-arrays):
// the step loop indexes flat slices instead of chasing interface
// pointers, and completion is a counter maintained on the done edge
// instead of a per-step rescan.
type Engine struct {
	cfg       Config
	now       sim.Time
	lastTotal float64
	nextSup   sim.Time
	supTicks  int64
	steps     int64
	// obsBuf is the reusable per-step sample buffer handed to the
	// observer (names prefilled at construction; zero allocs per step).
	obsBuf []DomainSample
	// obsIdle keeps a detached observer's buffer for the next
	// SetObserver.
	obsIdle []DomainSample
	// lastGoodSense is when the sensing path last received a real
	// sample (fault injection drops age the reading).
	lastGoodSense sim.Time
	// clampHeld tracks the safety clamp's engagement across steps to
	// detect the release edge.
	clampHeld bool
	// slewDirty records that the injector degraded the global VR slew,
	// so the restore store happens once instead of every idle step.
	slewDirty bool
	// injIdleUntil caches the injector's NextChange bound: every step
	// strictly before it is guaranteed idle, so the no-fault fast path
	// is one field compare with no call (the <2% overhead contract).
	injIdleUntil sim.Time

	// Compiled slot table. All slices are len(cfg.Slots).
	kinds    []slotKind
	doms     []*core.Domain
	domNames []string
	chips    []*chiplet.Chiplet
	accels   []*accelsim.Accel
	consts   []*chiplet.Constant
	comps    []sim.Component
	bulks    []sim.BulkStepper // nil for components without bulk stepping
	vdom     []float64         // last step's domain voltages
	pw       []float64         // last step's per-component power
	doneFlag []bool            // completion cache (non-generic slots)
	notDone  int               // undone non-generic slots
	generics []int             // slot indices needing interface Done()

	// Striding state: canStride says every slot can bulk-step and
	// fixed stepping is not forced; the rest is a snapshot of the
	// quantities the last step produced, enough to prove the next step
	// would be identical.
	canStride    bool
	prevTotal    float64 // lastTotal as seen BY the last step (droop input)
	lastVglobal  float64
	lastVrail    float64
	lastInjIdle  bool
	strides      int64
	stridedSteps int64
}

// New validates and builds an engine.
func New(cfg Config) (*Engine, error) {
	switch {
	case cfg.DT <= 0:
		return nil, fmt.Errorf("sched: non-positive timestep %d", cfg.DT)
	case cfg.GlobalVR == nil:
		return nil, fmt.Errorf("sched: missing global VR")
	case cfg.Sensor == nil:
		return nil, fmt.Errorf("sched: missing sensor")
	case cfg.PSN == nil:
		return nil, fmt.Errorf("sched: missing PSN delay line")
	case len(cfg.Slots) == 0:
		return nil, fmt.Errorf("sched: no components")
	case cfg.Recorder == nil:
		return nil, fmt.Errorf("sched: missing recorder")
	}
	for i, s := range cfg.Slots {
		if s.Domain == nil || s.Comp == nil {
			return nil, fmt.Errorf("sched: slot %d incomplete", i)
		}
	}
	e := &Engine{cfg: cfg}
	if cfg.Observer != nil {
		e.obsBuf = e.newObsBuf()
	}
	if cfg.Supervisor != nil {
		if cfg.Supervisor.Period() <= 0 {
			return nil, fmt.Errorf("sched: supervisor period must be positive")
		}
		e.nextSup = cfg.Supervisor.Period()
	}
	e.compile()
	return e, nil
}

// compile builds the struct-of-arrays slot table: concrete dispatch
// kinds and the completion cache.
func (e *Engine) compile() {
	n := len(e.cfg.Slots)
	e.kinds = make([]slotKind, n)
	e.doms = make([]*core.Domain, n)
	e.domNames = make([]string, n)
	e.chips = make([]*chiplet.Chiplet, n)
	e.accels = make([]*accelsim.Accel, n)
	e.consts = make([]*chiplet.Constant, n)
	e.comps = make([]sim.Component, n)
	e.bulks = make([]sim.BulkStepper, n)
	e.vdom = make([]float64, n)
	e.pw = make([]float64, n)
	e.doneFlag = make([]bool, n)
	e.generics = nil
	for i, s := range e.cfg.Slots {
		e.doms[i] = s.Domain
		e.domNames[i] = s.Domain.Name()
		e.comps[i] = s.Comp
		e.bulks[i], _ = s.Comp.(sim.BulkStepper)
		switch c := s.Comp.(type) {
		case *chiplet.Chiplet:
			e.kinds[i] = slotChiplet
			e.chips[i] = c
		case *accelsim.Accel:
			e.kinds[i] = slotAccel
			e.accels[i] = c
		case *chiplet.Constant:
			e.kinds[i] = slotConstant
			e.consts[i] = c
		default:
			e.kinds[i] = slotGeneric
			e.generics = append(e.generics, i)
		}
	}
	e.resetDoneCache()
	e.canStride = !fixedStep
	for _, b := range e.bulks {
		if b == nil {
			e.canStride = false
		}
	}
}

// resetDoneCache recomputes the completion cache from component state.
func (e *Engine) resetDoneCache() {
	e.notDone = 0
	for i := range e.comps {
		if e.kinds[i] == slotGeneric {
			// Generic slots are re-polled in allDone; the cache only
			// covers the concrete kinds whose completion is monotonic
			// during a run.
			e.doneFlag[i] = false
			continue
		}
		e.doneFlag[i] = e.comps[i].Done()
		if !e.doneFlag[i] {
			e.notDone++
		}
	}
}

// MustNew is New that panics on invalid configuration.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Result summarizes a run.
type Result struct {
	// Duration is the simulated span of the run.
	Duration sim.Time
	// Completed reports whether every component finished its work
	// before MaxDuration.
	Completed bool
	// Completion maps component name to its completion time (only for
	// components exposing one and which completed).
	Completion map[string]sim.Time
	// ControlCycles is the number of global control actions taken.
	ControlCycles int64
}

// completionTimer is implemented by components that record when they
// finished (the chiplets and the accelerator).
type completionTimer interface {
	CompletionTime() sim.Time
}

// Run advances the simulation until every component is done or maxDur
// elapses, whichever comes first.
func (e *Engine) Run(maxDur sim.Time) Result {
	return e.RunWithCancel(maxDur, nil)
}

// cancelCheckEvery is how many engine steps pass between cancellation
// polls in RunWithCancel — coarse enough to stay off the hot path, fine
// enough that a cancelled run stops within milliseconds of wall clock.
const cancelCheckEvery = 4096

// RunWithCancel is Run with a cooperative stop: cancelled, when
// non-nil, is polled every cancelCheckEvery steps and a true return
// ends the run early (Completed reports false unless every component
// already finished). It is how the job server bounds a hung or
// oversized simulation with a wall-clock timeout.
//
// The run executes whole steps only: when maxDur is not a multiple of
// DT it stops at the last step boundary at or before maxDur, never
// past it (partial steps would corrupt the uniform-dt trace).
func (e *Engine) RunWithCancel(maxDur sim.Time, cancelled func() bool) Result {
	dt := e.cfg.DT
	sinceCheck := int64(0)
	for e.now+dt <= maxDur {
		e.now += dt
		e.step()
		if e.allDone() {
			break
		}
		if e.canStride {
			if n := e.strideLen(maxDur); n > 0 {
				e.stride(n)
				sinceCheck += n
			}
		}
		if cancelled != nil {
			if sinceCheck++; sinceCheck >= cancelCheckEvery {
				sinceCheck = 0
				if cancelled() {
					break
				}
			}
		}
	}
	res := Result{
		Duration:   e.now,
		Completed:  e.allDone(),
		Completion: make(map[string]sim.Time),
	}
	if e.cfg.Global != nil {
		res.ControlCycles = e.cfg.Global.Cycles()
	}
	for _, s := range e.cfg.Slots {
		if ct, ok := s.Comp.(completionTimer); ok {
			if t := ct.CompletionTime(); t >= 0 {
				res.Completion[s.Comp.Name()] = t
			}
		}
	}
	return res
}

// RunFor advances the simulation by dur regardless of component
// completion (used for trace generation and tuning). Like Run it
// executes whole steps only, stopping at the last boundary within dur.
func (e *Engine) RunFor(dur sim.Time) {
	dt := e.cfg.DT
	end := e.now + dur
	for e.now+dt <= end {
		e.now += dt
		e.step()
		if e.canStride {
			if n := e.strideLen(end); n > 0 {
				e.stride(n)
			}
		}
	}
}

func (e *Engine) step() {
	now, dt := e.now, e.cfg.DT

	// 0. Fault injection: resolve this step's perturbations (one time
	// comparison when the injector is attached but idle, one pointer
	// comparison when absent).
	inj := e.cfg.Injector
	injActive := false
	if inj != nil && now >= e.injIdleUntil {
		injActive = inj.BeginStep(now)
		// The slew scale must be *restored* once a VRSlew window ends,
		// but an idle injector must not pay a store per step — the
		// restore happens once, on the first idle step after an active
		// one (slewDirty). While idle the injector promises no change
		// strictly before NextChange, so steps until then skip
		// BeginStep entirely (slewDirty is false by then: it was
		// cleared on the step that cached the bound).
		if injActive {
			e.cfg.GlobalVR.SetSlewScale(inj.SlewScale())
			e.slewDirty = true
		} else {
			e.injIdleUntil = inj.NextChange()
			if e.slewDirty {
				e.cfg.GlobalVR.SetSlewScale(1)
				e.slewDirty = false
			}
		}
	}

	// 1. Global rail.
	vglobal := e.cfg.GlobalVR.Step(now, dt)

	// 2. Power supply network: transport delay + IR droop from the
	// previous step's current draw.
	vrail := e.cfg.PSN.Step(vglobal)
	vrail = e.cfg.Droop.Apply(vrail, e.lastTotal)
	if injActive {
		vrail = inj.Rail(vrail)
	}

	// The droop input is what the stride check must compare against:
	// the next step is only a replay if it sees the same lastTotal.
	e.prevTotal = e.lastTotal
	e.lastVglobal = vglobal
	e.lastVrail = vrail
	e.lastInjIdle = !injActive

	// 3. Domains and components, through the compiled slot table.
	total := 0.0
	for i := range e.kinds {
		d := e.doms[i]
		var vdom float64
		if injActive && inj.Silenced(e.domNames[i]) {
			vdom = d.StepSilent(now, dt)
		} else {
			vdom = d.Step(now, dt, vrail)
		}
		var res sim.StepResult
		switch e.kinds[i] {
		case slotChiplet:
			res = e.chips[i].Step(now, dt, vdom)
		case slotAccel:
			res = e.accels[i].Step(now, dt, vdom)
		case slotConstant:
			res = e.consts[i].Step(now, dt, vdom)
		default:
			res = e.comps[i].Step(now, dt, vdom)
		}
		e.vdom[i] = vdom
		e.pw[i] = res.Power
		total += res.Power
		if e.obsBuf != nil {
			e.obsBuf[i].Power = res.Power
			e.obsBuf[i].Voltage = vdom
		}
		// Maintain the completion cache on the done edge (concrete
		// kinds only; their completion is monotonic during a run).
		if !e.doneFlag[i] {
			switch e.kinds[i] {
			case slotChiplet:
				if e.chips[i].Done() {
					e.doneFlag[i] = true
					e.notDone--
				}
			case slotAccel:
				if e.accels[i].Done() {
					e.doneFlag[i] = true
					e.notDone--
				}
			}
		}
	}

	// The global regulator's conversion loss is package power too: it
	// flows through the same pins (zero with the default lossless
	// configuration).
	total += e.cfg.GlobalVR.Loss(total)

	// 4. Sensing path. A dropped sample never reaches the sensor (the
	// filter holds its state) and ages the reading; a perturbed sample
	// goes through like a real one — a stuck ADC still "delivers".
	if injActive {
		if sensed, ok := inj.Sense(total); ok {
			e.cfg.Sensor.Push(sensed)
			e.lastGoodSense = now
		}
	} else {
		e.cfg.Sensor.Push(total)
		e.lastGoodSense = now
	}

	// 5. Global control, then the safety clamp — the clamp runs last and
	// re-commands every engaged step, so no controller command can
	// supersede it.
	if e.cfg.Global != nil {
		e.cfg.Global.StepSensed(now, e.cfg.Sensor.Read(), now-e.lastGoodSense, e.cfg.GlobalVR)
	}
	if e.cfg.Clamp != nil {
		engaged := e.cfg.Clamp.Step(now, total, e.cfg.GlobalVR)
		if e.clampHeld && !engaged && e.cfg.Global != nil {
			// Release edge: restart the PID so windup accumulated while
			// the override poisoned the loop doesn't drive the recovery.
			e.cfg.Global.NotifyOverrideRelease()
		}
		e.clampHeld = engaged
	}

	e.cfg.Recorder.Record(total)
	e.lastTotal = total
	e.steps++
	if e.cfg.Observer != nil {
		e.cfg.Observer.ObserveSteps(now, dt, 1, total, e.obsBuf)
	}

	// 6. Software supervision (OS timescale).
	if e.cfg.Supervisor != nil && now >= e.nextSup {
		e.cfg.Supervisor.Tick(now, e)
		e.nextSup = now + e.cfg.Supervisor.Period()
		e.supTicks++
	}
}

// minStride is the smallest stride worth the steady checks: below this
// the replay bookkeeping costs as much as just stepping.
const minStride = 4

// strideLen returns how many steps after the current one are provably
// bitwise identical to it, bounded so the stride ends strictly before
// the run end and before every event boundary: global control fires,
// supervisor ticks, fault windows, workload phase edges, local-control
// epochs, and work completion. Zero means step normally.
//
// The proof obligation is an induction: if the last step saw the same
// droop input it produced (lastTotal == prevTotal), the injector was
// idle, the regulators are settled, the delay lines and sliding windows
// are flat, the sensor filter is at its exact fixed point, and every
// component certifies its next steps reproduce its last one, then the
// next step performs the identical floating-point operations on
// identical state — so its outputs equal the last step's bitwise, and
// the invariants still hold afterwards.
func (e *Engine) strideLen(end sim.Time) int64 {
	// Cheap scalar gates first: almost every non-steady step fails here
	// for the cost of a few compares.
	if e.lastTotal != e.prevTotal || !e.lastInjIdle || e.slewDirty {
		return 0
	}
	cfg := &e.cfg
	dt := cfg.DT
	if !cfg.GlobalVR.Settled() {
		return 0
	}
	n := (end - e.now) / dt
	if cfg.Global != nil {
		if k := sim.StepsBefore(e.now, dt, cfg.Global.NextFire()); k < n {
			n = k
		}
	}
	if cfg.Supervisor != nil {
		if k := sim.StepsBefore(e.now, dt, e.nextSup); k < n {
			n = k
		}
	}
	if cfg.Injector != nil {
		if k := sim.StepsBefore(e.now, dt, cfg.Injector.NextChange()); k < n {
			n = k
		}
	}
	if n < minStride {
		return 0
	}
	if !cfg.PSN.SteadyAt(e.lastVglobal) {
		return 0
	}
	// With a global controller attached its window accumulates Read()
	// once per step, so the filter must be at its bitwise fixed point;
	// without one, nothing observes the filter mid-stride and AdvanceN
	// replays its convergence exactly — only the delay ring must be flat.
	if cfg.Global != nil {
		if !cfg.Sensor.SteadyAt(e.lastTotal) {
			return 0
		}
	} else if !cfg.Sensor.DelaySteadyAt(e.lastTotal) {
		return 0
	}
	for i := range e.doms {
		if !e.doms[i].SteadyAt(e.lastVrail) {
			return 0
		}
		if k := e.bulks[i].SteadyFor(e.now, dt, e.vdom[i]); k < n {
			n = k
			if n < minStride {
				return 0
			}
		}
	}
	// The clamp's window scan is the most expensive check; run it last.
	if cfg.Clamp != nil && !cfg.Clamp.SteadyAt(e.lastTotal) {
		return 0
	}
	return n
}

// stride replays n steps verified by strideLen: components advance
// their accumulators by n repetitions of the identical per-step
// operation, rings rotate in place, the controller accumulates its
// window, the recorder appends n copies of the steady sample, and the
// observer hears all n steps in one call. No voltages move and no
// events fire — strideLen guaranteed both.
func (e *Engine) stride(n int64) {
	cfg := &e.cfg
	dt := cfg.DT
	first := e.now + dt
	for i, k := range e.kinds {
		switch k {
		case slotChiplet:
			e.chips[i].StepN(e.now, dt, e.vdom[i], n)
		case slotAccel:
			e.accels[i].StepN(e.now, dt, e.vdom[i], n)
		case slotConstant:
			// Stateless fixed draw: nothing accumulates.
		default:
			e.bulks[i].StepN(e.now, dt, e.vdom[i], n)
		}
	}
	cfg.Sensor.AdvanceN(e.lastTotal, n)
	cfg.PSN.AdvanceN(n)
	if cfg.Global != nil {
		cfg.Global.AccumulateN(cfg.Sensor.Read(), n)
	}
	if cfg.Clamp != nil {
		cfg.Clamp.AdvanceN(n)
	}
	cfg.Recorder.RecordN(e.lastTotal, int(n))
	e.now += sim.Time(n) * dt
	e.lastGoodSense = e.now
	e.steps += n
	e.strides++
	e.stridedSteps += n
	if cfg.Observer != nil {
		cfg.Observer.ObserveSteps(first, dt, n, e.lastTotal, e.obsBuf)
	}
}

// newObsBuf returns the observer's sample buffer with the slot names
// filled in.
func (e *Engine) newObsBuf() []DomainSample {
	buf := make([]DomainSample, len(e.cfg.Slots))
	for i, s := range e.cfg.Slots {
		buf[i].Domain = s.Domain.Name()
		buf[i].Component = s.Comp.Name()
	}
	return buf
}

// SetObserver replaces the step observer between runs; nil detaches
// it, so stepping does no observation work at all. An observer
// attached mid-run first sees the last step's samples.
func (e *Engine) SetObserver(obs StepObserver) {
	e.cfg.Observer = obs
	if obs == nil {
		if e.obsBuf != nil {
			e.obsIdle, e.obsBuf = e.obsBuf, nil
		}
		return
	}
	if e.obsBuf != nil {
		return
	}
	e.obsBuf = e.obsIdle
	if e.obsBuf == nil {
		e.obsBuf = e.newObsBuf()
	}
	for i := range e.obsBuf {
		e.obsBuf[i].Power = e.pw[i]
		e.obsBuf[i].Voltage = e.vdom[i]
	}
}

// SupervisorTicks reports how many supervision passes have run.
func (e *Engine) SupervisorTicks() int64 { return e.supTicks }

// Steps reports how many engine steps have executed since construction
// or the last Reset (strided steps included).
func (e *Engine) Steps() int64 { return e.steps }

// Strides reports how many steady-state strides the engine took since
// construction or the last Reset.
func (e *Engine) Strides() int64 { return e.strides }

// StridedSteps reports how many steps were covered by strides
// (a subset of Steps). StridedSteps/Steps is the striding ratio — the
// fraction of the run that never executed the full step loop.
func (e *Engine) StridedSteps() int64 { return e.stridedSteps }

// LastTotalPower returns the package power drawn on the most recent
// step (telemetry for supervisors).
func (e *Engine) LastTotalPower() float64 { return e.lastTotal }

// LastRail returns the rail voltage the most recent step delivered to
// the domains, after PSN delay, droop and any injected rail fault. A
// step observer reads it for the step it is told about: strided steps
// replay the last step, so they share its rail.
func (e *Engine) LastRail() float64 { return e.lastVrail }

func (e *Engine) allDone() bool {
	if e.notDone > 0 {
		return false
	}
	for _, i := range e.generics {
		if !e.comps[i].Done() {
			return false
		}
	}
	return true
}

// Now returns the current simulated time.
func (e *Engine) Now() sim.Time { return e.now }

// Recorder returns the engine's power recorder.
func (e *Engine) Recorder() *trace.Recorder { return e.cfg.Recorder }

// Sensor returns the package power sensor (fault injection, tests).
func (e *Engine) Sensor() *vr.Sensor { return e.cfg.Sensor }

// GlobalController returns the level-1 controller, or nil for the
// fixed-voltage baseline (dynamic retargeting, tests).
func (e *Engine) GlobalController() *core.Global { return e.cfg.Global }

// Slots exposes the engine's component slots (for priority experiments
// and inspection).
func (e *Engine) Slots() []Slot { return e.cfg.Slots }

// Domain returns the named domain controller, or nil.
func (e *Engine) Domain(name string) *core.Domain {
	for _, s := range e.cfg.Slots {
		if s.Domain.Name() == name {
			return s.Domain
		}
	}
	return nil
}

// Component returns the named component, or nil.
func (e *Engine) Component(name string) sim.Component {
	for _, s := range e.cfg.Slots {
		if s.Comp.Name() == name {
			return s.Comp
		}
	}
	return nil
}

// Reset rewinds the engine and everything it owns for another run.
func (e *Engine) Reset() {
	e.now = 0
	e.lastTotal = 0
	e.cfg.GlobalVR.Reset()
	e.cfg.Sensor.Reset()
	e.cfg.PSN.Reset()
	if e.cfg.Global != nil {
		e.cfg.Global.Reset()
	}
	for _, s := range e.cfg.Slots {
		s.Domain.Reset()
		if r, ok := s.Comp.(sim.Resetter); ok {
			r.Reset()
		}
	}
	e.cfg.Recorder.Reset()
	e.supTicks = 0
	e.steps = 0
	e.lastGoodSense = 0
	e.clampHeld = false
	e.slewDirty = false
	e.injIdleUntil = 0
	if e.cfg.Supervisor != nil {
		e.nextSup = e.cfg.Supervisor.Period()
	}
	if e.cfg.Injector != nil {
		e.cfg.Injector.Reset()
	}
	if e.cfg.Clamp != nil {
		e.cfg.Clamp.Reset()
	}
	// Per-slot hot-path state and the steady-stride snapshot.
	for i := range e.vdom {
		e.vdom[i] = 0
		e.pw[i] = 0
	}
	for i := range e.obsBuf {
		e.obsBuf[i].Power = 0
		e.obsBuf[i].Voltage = 0
	}
	e.resetDoneCache()
	e.prevTotal = 0
	e.lastVglobal = 0
	e.lastVrail = 0
	e.lastInjIdle = false
	e.strides = 0
	e.stridedSteps = 0
}

// Injector returns the attached fault injector, or nil.
func (e *Engine) Injector() *fault.Injector { return e.cfg.Injector }

// Clamp returns the attached package safety clamp, or nil.
func (e *Engine) Clamp() *core.Clamp { return e.cfg.Clamp }
