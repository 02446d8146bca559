// Package sim defines the shared vocabulary of the HCAPP co-simulation:
// simulated time, the Component interface implemented by every chiplet
// model, and the per-step result record.
//
// Keeping these types in a leaf package lets the chiplet simulators
// (internal/cpusim, internal/gpusim, internal/accelsim), the control
// hierarchy (internal/core) and the engine (internal/sched) depend on a
// common contract without import cycles.
package sim

import "fmt"

// Time is simulated time in integer nanoseconds. Integer time keeps the
// engine exactly reproducible: there is no accumulation of floating-point
// error across the millions of steps in a run.
type Time = int64

// Convenient duration units, all in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// FormatTime renders a simulated timestamp with a human-friendly unit.
func FormatTime(t Time) string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", t)
	}
}

// Seconds converts a simulated duration to floating-point seconds.
func Seconds(t Time) float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to simulated time, rounding
// to the nearest nanosecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// StepResult reports what a component did during one engine timestep.
type StepResult struct {
	// Power is the total power drawn by the component over the step, in
	// watts (average over the step).
	Power float64
	// Work is the number of abstract work units completed during the
	// step (instructions for CPU/GPU, bytes hashed for the accelerator).
	Work float64
}

// Component is a power-consuming element of the 2.5D package: a CPU
// chiplet, a GPU chiplet, an accelerator, or a fixed-function domain such
// as memory. The engine supplies the component's domain voltage each step;
// the component applies its own local controller (if any) internally.
type Component interface {
	// Name identifies the component in traces and reports.
	Name() string
	// Step advances the component by dt ending at time now, powered at
	// domain voltage vdd (volts), and reports power drawn and work done.
	Step(now Time, dt Time, vdd float64) StepResult
	// Done reports whether the component has finished its assigned work.
	// Finished components may still draw idle power.
	Done() bool
	// Progress reports the fraction of assigned work completed, in [0,1].
	Progress() float64
}

// Resetter is implemented by components that can be rewound to their
// initial state so a single system can be reused across runs.
type Resetter interface{ Reset() }

// BulkStepper is implemented by components that can prove a run of
// future steps will be bitwise identical to the last one and replay
// them in bulk. It powers the engine's steady-state striding.
type BulkStepper interface {
	// SteadyFor returns the maximum number of consecutive future
	// Step(now+k·dt, dt, vdd) calls (k = 1..n) guaranteed to return
	// exactly the result of the last Step and to change internal state
	// only by the per-step accumulations StepN replays. Zero disables
	// striding. Implementations must compare against the last step's
	// actual outputs — bitwise — and must bound n conservatively around
	// any internal event (phase boundary, epoch, completion).
	SteadyFor(now Time, dt Time, vdd float64) int64
	// StepN replays n steady steps verified by SteadyFor: per-step
	// accumulators advance by n repetitions of the identical
	// floating-point operation Step performs (never a closed form, which
	// would round differently).
	StepN(now Time, dt Time, vdd float64, n int64)
}

// StepsBefore returns the largest n ≥ 0 such that now + k·dt < event
// for every k in 1..n — the longest stride from now that stays strictly
// before a fire-when-reached event boundary.
func StepsBefore(now, dt, event Time) int64 {
	if event <= now {
		return 0
	}
	return (event - 1 - now) / dt
}
