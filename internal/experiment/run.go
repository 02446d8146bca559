package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"hcapp/internal/config"
	"hcapp/internal/energy"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
	"hcapp/internal/stats"
	"hcapp/internal/trace"
)

// Components whose completion time defines per-component speedup (Eq. 3).
var speedupComponents = []string{"cpu", "gpu", "sha"}

// RunSpec identifies one simulation run.
type RunSpec struct {
	Combo  Combo
	Scheme config.Scheme
	Limit  config.PowerLimit
	// Priorities for the §5.3 software-interface runs (domain → value).
	Priorities map[string]float64
	// AdversarialAccel enables the §3.3.3 ablation.
	AdversarialAccel bool
	// Policy names a software policy supervising the run ("static-cpu",
	// "progress-balancer", "critical-path"); empty means none.
	Policy string
}

// key identifies the spec itself. It deliberately excludes evaluator
// state (seed, horizon, fixed voltage) — the evaluator folds those in
// via runKey, so reconfiguring an evaluator mid-sequence can never serve
// a result computed under the old parameters.
func (s RunSpec) key() string {
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
	return k
}

// RunResult is the outcome of one simulation run.
type RunResult struct {
	Spec RunSpec
	// MaxWindowPower is the maximum power averaged over the limit's
	// window anywhere in the run (the Fig. 4 / Fig. 7 quantity).
	MaxWindowPower float64
	// MaxOverLimit is MaxWindowPower / limit — above 1.0 is a power
	// failure.
	MaxOverLimit float64
	// Violated reports MaxOverLimit > 1.
	Violated bool
	// AvgPower is the run's mean package power.
	AvgPower float64
	// PPE is Eq. 4: AvgPower / provisioned (limit) power.
	PPE float64
	// Completion maps component name → completion time. Components that
	// did not finish within the deadline are recorded at the deadline.
	Completion map[string]sim.Time
	// Finished maps component name → whether it genuinely completed its
	// work (false means its Completion entry is the deadline clip, not a
	// finish time). A nil map — hand-built results — means every recorded
	// completion is genuine.
	Finished map[string]bool
	// Completed reports whether every component finished.
	Completed bool
	// Duration is the simulated run length.
	Duration sim.Time
	// ControlCycles counts global control actions.
	ControlCycles int64
	// Energy is the run's attribution ledger summary; non-nil only when
	// the evaluator ran with TrackEnergy, locally or on a fleet.
	Energy *energy.Summary
}

// finished reports whether the named component genuinely completed.
func (r RunResult) finished(name string) bool {
	if r.Finished == nil {
		return true
	}
	return r.Finished[name]
}

// newRunResult assembles the run metrics every driver shares: window and
// average power against the limit, PPE, and per-component completion
// with deadline-clip tracking.
func newRunResult(spec RunSpec, rec *trace.Recorder, res sched.Result) RunResult {
	out := RunResult{
		Spec:           spec,
		MaxWindowPower: rec.MaxWindowAvg(spec.Limit.Window),
		AvgPower:       rec.AvgPower(),
		Completed:      res.Completed,
		Duration:       res.Duration,
		ControlCycles:  res.ControlCycles,
		Completion:     make(map[string]sim.Time, len(speedupComponents)),
		Finished:       make(map[string]bool, len(speedupComponents)),
	}
	out.MaxOverLimit = out.MaxWindowPower / spec.Limit.Watts
	out.Violated = out.MaxOverLimit > 1
	out.PPE = rec.PPE(spec.Limit.Watts)
	for _, name := range speedupComponents {
		if t, ok := res.Completion[name]; ok {
			out.Completion[name] = t
			out.Finished[name] = true
		} else {
			out.Completion[name] = res.Duration
			out.Finished[name] = false
		}
	}
	return out
}

// SpeedupOver returns per-component speedups of this run relative to a
// baseline run of the same combo, plus the Eq. 3 geometric-mean total:
// STotal = (S_CPU · S_GPU · S_Accel)^(1/3). A component that is missing
// or was clipped at the deadline in either run has no defined speedup:
// its entry and the total are NaN, matching stats.Geomean's
// poison-loudly contract — averaging only the survivors would inflate
// the total exactly when a scheme fails to complete.
func (r RunResult) SpeedupOver(base RunResult) (perComp map[string]float64, total float64) {
	perComp = make(map[string]float64, len(speedupComponents))
	vals := make([]float64, 0, len(speedupComponents))
	for _, name := range speedupComponents {
		b, okB := base.Completion[name]
		s, okS := r.Completion[name]
		if !okB || !okS || s <= 0 || !base.finished(name) || !r.finished(name) {
			perComp[name] = math.NaN()
			vals = append(vals, math.NaN())
			continue
		}
		sp := float64(b) / float64(s)
		perComp[name] = sp
		vals = append(vals, sp)
	}
	return perComp, stats.Geomean(vals...)
}

// Evaluator defaults shared by every construction site (NewEvaluator,
// and cluster.DefaultParams for served jobs and fleet workers): runs are
// bounded at DefaultMaxDurFactor × TargetDur, and the fixed-voltage
// baseline rail sits at DefaultFixedV.
const (
	DefaultMaxDurFactor = 3.0
	DefaultFixedV       = 0.95
)

// RemoteRunner executes one uncached spec somewhere else — a
// coordinator/worker fleet — under the evaluator parameters that would
// otherwise drive the local simulation. Implementations must be
// deterministic: the same (seed, targetDur, maxDurFactor, fixedV,
// trackEnergy, spec) returns the same RunResult a local simulation
// would, Energy included (non-nil exactly when trackEnergy is set).
type RemoteRunner interface {
	RunRemote(ctx context.Context, seed int64, targetDur sim.Time, maxDurFactor, fixedV float64, trackEnergy bool, spec RunSpec) (RunResult, error)
}

// Evaluator runs and caches simulations for one system configuration.
// It is safe for concurrent use: the result and trace-set caches are
// single-flight, so overlapping requests for the same key simulate (or
// generate) once and share the result.
type Evaluator struct {
	Cfg config.SystemConfig
	// TargetDur sizes the work pools (fixed-voltage run length).
	TargetDur sim.Time
	// MaxDurFactor bounds runs at MaxDurFactor × TargetDur.
	MaxDurFactor float64
	// FixedV is the fixed-voltage baseline's global voltage.
	FixedV float64
	// Observer, when non-nil, receives per-step telemetry from every
	// system BuildSized assembles (hcapp-serve live metrics and trace
	// streaming), strided steps included (sched.StepObserver). Cached
	// results replay no steps, so a caller that needs the full stream
	// should use a fresh evaluator per run, as the job server does.
	Observer sched.StepObserver
	// Remote, when non-nil, executes uncached runs on a remote fleet
	// instead of simulating locally. The local result cache and
	// single-flight still apply, so a suite driver deduplicates before
	// anything crosses the network.
	Remote RemoteRunner
	// TrackEnergy attaches an energy ledger to every system BuildSized
	// assembles and copies its summary into RunResult.Energy. Folded
	// into the cache key, so toggling it never serves a result missing
	// (or needlessly carrying) energy accounting. A Remote run asks the
	// fleet for the summary exactly when this is set. The ledger is
	// passive, so the simulated metrics are identical either way.
	TrackEnergy bool

	// runner, when non-nil, fans RunSpecs batches across a worker pool.
	runner *Runner

	mu          sync.Mutex
	cache       map[string]RunResult
	runInflight map[string]*runFlight

	// traces holds every chiplet trace set the evaluator's builds and
	// sizings have used, for the evaluator's lifetime: a (benchmark,
	// seed) yields the same traces under every scheme, limit and
	// priority, so each set is generated once, not once per build.
	// Sizing reads them and costs a few microseconds, so it is not
	// cached itself.
	traces traceSets

	// runProbe, when non-nil, is called with the cache key once per
	// actual (uncached, non-deduplicated) simulation — the test hook the
	// single-flight contract is asserted through.
	runProbe func(key string)
}

// runFlight is one in-progress uncached run; waiters block on done.
type runFlight struct {
	done chan struct{}
	res  RunResult
	err  error
}

// NewEvaluator returns an evaluator over the default target system.
func NewEvaluator() *Evaluator {
	return &Evaluator{
		Cfg:          config.Default(),
		TargetDur:    DefaultTargetDuration,
		MaxDurFactor: DefaultMaxDurFactor,
		FixedV:       DefaultFixedV,
		cache:        make(map[string]RunResult),
		runInflight:  make(map[string]*runFlight),
	}
}

// WithTargetDur shrinks or grows all runs (tests use short runs). The
// horizon is part of every cache key, so reconfiguring mid-sequence
// never serves results sized for the old horizon.
func (ev *Evaluator) WithTargetDur(d sim.Time) *Evaluator {
	ev.TargetDur = d
	return ev
}

// WithRunner attaches a worker pool that RunSpecs (and the suite
// drivers built on it) fan batches across. A nil runner means
// sequential execution.
func (ev *Evaluator) WithRunner(r *Runner) *Evaluator {
	ev.runner = r
	return ev
}

// ensureMapsLocked lazily initializes the cache maps for evaluators
// built as zero values. Callers hold ev.mu.
func (ev *Evaluator) ensureMapsLocked() {
	if ev.cache == nil {
		ev.cache = make(map[string]RunResult)
	}
	if ev.runInflight == nil {
		ev.runInflight = make(map[string]*runFlight)
	}
}

// runKey is the full result-cache key: the spec plus every evaluator
// parameter that changes what a run computes. Folding seed, horizon and
// the baseline voltage in (rather than invalidating on mutation) makes
// With*-style reconfiguration and concurrent sharing safe by
// construction.
func (ev *Evaluator) runKey(spec RunSpec) string {
	key := fmt.Sprintf("seed=%d|dur=%d|maxf=%g|fv=%g|%s",
		ev.Cfg.Seed, ev.TargetDur, ev.MaxDurFactor, ev.FixedV, spec.key())
	if ev.TrackEnergy {
		key += "|energy=1"
	}
	return key
}

// CacheKey exposes the result-cache key for spec under the evaluator's
// current parameters. The cluster coordinator content-addresses its
// fleet-wide cache with this exact key, so a spec simulated by any
// worker is recognized again no matter which node — or which local
// evaluator — asks next.
func (ev *Evaluator) CacheKey(spec RunSpec) string { return ev.runKey(spec) }

// Run executes (or returns the cached result of) one spec.
func (ev *Evaluator) Run(spec RunSpec) (RunResult, error) {
	return ev.RunContext(context.Background(), spec)
}

// RunContext is Run under a context: a cancelled or expired context
// stops the simulation cooperatively (within a few thousand engine
// steps) and returns ctx.Err(). Cancelled runs are never cached.
//
// Concurrent callers requesting the same key are single-flighted: one
// leader simulates, the rest wait and share the result. A waiter whose
// leader was cancelled retries (its own context may still be live);
// deterministic errors — a bad spec or config — are shared.
func (ev *Evaluator) RunContext(ctx context.Context, spec RunSpec) (RunResult, error) {
	key := ev.runKey(spec)
	for {
		ev.mu.Lock()
		ev.ensureMapsLocked()
		if r, ok := ev.cache[key]; ok {
			ev.mu.Unlock()
			return r, nil
		}
		if f, ok := ev.runInflight[key]; ok {
			ev.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return RunResult{}, ctx.Err()
			}
			if f.err == nil {
				return f.res, nil
			}
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				// The leader's batch was cancelled, not ours: retry
				// (and become the leader) unless our context is also
				// dead.
				if err := ctx.Err(); err != nil {
					return RunResult{}, err
				}
				continue
			}
			return RunResult{}, f.err
		}
		if err := ctx.Err(); err != nil {
			ev.mu.Unlock()
			return RunResult{}, err
		}
		f := &runFlight{done: make(chan struct{})}
		ev.runInflight[key] = f
		ev.mu.Unlock()

		res, err := ev.runUncached(ctx, spec, key)
		f.res, f.err = res, err
		ev.mu.Lock()
		if err == nil {
			ev.cache[key] = res
		}
		delete(ev.runInflight, key)
		ev.mu.Unlock()
		close(f.done)
		return res, err
	}
}

// runUncached builds and simulates one spec with no cache involvement.
func (ev *Evaluator) runUncached(ctx context.Context, spec RunSpec, key string) (RunResult, error) {
	if ev.Remote != nil {
		res, err := ev.Remote.RunRemote(ctx, ev.Cfg.Seed, ev.TargetDur, ev.MaxDurFactor, ev.FixedV, ev.TrackEnergy, spec)
		if err != nil {
			return RunResult{}, err
		}
		// The wire result carries metrics only; reattach the spec the
		// caller asked for so renderers see a local-shaped RunResult.
		res.Spec = spec
		return res, nil
	}
	if ev.runProbe != nil {
		ev.runProbe(key)
	}
	return ev.runVariant(ctx, spec, nil)
}

// runVariant builds spec through BuildSized with mutate applied last
// and runs it to the horizon under ctx (uncached: the mutation is not
// part of any cache key).
func (ev *Evaluator) runVariant(ctx context.Context, spec RunSpec, mutate func(*BuildOptions)) (RunResult, error) {
	_, run, err := ev.BuildSized(spec, mutate)
	if err != nil {
		return RunResult{}, err
	}
	return run(ctx)
}

// BuildSized assembles spec's system the way every evaluator run is
// built: work pools sized against the fixed-voltage baseline, the
// supervisor spec.Policy names, PSPEC for spec.Limit unless the scheme
// is fixed-voltage, the evaluator's Observer and TrackEnergy, and then
// mutate (when non-nil) last. run takes the system to the evaluator's
// horizon under ctx and returns its metrics; fixed-length traces drive
// sys.Engine directly instead.
func (ev *Evaluator) BuildSized(spec RunSpec, mutate func(*BuildOptions)) (sys *System, run func(context.Context) (RunResult, error), err error) {
	return ev.buildSized(ev.Cfg, spec, mutate)
}

// buildSized is BuildSized under an explicit system configuration. The
// work pools are still sized under ev.Cfg, so a configuration variant
// does the nominal baseline's work.
func (ev *Evaluator) buildSized(cfg config.SystemConfig, spec RunSpec, mutate func(*BuildOptions)) (*System, func(context.Context) (RunResult, error), error) {
	sizing, err := sizeWork(ev.Cfg, spec.Combo, ev.FixedV, ev.TargetDur, &ev.traces)
	if err != nil {
		return nil, nil, err
	}
	sup, err := buildSupervisor(spec.Policy)
	if err != nil {
		return nil, nil, err
	}
	opts := BuildOptions{
		Scheme:           spec.Scheme,
		Priorities:       spec.Priorities,
		CPUWork:          sizing.CPUWork,
		GPUWork:          sizing.GPUWork,
		AccelWorkGB:      sizing.AccelGB,
		AdversarialAccel: spec.AdversarialAccel,
		Supervisor:       sup,
		Observer:         ev.Observer,
		TrackEnergy:      ev.TrackEnergy,
		traces:           &ev.traces,
	}
	if spec.Scheme.Kind != config.FixedVoltage {
		opts.TargetPower = TargetPowerFor(spec.Limit)
	}
	if mutate != nil {
		mutate(&opts)
	}
	sys, err := Build(cfg, spec.Combo, opts)
	if err != nil {
		return nil, nil, err
	}
	return sys, func(ctx context.Context) (RunResult, error) { return ev.runToHorizon(ctx, sys, spec) }, nil
}

// runToHorizon runs sys until every component finishes or the horizon,
// TargetDur × MaxDurFactor, elapses. A cancelled ctx stops the engine
// at its next poll (an already-cancelled one before the first step) and
// returns ctx.Err() instead of a result.
func (ev *Evaluator) runToHorizon(ctx context.Context, sys *System, spec RunSpec) (RunResult, error) {
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	var cancelled func() bool
	if ctx.Done() != nil {
		cancelled = func() bool { return ctx.Err() != nil }
	}
	res := sys.Engine.RunWithCancel(sim.Time(float64(ev.TargetDur)*ev.MaxDurFactor), cancelled)
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	out := newRunResult(spec, sys.Engine.Recorder(), res)
	if sys.Energy != nil {
		out.Energy = sys.Energy.Summary()
	}
	return out, nil
}

// hcappSpec is the HCAPP run of combo under limit.
func hcappSpec(combo Combo, limit config.PowerLimit) RunSpec {
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		panic(err) // HCAPP is one of config.StandardSchemes
	}
	return RunSpec{Combo: combo, Scheme: hcapp, Limit: limit}
}

// RunSpecs executes a batch of specs — across the evaluator's runner
// when one is attached, sequentially otherwise — and returns results in
// spec order. One failing run cancels the rest of the batch.
func (ev *Evaluator) RunSpecs(ctx context.Context, specs []RunSpec) ([]RunResult, error) {
	return ev.runner.RunSpecs(ctx, ev, specs)
}

// RunSuite runs every Table 3 combo under one scheme and limit.
func (ev *Evaluator) RunSuite(scheme config.Scheme, limit config.PowerLimit) (map[string]RunResult, error) {
	suite := Suite()
	specs := make([]RunSpec, len(suite))
	for i, combo := range suite {
		specs[i] = RunSpec{Combo: combo, Scheme: scheme, Limit: limit}
	}
	results, err := ev.RunSpecs(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]RunResult, len(suite))
	for i, combo := range suite {
		out[combo.Name] = results[i]
	}
	return out, nil
}

// FixedScheme returns the fixed-voltage baseline scheme at the
// evaluator's voltage.
func (ev *Evaluator) FixedScheme() config.Scheme {
	return config.Scheme{Kind: config.FixedVoltage, FixedV: ev.FixedV}
}
