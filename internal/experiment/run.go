package experiment

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

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
// via CacheKey, so reconfiguring an evaluator mid-sequence can never serve
// a result computed under the old parameters.
func (s RunSpec) key() string { return string(s.appendKey(nil)) }

// appendKey appends key's bytes to b: the combo's definition, scheme
// kind and limit name, then whatever else sets the spec apart (the
// fixed rail voltage, sorted priorities, the adversarial flag, the
// policy). Both ends of the fleet build it for every item of every
// batch, so it formats with strconv instead of fmt.
func (s RunSpec) appendKey(b []byte) []byte {
	b = append(b, s.Combo.key()...)
	b = append(b, '|')
	b = append(b, s.Scheme.Kind...)
	b = append(b, '|')
	b = append(b, s.Limit.Name...)
	if s.Scheme.Kind == config.FixedVoltage {
		b = append(b, "|fixed="...)
		b = strconv.AppendFloat(b, s.Scheme.FixedV, 'g', -1, 64)
	}
	if len(s.Priorities) > 0 {
		names := make([]string, 0, len(s.Priorities))
		for n := range s.Priorities {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			b = append(b, '|')
			b = append(b, n...)
			b = append(b, '=')
			b = strconv.AppendFloat(b, s.Priorities[n], 'f', 3, 64)
		}
	}
	if s.AdversarialAccel {
		b = append(b, "|adversarial"...)
	}
	if s.Policy != "" {
		b = append(b, "|policy="...)
		b = append(b, s.Policy...)
	}
	return b
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

// RemoteRunner executes a batch of uncached specs somewhere else — a
// coordinator/worker fleet — under the evaluator parameters that would
// otherwise drive the local simulation, as one request. Implementations
// must be deterministic: the same (seed, targetDur, maxDurFactor,
// fixedV, trackEnergy, spec) returns the same RunResult a local
// simulation would, Spec and Energy included (Energy non-nil exactly
// when trackEnergy is set). Results are index-aligned with specs; when
// any spec fails, the error is that of the lowest-index failure.
type RemoteRunner interface {
	RunRemote(ctx context.Context, seed int64, targetDur sim.Time, maxDurFactor, fixedV float64, trackEnergy bool, specs []RunSpec) ([]RunResult, error)
}

// Evaluator runs and caches simulations for one system configuration.
// It is safe for concurrent use: the result and trace-set caches are
// single-flight, so overlapping requests for the same key simulate (or
// generate) once and share the result. Simulate bypasses the result
// cache.
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
	// runs through Simulate, as the job server does.
	Observer sched.StepObserver
	// Remote, when non-nil, executes uncached runs on a remote fleet
	// instead of simulating locally: RunSpecs sends every spec of a
	// batch that is neither cached nor in flight as one request. The
	// local result cache and single-flight still apply, so a suite
	// driver deduplicates before anything crosses the network.
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

	// results holds the evaluator's run results by CacheKey.
	results ResultCache[RunResult]

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

// NewEvaluator returns an evaluator over the default target system.
func NewEvaluator() *Evaluator {
	return &Evaluator{
		Cfg:          config.Default(),
		TargetDur:    DefaultTargetDuration,
		MaxDurFactor: DefaultMaxDurFactor,
		FixedV:       DefaultFixedV,
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

// RunKey is the full result-cache key: the spec plus every evaluator
// parameter that changes what a run computes. Folding seed, horizon and
// the baseline voltage in (rather than invalidating on mutation) makes
// With*-style reconfiguration and concurrent sharing safe by
// construction. The evaluator's cache and the cluster's fleet cache
// both key by it, so the two cannot drift apart.
func RunKey(seed int64, targetDur sim.Time, maxDurFactor, fixedV float64, trackEnergy bool, spec RunSpec) string {
	b := make([]byte, 0, 128)
	b = append(b, "seed="...)
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, "|dur="...)
	b = strconv.AppendInt(b, targetDur, 10)
	b = append(b, "|maxf="...)
	b = strconv.AppendFloat(b, maxDurFactor, 'g', -1, 64)
	b = append(b, "|fv="...)
	b = strconv.AppendFloat(b, fixedV, 'g', -1, 64)
	b = append(b, '|')
	b = spec.appendKey(b)
	if trackEnergy {
		b = append(b, "|energy=1"...)
	}
	return string(b)
}

// CacheKey exposes the result-cache key for spec under the evaluator's
// current parameters (RunKey). The cluster coordinator content-addresses
// its fleet-wide cache with the same key, so a spec simulated by any
// worker is recognized again no matter which node — or which local
// evaluator — asks next.
func (ev *Evaluator) CacheKey(spec RunSpec) string {
	return RunKey(ev.Cfg.Seed, ev.TargetDur, ev.MaxDurFactor, ev.FixedV, ev.TrackEnergy, spec)
}

// Run executes (or returns the cached result of) one spec.
func (ev *Evaluator) Run(spec RunSpec) (RunResult, error) {
	return ev.RunContext(context.Background(), spec)
}

// RunContext is Run under a context: a cancelled or expired context
// stops the simulation cooperatively (within a few thousand engine
// steps) and returns ctx.Err(). Cancelled runs are never cached. It is
// a batch of one (runBatch).
func (ev *Evaluator) RunContext(ctx context.Context, spec RunSpec) (RunResult, error) {
	return one(ev.runBatch(ctx, []RunSpec{spec}))
}

// one unwraps the result of a batch of one.
func one(res []RunResult, err error) (RunResult, error) {
	if err != nil {
		return RunResult{}, err
	}
	return res[0], nil
}

// runBatch returns specs' results, index-aligned, through the result
// cache: the specs it leads are simulated together (runUncached) and
// enter the cache in index order. Their failure is returned as is (a
// Remote reports its lowest-index one) and, when they were several,
// marks their flights for retry: the error may be another spec's. A
// failed batch of one (a bad spec or config) is shared with waiters.
func (ev *Evaluator) runBatch(ctx context.Context, specs []RunSpec) ([]RunResult, error) {
	keys := make([]string, len(specs))
	for i, spec := range specs {
		keys[i] = ev.CacheKey(spec)
	}
	out, _, err := ev.results.Resolve(ctx, keys, nil, func(idx []int, settle Settle[RunResult]) error {
		lead := make([]RunSpec, len(idx))
		for k, i := range idx {
			lead[k] = specs[i]
		}
		res, err := ev.runUncached(ctx, lead)
		for k, i := range idx {
			if err != nil {
				settle(i, RunResult{}, err, len(idx) > 1)
			} else {
				settle(i, res[k], nil, false)
			}
		}
		return err
	})
	return out, err
}

// Simulate runs spec with no result cache: on the Remote fleet when one
// is set, else locally. A fleet worker and a served job run here, so no
// result outlives their item or job.
func (ev *Evaluator) Simulate(ctx context.Context, spec RunSpec) (RunResult, error) {
	return one(ev.runUncached(ctx, []RunSpec{spec}))
}

// runUncached simulates specs with no cache involvement: on the Remote
// fleet as one batch when one is set, else locally. A local batch is
// always a single spec: only RunContext and Simulate reach here without
// a Remote, and RunSpecs fans local work over the runner one RunContext
// a spec.
func (ev *Evaluator) runUncached(ctx context.Context, specs []RunSpec) ([]RunResult, error) {
	if ev.Remote != nil {
		res, err := ev.Remote.RunRemote(ctx, ev.Cfg.Seed, ev.TargetDur, ev.MaxDurFactor, ev.FixedV, ev.TrackEnergy, specs)
		if err == nil && len(res) != len(specs) {
			err = fmt.Errorf("experiment: remote run returned %d results for %d specs", len(res), len(specs))
		}
		return res, err
	}
	if ev.runProbe != nil {
		ev.runProbe(ev.CacheKey(specs[0]))
	}
	res, err := ev.runVariant(ctx, specs[0], nil)
	if err != nil {
		return nil, err
	}
	return []RunResult{res}, nil
}

// runVariant builds spec through BuildSized with mutate applied last
// and runs it to the horizon under ctx (uncached: the mutation is not
// part of any cache key). Only the RunResult outlives the system, so
// its recorder keeps the limit window's sums instead of a sample per
// step, which was most of what a run allocated.
func (ev *Evaluator) runVariant(ctx context.Context, spec RunSpec, mutate func(*BuildOptions)) (RunResult, error) {
	_, run, err := ev.BuildSized(spec, func(o *BuildOptions) {
		o.powerWindow = spec.Limit.Window
		if mutate != nil {
			mutate(o)
		}
	})
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

// RunSpecs executes a batch of specs and returns results in spec
// order: with Remote set, as one fleet request (runBatch); otherwise
// across the evaluator's runner when one is attached, sequentially when
// not, one RunContext a spec. One failing run cancels the rest of the
// batch.
func (ev *Evaluator) RunSpecs(ctx context.Context, specs []RunSpec) ([]RunResult, error) {
	if ev.Remote != nil {
		return ev.runBatch(ctx, specs)
	}
	out := make([]RunResult, len(specs))
	err := ev.runner.Tasks(ctx, len(specs), func(ctx context.Context, i int) (err error) {
		out[i], err = ev.RunContext(ctx, specs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
