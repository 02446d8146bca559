package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hcapp/internal/sim"
	"hcapp/internal/telemetry"
	"hcapp/internal/tracing"
)

// Runner fans experiment work across a bounded worker pool. The suite
// drivers (figures, seed sweep, fault sweep, scaling) submit indexed
// task batches; tasks write results by index, so assembly order — and
// therefore every rendered table — is byte-identical to a sequential
// run regardless of worker count or scheduling.
//
// A nil *Runner is valid everywhere and means sequential execution, so
// drivers take a runner without branching. The pool is shared across
// concurrent batches (the job server runs many jobs over one runner);
// tasks must not submit nested batches to the same runner, which could
// exhaust the pool and deadlock.
type Runner struct {
	workers int
	sem     chan struct{}
	metrics *RunnerMetrics
}

// NewRunner builds a pool of the given width; workers < 1 selects
// runtime.NumCPU().
func NewRunner(workers int) *Runner {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers < 1 {
		workers = 1
	}
	return &Runner{workers: workers, sem: make(chan struct{}, workers)}
}

// WithMetrics attaches per-run telemetry (duration histogram, in-flight
// and queue-depth gauges) published on every task execution.
func (r *Runner) WithMetrics(m *RunnerMetrics) *Runner {
	r.metrics = m
	return r
}

// Workers reports the pool width (1 for a nil runner).
func (r *Runner) Workers() int {
	if r == nil {
		return 1
	}
	return r.workers
}

// Tasks runs n indexed tasks over the pool and waits for them all. The
// first task error (lowest index among deterministic failures) cancels
// the batch context, so in-flight simulations stop cooperatively and
// unstarted tasks never run. A nil runner or a single-worker pool runs
// the tasks sequentially in index order.
func (r *Runner) Tasks(ctx context.Context, n int, task func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if r == nil || r.workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			tctx, finish := traceTask(ctx, i)
			err := r.observe(func() error { return task(tctx, i) })
			finish(err)
			if err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	record := func(i int, err error) {
		// Cancellation errors are a consequence of some other task's
		// failure (or the caller's context), not a finding of their own.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return
		}
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		cancel()
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.addWaiting(1)
			select {
			case r.sem <- struct{}{}:
				r.addWaiting(-1)
				defer func() { <-r.sem }()
			case <-ctx.Done():
				r.addWaiting(-1)
				return
			}
			if ctx.Err() != nil {
				return
			}
			tctx, finish := traceTask(ctx, i)
			err := r.observe(func() error { return task(tctx, i) })
			finish(err)
			if err != nil {
				record(i, err)
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// RunSpecs executes specs over the pool against one evaluator and
// returns results in spec order. Overlapping specs across concurrent
// batches dedupe through the evaluator's single-flight cache.
func (r *Runner) RunSpecs(ctx context.Context, ev *Evaluator, specs []RunSpec) ([]RunResult, error) {
	out := make([]RunResult, len(specs))
	err := r.Tasks(ctx, len(specs), func(ctx context.Context, i int) error {
		res, err := ev.RunContext(ctx, specs[i])
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// traceTask opens the item[i] span for one pool task when — and only
// when — the batch context carries trace context; untraced batches (the
// common CLI path) pay two nil checks. The task runs under the item
// span's context, so anything it submits downstream parents correctly.
func traceTask(ctx context.Context, i int) (context.Context, func(error)) {
	tr, parent, ok := tracing.FromContext(ctx)
	if !ok {
		return ctx, func(error) {}
	}
	sp := tr.StartSpan(parent, fmt.Sprintf("item[%d]", i))
	return tracing.ContextWith(ctx, tr, sp.Context()), func(err error) {
		sp.SetAttr("outcome", tracing.Outcome(err)).End()
	}
}

// EndEngineSpan stamps an engine span with the node that ran it, the
// counters of the run res reports — steps (a run executes whole dt
// steps from zero, so Duration/dt), simulated horizon and global
// control cycles — and its outcome, then ends it. Standalone jobs and
// fleet workers both end their engine spans here, so the span carries
// the same attributes in either role; a failed run (nil res) carries
// no counters. A nil span is a no-op.
func EndEngineSpan(span *tracing.ActiveSpan, worker string, dt sim.Time, res *RunResult, err error) tracing.Span {
	span.SetAttr("worker", worker)
	if res != nil {
		span.SetAttr("steps", strconv.FormatInt(res.Duration/dt, 10)).
			SetAttr("sim_ns", strconv.FormatInt(res.Duration, 10)).
			SetAttr("control_cycles", strconv.FormatInt(res.ControlCycles, 10))
	}
	return span.SetAttr("outcome", tracing.Outcome(err)).End()
}

// observe wraps one task execution with the runner's telemetry.
func (r *Runner) observe(f func() error) error {
	if r == nil || r.metrics == nil {
		return f()
	}
	r.metrics.inFlight.Inc()
	start := time.Now()
	err := f()
	r.metrics.inFlight.Dec()
	r.metrics.duration.Observe(time.Since(start).Seconds())
	return err
}

func (r *Runner) addWaiting(d float64) {
	if r.metrics != nil {
		r.metrics.waiting.Add(d)
	}
}

// RunnerMetrics is the runner's telemetry family set; see
// docs/METRICS.md for the catalogue entries.
type RunnerMetrics struct {
	duration *telemetry.Histogram
	inFlight *telemetry.Gauge
	waiting  *telemetry.Gauge
}

// NewRunnerMetrics registers the runner families on a registry.
func NewRunnerMetrics(reg *telemetry.Registry) *RunnerMetrics {
	return &RunnerMetrics{
		duration: reg.Histogram("hcapp_run_duration_seconds",
			"Wall-clock duration of one experiment task on the runner pool (cache hits land in the lowest buckets).",
			telemetry.ExpBuckets(0.005, 2, 14)).With(),
		inFlight: reg.Gauge("hcapp_runs_in_flight",
			"Experiment tasks currently executing on the runner pool.").With(),
		waiting: reg.Gauge("hcapp_runs_waiting",
			"Experiment tasks queued for a runner worker.").With(),
	}
}
