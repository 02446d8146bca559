package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"

	"hcapp/internal/sim"
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
// concurrent batches (a fleet worker runs many slices over one runner);
// tasks must not submit nested batches to the same runner, which could
// exhaust the pool and deadlock.
type Runner struct {
	workers int
	sem     chan struct{}
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
// unstarted tasks never run. Tasks start in index order, each once it
// holds one of the pool's slots, so a pool of width w runs at most w
// tasks at a time across every batch it is given: a width-1 pool runs
// one. A nil runner runs the tasks sequentially on the caller.
func (r *Runner) Tasks(ctx context.Context, n int, task func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if r == nil {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			tctx, finish := traceTask(ctx, i)
			err := task(tctx, i)
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
	for i := 0; i < n && ctx.Err() == nil; i++ {
		select {
		case r.sem <- struct{}{}:
		case <-ctx.Done():
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-r.sem }()
			if ctx.Err() != nil {
				return
			}
			tctx, finish := traceTask(ctx, i)
			err := task(tctx, i)
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

// PanicError is a recovered engine-run panic (RunContained), typed so a
// caller can tell it from an ordinary run error.
type PanicError struct{ Val any }

func (p PanicError) Error() string { return fmt.Sprintf("panic: %v", p.Val) }

// RunContained runs one engine run so that a panic fails only that run,
// not the goroutine of the pool executing it: a standalone job server
// and a fleet worker both run theirs here. open starts the run's engine
// span (nil when untraced, or when the engine runs on another node) and
// run executes the run, returning its result and step. A panic in
// either is recovered, its stack logged once through logf after who,
// and returned as a PanicError. Whatever the outcome, the engine span is
// then ended through EndEngineSpan, stamped with worker and, when run
// succeeded with a result, with its counters.
func RunContained(logf func(format string, args ...any), who, worker string, open func() *tracing.ActiveSpan, run func() (*RunResult, sim.Time, error)) (tracing.Span, error) {
	var eng *tracing.ActiveSpan
	var res *RunResult
	var dt sim.Time
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				logf("%s panicked: %v\n%s", who, r, debug.Stack())
				err = PanicError{Val: r}
			}
		}()
		eng = open()
		res, dt, err = run()
		return err
	}()
	if err != nil {
		res = nil
	}
	return EndEngineSpan(eng, worker, dt, res, err), err
}
