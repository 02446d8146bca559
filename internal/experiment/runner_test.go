package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
)

// probeCounter counts runUncached entries per cache key — the ground
// truth for single-flight dedup: every RunContext call that is neither
// a cache hit nor a shared flight increments its key.
type probeCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func newProbeCounter(ev *Evaluator) *probeCounter {
	p := &probeCounter{counts: map[string]int{}}
	ev.runProbe = func(key string) {
		p.mu.Lock()
		p.counts[key]++
		p.mu.Unlock()
	}
	return p
}

func (p *probeCounter) snapshot() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.counts))
	for k, v := range p.counts {
		out[k] = v
	}
	return out
}

func (p *probeCounter) total() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, v := range p.counts {
		n += v
	}
	return n
}

// hammerSpecs returns a small overlapping spec set: two combos × two
// schemes, so concurrent callers collide on every key.
func hammerSpecs(t *testing.T) []RunSpec {
	t.Helper()
	limit := config.PackagePinLimit()
	var specs []RunSpec
	for _, name := range []string{"Low-Low", "Mid-Mid"} {
		combo := mustCombo2(t, name)
		specs = append(specs,
			RunSpec{Combo: combo, Scheme: mustScheme2(t, config.HCAPP), Limit: limit},
			RunSpec{Combo: combo, Scheme: config.Scheme{Kind: config.FixedVoltage, FixedV: 0.95}, Limit: limit},
		)
	}
	return specs
}

// TestRunnerSingleFlightDedup hammers one shared evaluator from many
// goroutines with overlapping specs. Under -race this doubles as the
// data-race check on the cache, the in-flight table and the sizing
// cache; in any mode it proves single-flight: each unique key simulates
// exactly once, and every caller sees the leader's result.
func TestRunnerSingleFlightDedup(t *testing.T) {
	ev := NewEvaluator().WithTargetDur(sim.Millisecond / 2).WithRunner(NewRunner(4))
	probe := newProbeCounter(ev)
	specs := hammerSpecs(t)

	const goroutines = 16
	results := make([][]RunResult, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the goroutines submit whole batches through the shared
			// runner, half call RunContext directly in rotated order, so
			// flights are joined from both entry points at once.
			if g%2 == 0 {
				results[g], errs[g] = ev.RunSpecs(context.Background(), specs)
				return
			}
			out := make([]RunResult, len(specs))
			for i := range specs {
				j := (i + g) % len(specs)
				r, err := ev.RunContext(context.Background(), specs[j])
				if err != nil {
					errs[g] = err
					return
				}
				out[j] = r
			}
			results[g] = out
		}(g)
	}
	wg.Wait()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	counts := probe.snapshot()
	if len(counts) != len(specs) {
		t.Fatalf("simulated %d unique keys, want %d: %v", len(counts), len(specs), counts)
	}
	for key, n := range counts {
		if n != 1 {
			t.Errorf("key %q simulated %d times, want exactly 1 (single-flight broken)", key, n)
		}
	}
	for g := 1; g < goroutines; g++ {
		for i := range specs {
			if results[g][i].MaxWindowPower != results[0][i].MaxWindowPower ||
				results[g][i].Duration != results[0][i].Duration {
				t.Fatalf("goroutine %d spec %d diverged from goroutine 0", g, i)
			}
		}
	}
}

// TestRunnerParallelMatchesSequential is the determinism contract:
// a figure rendered through a 4-worker runner must be byte-identical
// to the same figure rendered sequentially (scripts/ci.sh enforces the
// same property end to end on the hcappsim binary).
func TestRunnerParallelMatchesSequential(t *testing.T) {
	seq := NewEvaluator().WithTargetDur(sim.Millisecond / 2)
	par := NewEvaluator().WithTargetDur(sim.Millisecond / 2).WithRunner(NewRunner(4))

	mSeq, err := seq.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	mPar, err := par.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if mSeq.Render() != mPar.Render() {
		t.Fatalf("parallel Fig5 diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			mSeq.Render(), mPar.Render())
	}
}

// TestRunnerCancelsBatchOnError: one failing shard must abort the
// batch — the other shards, parked on the batch context, are released
// by the cancellation (Tasks would hang forever otherwise) and the
// batch reports the shard's error, not the cancellations it caused.
func TestRunnerCancelsBatchOnError(t *testing.T) {
	r := NewRunner(4)
	errBoom := errors.New("boom")
	arrived := make(chan struct{}, 3)
	err := r.Tasks(context.Background(), 4, func(ctx context.Context, i int) error {
		if i < 3 {
			arrived <- struct{}{}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(30 * time.Second):
				return fmt.Errorf("task %d never saw cancellation", i)
			}
		}
		// The failing shard waits until every other shard is in flight,
		// so the cancellation demonstrably unblocks running work.
		for n := 0; n < 3; n++ {
			<-arrived
		}
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Tasks returned %v, want %v", err, errBoom)
	}
}

// TestRunnerPreCancelledContext: a batch submitted on a dead context
// runs nothing and reports the cancellation.
func TestRunnerPreCancelledContext(t *testing.T) {
	for _, r := range []*Runner{nil, NewRunner(4)} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := false
		err := r.Tasks(ctx, 8, func(ctx context.Context, i int) error {
			ran = true
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Tasks returned %v, want context.Canceled", r.Workers(), err)
		}
		if ran {
			t.Errorf("workers=%d: task ran on a pre-cancelled context", r.Workers())
		}
	}
}

// TestRunnerFirstErrorIsLowestIndex: when several shards fail, the
// batch error is deterministic — the failing task with the lowest
// index wins, regardless of completion order.
func TestRunnerFirstErrorIsLowestIndex(t *testing.T) {
	r := NewRunner(4)
	var barrier sync.WaitGroup
	barrier.Add(4)
	err := r.Tasks(context.Background(), 4, func(ctx context.Context, i int) error {
		// All four tasks fail simultaneously once everyone has started.
		barrier.Done()
		barrier.Wait()
		return fmt.Errorf("task %d failed", i)
	})
	if err == nil || err.Error() != "task 0 failed" {
		t.Fatalf("batch error = %v, want the lowest-index failure", err)
	}
}

// TestRunnerSequentialFallback: a nil runner and a 1-worker runner both
// execute in submission order on the calling goroutine's schedule.
func TestRunnerSequentialFallback(t *testing.T) {
	for _, r := range []*Runner{nil, NewRunner(1)} {
		var order []int
		if err := r.Tasks(context.Background(), 4, func(ctx context.Context, i int) error {
			order = append(order, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("sequential order %v, want ascending", order)
			}
		}
		if r.Workers() != 1 {
			t.Fatalf("Workers() = %d, want 1", r.Workers())
		}
	}
}

// TestRunnerWidthOneAcrossBatches: a width-1 pool runs one task at a
// time even across concurrent batches, as a "-workers 1" fleet worker
// running several slices at once must. Each task holds its slot until a
// task of the other batch is running too, or for 50 ms.
func TestRunnerWidthOneAcrossBatches(t *testing.T) {
	r := NewRunner(1)
	var running, peak atomic.Int32
	task := func(ctx context.Context, i int) error {
		n := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		for deadline := time.Now().Add(50 * time.Millisecond); running.Load() < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for b := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[b] = r.Tasks(context.Background(), 2, task)
		}()
	}
	wg.Wait()
	for b, err := range errs {
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("%d tasks ran at once on a width-1 pool, want 1", p)
	}
}

// TestEvaluatorReconfigureMidSequence is the regression test for the
// stale-cache bug: WithTargetDur and Cfg.Seed changes must yield fresh
// simulations for a spec already in the cache, while unchanged
// parameters keep hitting it.
func TestEvaluatorReconfigureMidSequence(t *testing.T) {
	ev := NewEvaluator().WithTargetDur(sim.Millisecond / 2)
	probe := newProbeCounter(ev)
	spec := RunSpec{
		Combo:  mustCombo2(t, "Low-Low"),
		Scheme: config.Scheme{Kind: config.FixedVoltage, FixedV: 0.95},
		Limit:  config.PackagePinLimit(),
	}

	short, err := ev.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Run(spec); err != nil {
		t.Fatal(err)
	}
	if n := probe.total(); n != 1 {
		t.Fatalf("unchanged config simulated %d times, want 1 (cache miss)", n)
	}

	ev.WithTargetDur(sim.Millisecond)
	long, err := ev.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := probe.total(); n != 2 {
		t.Fatalf("after WithTargetDur: %d simulations, want 2 (stale cache served)", n)
	}
	ratio := float64(long.Duration) / float64(short.Duration)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("doubling the horizon scaled duration by %.2f×, want ≈2× — stale result?", ratio)
	}

	ev.Cfg.Seed = 7
	if _, err := ev.Run(spec); err != nil {
		t.Fatal(err)
	}
	if n := probe.total(); n != 3 {
		t.Fatalf("after seed change: %d simulations, want 3 (stale cache served)", n)
	}

	// Returning to already-seen parameters is a hit again: the old
	// entries were keyed, not invalidated.
	ev.Cfg.Seed = 42
	ev.WithTargetDur(sim.Millisecond / 2)
	if _, err := ev.Run(spec); err != nil {
		t.Fatal(err)
	}
	if n := probe.total(); n != 3 {
		t.Fatalf("revisiting cached parameters simulated again (%d total), want 3", n)
	}
}

// TestRunnerParallelSpeedup demonstrates the point of the scheduler: a
// batch of independent runs on 4 workers must finish at least 2× faster
// than the same batch sequentially. Skipped where the hardware cannot
// show it (fewer than 4 CPUs) or the clock is distorted (-race, -short).
func TestRunnerParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing being compared")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for the 2x contract, have %d", runtime.NumCPU())
	}

	// 8 unique runs (suite × one scheme) at a 1 ms horizon: enough work
	// to amortize pool overhead, small enough to keep the test quick.
	limit := config.PackagePinLimit()
	var specs []RunSpec
	for _, combo := range Suite() {
		specs = append(specs, RunSpec{Combo: combo, Scheme: mustScheme2(t, config.HCAPP), Limit: limit})
	}

	run := func(workers int) time.Duration {
		ev := NewEvaluator().WithTargetDur(sim.Millisecond)
		if workers > 1 {
			ev = ev.WithRunner(NewRunner(workers))
		}
		start := time.Now()
		if _, err := ev.RunSpecs(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	seq := run(1)
	par := run(4)
	t.Logf("sequential %v, 4 workers %v, speedup %.2fx", seq, par, seq.Seconds()/par.Seconds())
	if par.Seconds() > seq.Seconds()/2 {
		t.Errorf("4-worker batch took %v vs %v sequential — less than the 2x contract", par, seq)
	}
}

// cancellingCounter is a step observer that counts engine steps and
// the longest stride, and, when cancel is set, calls it on the first
// step it sees.
type cancellingCounter struct {
	steps, maxStride atomic.Int64
	cancel           context.CancelFunc
}

func (c *cancellingCounter) ObserveSteps(_, _ sim.Time, n int64, _ float64, _ []sched.DomainSample) {
	if c.steps.Add(n) == n && c.cancel != nil {
		c.cancel()
	}
	for m := c.maxStride.Load(); n > m && !c.maxStride.CompareAndSwap(m, n); m = c.maxStride.Load() {
	}
}

// TestBespokeDriversHonourCancel: every driver path that builds its own
// system instead of going through RunContext stops on a cancelled
// context. It returns context.Canceled, and the engine stops within
// one cancel-poll interval (4096 steps) instead of running the whole
// horizon: a pre-cancelled context steps nothing, and a cancel on the
// first step lets at most one poll interval run (plus the rest of a
// stride that crosses the poll, since the engine counts a stride
// whole). One runner worker keeps the multi-run drivers to one engine
// in flight.
func TestBespokeDriversHonourCancel(t *testing.T) {
	const cancelPollSteps = 4096
	combo := mustCombo2(t, "Mid-Mid")
	limit := config.PackagePinLimit()
	paths := []struct {
		name string
		run  func(ctx context.Context, ev *Evaluator) error
	}{
		{"variant", func(ctx context.Context, ev *Evaluator) error {
			_, err := ev.runVariant(ctx, hcappSpec(combo, limit), func(o *BuildOptions) { o.VoltageMargin = 0.05 })
			return err
		}},
		{"policy", func(ctx context.Context, ev *Evaluator) error {
			_, err := ev.runPolicy(ctx, combo, limit, "critical-path", DefaultWorkSkew)
			return err
		}},
		{"centralized", func(ctx context.Context, ev *Evaluator) error {
			_, err := ev.runCentralized(ctx, combo, limit, CentralizedOptions{})
			return err
		}},
		{"thermal", func(ctx context.Context, ev *Evaluator) error {
			_, _, _, err := ev.thermalCheck(ctx)
			return err
		}},
		{"fault-injection", func(ctx context.Context, ev *Evaluator) error {
			_, err := ev.runFaultInjection(ctx, combo)
			return err
		}},
		{"vreff", func(ctx context.Context, ev *Evaluator) error {
			_, err := ev.ablationVREfficiency(ctx)
			return err
		}},
		{"scaling-cell", func(ctx context.Context, ev *Evaluator) error {
			sc := DefaultScalingConfig()
			sc.Dur = ev.TargetDur
			_, _, err := runScalingCell(ctx, ev.Cfg, sc, 2, sim.Microsecond, 2*sc.LimitPerTriple, ev.Observer)
			return err
		}},
	}
	cancels := []struct {
		name string
		pre  bool // cancel before the run starts
		poll bool // allow one poll interval after the cancel
	}{
		{"pre-cancelled", true, false},
		{"mid-run", false, true},
	}
	for _, p := range paths {
		for _, c := range cancels {
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				ev := shortEvaluator().WithRunner(NewRunner(1))
				if steps := int64(ev.TargetDur / ev.Cfg.TimeStep); steps <= 2*cancelPollSteps {
					t.Fatalf("TargetDur is only %d steps; the test needs a horizon past two poll intervals", steps)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				counter := &cancellingCounter{}
				if c.pre {
					cancel()
				} else {
					counter.cancel = cancel
				}
				ev.Observer = counter
				if err := p.run(ctx, ev); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s run returned %v, want context.Canceled", c.name, err)
				}
				var maxSteps int64
				if c.poll {
					maxSteps = cancelPollSteps + max(counter.maxStride.Load()-1, 0)
				}
				if n := counter.steps.Load(); n > maxSteps {
					t.Errorf("engine ran %d steps, want at most %d", n, maxSteps)
				}
			})
		}
	}
}
