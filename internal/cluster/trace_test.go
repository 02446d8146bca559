package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hcapp/internal/chaos"
	"hcapp/internal/sim"
	"hcapp/internal/telemetry"
	"hcapp/internal/tracing"
)

// startTracedWorker is startWorker with a span store attached, so the
// worker ships engine spans back in its slice responses.
func startTracedWorker(t *testing.T, id string) *Worker {
	t.Helper()
	w := NewWorker(WorkerConfig{
		ID:      id,
		Workers: 2,
		Logf:    t.Logf,
		Tracer:  tracing.New(tracing.Config{}),
	})
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	w.cfg.AdvertiseAddr = ts.URL
	return w
}

// runTracedBatch executes one traced 3-item batch against a fleet of
// the given width and returns the assembled trace.
func runTracedBatch(t *testing.T, width int) []tracing.Span {
	t.Helper()
	tr := tracing.New(tracing.Config{})
	c := NewCoordinator(CoordinatorConfig{HedgeAfter: -1, Logf: t.Logf}).WithTracer(tr)
	for i := 0; i < width; i++ {
		registerWorker(t, c, startTracedWorker(t, fmt.Sprintf("w-%d", i)))
	}

	seed := fmt.Sprintf("batch-w%d", width)
	root := tr.StartRoot("job", seed, seed)
	run := tr.StartSpan(root.Context(), "run")
	ctx := tracing.ContextWith(context.Background(), tr, run.Context())
	resp, err := c.Execute(ctx, RunRequest{
		Priority: PriorityInteractive,
		Params:   testParams(),
		Items:    testItems(t, 3),
	})
	if err != nil {
		t.Fatalf("width %d: %v", width, err)
	}
	for i, r := range resp.Results {
		if r.Result == nil || r.Error != "" {
			t.Fatalf("width %d: item %d empty or failed: %q", width, i, r.Error)
		}
	}
	run.SetAttr("outcome", "ok").End()
	root.End()
	spans, dropped := tr.Trace(tracing.TraceIDFor(seed))
	if dropped != 0 {
		t.Fatalf("width %d dropped %d spans", width, dropped)
	}
	return spans
}

// TestTraceWidthInvariance is the acceptance property CI re-checks over
// real processes: the canonical span-tree structure of a batch is
// byte-identical at every fleet width, because slice assignment and
// worker identity are span attributes, never tree nodes.
func TestTraceWidthInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations over local fleets")
	}
	narrow := tracing.Structure(runTracedBatch(t, 1))
	wide := tracing.Structure(runTracedBatch(t, 3))
	if narrow != wide {
		t.Fatalf("structure diverged across widths:\nwidth 1:\n%s\nwidth 3:\n%s", narrow, wide)
	}
	want := strings.Join([]string{
		"job",
		"  run",
		"    item[0]",
		"      attempt[0]",
		"        engine",
		"    item[1]",
		"      attempt[0]",
		"        engine",
		"    item[2]",
		"      attempt[0]",
		"        engine",
		"",
	}, "\n")
	if narrow != want {
		t.Fatalf("structure:\n%s\nwant:\n%s", narrow, want)
	}
}

// startFakeWorker registers an httptest worker that sleeps delay per
// slice and answers placeholder results — enough to drive the dispatch
// semaphore without simulating anything.
func startFakeWorker(t *testing.T, c *Coordinator, id string, delay time.Duration) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var req RunRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		time.Sleep(delay)
		resp := RunResponse{Results: make([]ItemResult, len(req.Items))}
		for i := range resp.Results {
			resp.Results[i] = ItemResult{Result: &Result{Completed: true}}
		}
		json.NewEncoder(rw).Encode(resp)
	}))
	t.Cleanup(ts.Close)
	if _, err := c.Register(RegisterRequest{ID: id, Addr: ts.URL, Workers: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueWaitClassOrdering: under contention for dispatch slots,
// interactive batches overtake queued batch-class ones, and the
// hcapp_queue_wait_seconds histogram records the difference — the
// interactive median wait must undercut the batch median.
func TestQueueWaitClassOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps through queued dispatches")
	}
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	c := NewCoordinator(CoordinatorConfig{HedgeAfter: -1, Logf: t.Logf}).WithMetrics(m)
	// One worker = one dispatch slot, 40 ms per slice: everything after
	// the first submission queues on the priority semaphore.
	const delay = 40 * time.Millisecond
	startFakeWorker(t, c, "slow", delay)

	execute := func(i int, priority string) error {
		// Distinct seeds make distinct item keys, so no run coalesces
		// with another through the cache or single-flight table.
		_, err := c.Execute(context.Background(), RunRequest{
			Priority: priority,
			Params:   DefaultParams(int64(1000+i), sim.Millisecond/2),
			Items:    testItems(t, 1),
		})
		return err
	}

	var wg sync.WaitGroup
	errs := make(chan error, 6)
	launch := func(i int, priority string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- execute(i, priority)
		}()
	}
	// Occupy the slot, then queue two more batch runs, then three
	// interactive ones: the interactive class must drain first.
	launch(0, PriorityBatch)
	waitForCount(t, func() float64 { return m.queueWait.With(PriorityBatch).Count() }, 1)
	launch(1, PriorityBatch)
	launch(2, PriorityBatch)
	time.Sleep(delay / 4) // let the batch runs reach the semaphore
	launch(3, PriorityInteractive)
	launch(4, PriorityInteractive)
	launch(5, PriorityInteractive)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	iHist := m.queueWait.With(PriorityInteractive)
	bHist := m.queueWait.With(PriorityBatch)
	if iHist.Count() != 3 || bHist.Count() != 3 {
		t.Fatalf("queue-wait counts interactive %g, batch %g, want 3 each", iHist.Count(), bHist.Count())
	}
	ip50, bp50 := iHist.Quantile(0.5), bHist.Quantile(0.5)
	t.Logf("queue-wait p50: interactive %.3fs, batch %.3fs", ip50, bp50)
	if !(ip50 < bp50) {
		t.Fatalf("interactive p50 %.3fs not below batch p50 %.3fs", ip50, bp50)
	}
}

// waitForCount polls a histogram count until it reaches want.
func waitForCount(t *testing.T, count func() float64, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("count stuck at %g, want %g", count(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// slowUnwind is a transport whose requests to one host never answer
// and, once cancelled, take unwind to give up — a hedge loser still
// tearing down its connection after the winner has landed.
type slowUnwind struct {
	host   string
	unwind time.Duration
}

func (s slowUnwind) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Host != s.host {
		return http.DefaultTransport.RoundTrip(r)
	}
	<-r.Context().Done()
	time.Sleep(s.unwind)
	return nil, r.Context().Err()
}

// TestHedgeLoserSpanEndsBeforeExecuteReturns: a hedged slice's losing
// post is cancelled and drained before the batch resolves, so a trace
// read right after Execute returns already holds both sibling attempt
// spans — the winner's "ok" and the loser's "cancelled" — however
// slowly the loser unwinds.
func TestHedgeLoserSpanEndsBeforeExecuteReturns(t *testing.T) {
	// The straggler sorts first, so the single-slice batch routes to it.
	slow := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(slow.Close)
	tr := tracing.New(tracing.Config{})
	c := NewCoordinator(CoordinatorConfig{
		HedgeAfter: 5 * time.Millisecond,
		Client:     &http.Client{Transport: slowUnwind{host: strings.TrimPrefix(slow.URL, "http://"), unwind: 100 * time.Millisecond}},
		Logf:       t.Logf,
	}).WithTracer(tr)
	if _, err := c.Register(RegisterRequest{ID: "a-slow", Addr: slow.URL, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	startFakeWorker(t, c, "b-fast", 0)

	root := tr.StartRoot("job", "job-hedge", "job-hedge")
	run := tr.StartSpan(root.Context(), "run")
	ctx := tracing.ContextWith(context.Background(), tr, run.Context())
	if _, err := c.Execute(ctx, RunRequest{
		Priority: PriorityInteractive,
		Params:   testParams(),
		Items:    testItems(t, 1),
	}); err != nil {
		t.Fatal(err)
	}
	spans, _ := tr.Trace(tracing.TraceIDFor("job-hedge"))
	outcomes := map[string]string{}
	for _, s := range spans {
		if tracing.StageOf(s.Name) == "attempt" {
			outcomes[s.Attrs["kind"]] = s.Attrs["outcome"]
		}
	}
	if want := map[string]string{"primary": "cancelled", "hedge": "ok"}; !reflect.DeepEqual(outcomes, want) {
		t.Fatalf("attempt outcomes by kind %v right after Execute, want %v", outcomes, want)
	}
}

// TestChaosTracePropagation is the trace-integrity half of the chaos
// story: with transport faults injected and an aggressive hedge
// threshold, retried and hedged dispatches must land as sibling
// attempt[n] spans under their item — and the assembled tree must have
// no orphans, because worker engine spans derive their parentage from
// the per-item contexts on the wire, not from which attempt won.
func TestChaosTracePropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations over a local fleet under chaos")
	}
	profile, err := chaos.ProfileByName("light")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(7, profile).ForNode("coordinator")

	tr := tracing.New(tracing.Config{})
	c := NewCoordinator(CoordinatorConfig{
		// Hedge far inside a simulation's wall time so sibling attempts
		// are guaranteed, not just possible: a 0.5 ms item runs about
		// 6 ms of wall time on a two-core host.
		HedgeAfter:      1 * time.Millisecond,
		BreakerCooldown: 50 * time.Millisecond,
		Client:          &http.Client{Transport: inj.RoundTripper(nil)},
		Logf:            t.Logf,
	}).WithTracer(tr)
	workers := []*Worker{
		startTracedWorker(t, "w-1"),
		startTracedWorker(t, "w-2"),
		startTracedWorker(t, "w-3"),
	}
	for _, w := range workers {
		registerWorker(t, c, w)
	}
	// Chaos kills workers faster than it reviews them; a heartbeat loop
	// stands in for the real worker's heartbeat goroutine.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, w := range workers {
					c.Heartbeat(w.cfg.ID)
				}
			}
		}
	}()

	root := tr.StartRoot("job", "job-chaos", "job-chaos")
	run := tr.StartSpan(root.Context(), "run")
	ctx := tracing.ContextWith(context.Background(), tr, run.Context())
	resp, err := c.Execute(ctx, RunRequest{
		Priority: PriorityInteractive,
		Params:   testParams(),
		Items:    testItems(t, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Result == nil || r.Error != "" {
			t.Fatalf("item %d empty or failed under chaos: %q", i, r.Error)
		}
	}
	run.SetAttr("outcome", "ok").End()
	root.End()

	spans, _ := tr.Trace(tracing.TraceIDFor("job-chaos"))
	if orphans := tracing.Orphans(spans); len(orphans) != 0 {
		t.Fatalf("assembled trace has %d orphans: %+v", len(orphans), orphans)
	}
	byID := make(map[string]tracing.Span, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	attemptsPerItem := make(map[string]int)
	for _, s := range spans {
		switch tracing.StageOf(s.Name) {
		case "attempt":
			parent, ok := byID[s.ParentID]
			if !ok || tracing.StageOf(parent.Name) != "item" {
				t.Fatalf("attempt %s parents to %q, want an item span", s.Path, parent.Name)
			}
			attemptsPerItem[parent.Path]++
		case "engine":
			parent, ok := byID[s.ParentID]
			if !ok || tracing.StageOf(parent.Name) != "attempt" {
				t.Fatalf("engine %s parents to %q, want an attempt span", s.Path, parent.Name)
			}
		}
	}
	if len(attemptsPerItem) != 4 {
		t.Fatalf("attempts recorded for %d items, want 4", len(attemptsPerItem))
	}
	max := 0
	for _, n := range attemptsPerItem {
		if n > max {
			max = n
		}
	}
	t.Logf("attempts per item: %v", attemptsPerItem)
	if max < 2 {
		t.Fatalf("no item gained a sibling attempt (max %d) — hedging never fired", max)
	}
}
