package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
)

// countingCoordinator serves c's HTTP surface and counts the batches
// POSTed to /v1/cluster/run.
func countingCoordinator(t *testing.T, c *Coordinator) (*Client, *atomic.Int64) {
	t.Helper()
	var posts atomic.Int64
	h := c.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cluster/run" {
			posts.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return cl, &posts
}

// suiteFigures renders fig4, fig5 and fig10 on ev, in hcappsim's order.
func suiteFigures(t *testing.T, ev *experiment.Evaluator) []*experiment.Matrix {
	t.Helper()
	var out []*experiment.Matrix
	for _, fig := range []func() (*experiment.Matrix, error){ev.Fig4, ev.Fig5, ev.Fig10} {
		m, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestRunSpecsSendsOneRequestPerBatch: an evaluator whose Remote is a
// Client sends the uncached specs of each RunSpecs batch as one POST.
// fig4, fig5 and fig10 cost two requests cold (fig5's specs are all in
// the evaluator's cache after fig4) and two hot (a fresh evaluator
// against the filled fleet cache); the cold batches reach both workers,
// and every figure equals a local run's.
func TestRunSpecsSendsOneRequestPerBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the fig4, fig5 and fig10 suite twice")
	}
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	slicesA := countingWorker(t, c, "w-a")
	slicesB := countingWorker(t, c, "w-b")
	cl, posts := countingCoordinator(t, c)
	p := testParams()
	want := suiteFigures(t, p.Evaluator())

	for _, phase := range []string{"cold", "hot"} {
		posts.Store(0)
		ev := p.Evaluator()
		ev.Remote = cl
		got := suiteFigures(t, ev)
		if n := posts.Load(); n != 2 {
			t.Fatalf("%s fig4,fig5,fig10: %d POSTs, want 2", phase, n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s fleet figures differ from a local run", phase)
		}
	}
	if a, b := slicesA.Load(), slicesB.Load(); a == 0 || b == 0 {
		t.Fatalf("cold batches sent %d slices to w-a and %d to w-b, want both busy", a, b)
	}
	if n := c.CacheLen(); n != 56 {
		t.Fatalf("fleet cache holds %d results, want the suite's 56 distinct specs", n)
	}
}

// TestRemoteBatchReportsLowestIndexFailure: a batch whose items 1 and 3
// fail reports item 1's error through both RemoteRunners, and the
// client gives up after one request: an item failure is a verdict
// (422), not a transient fault worth retrying.
func TestRemoteBatchReportsLowestIndexFailure(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	registerWorker(t, c, startWorker(t, "w-a"))
	registerWorker(t, c, startWorker(t, "w-b"))
	cl, posts := countingCoordinator(t, c)
	p := testParams()
	specs := make([]experiment.RunSpec, 4)
	for i, it := range testItems(t, len(specs)) {
		spec, err := it.Spec.RunSpec()
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}
	specs[1].Policy, specs[3].Policy = "bogus-one", "bogus-three"

	for name, r := range map[string]experiment.RemoteRunner{"client": cl, "coordinator": c} {
		ev := p.Evaluator()
		ev.Remote = r
		_, err := ev.RunSpecs(context.Background(), specs)
		if err == nil || !strings.Contains(err.Error(), "item 1:") || !strings.Contains(err.Error(), "bogus-one") {
			t.Fatalf("%s: err = %v, want item 1's bogus-one failure", name, err)
		}
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("client sent %d requests for a batch with a failing item, want 1", n)
	}
}

// TestRemoteBatchCancelledMidBatch: cancelling an evaluator's batch
// while its fleet request is on a worker returns context.Canceled and
// leaves no result behind on the coordinator; the same batch then runs
// to the local results.
func TestRemoteBatchCancelledMidBatch(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HedgeAfter: -1, Logf: t.Logf})
	w := NewWorker(WorkerConfig{ID: "w-a", Workers: 2, Logf: t.Logf})
	var hold atomic.Bool
	hold.Store(true)
	arrived := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if hold.Load() {
			select {
			case arrived <- struct{}{}:
			default:
			}
			// With the body read, the server notices the coordinator
			// hanging up and cancels the request context.
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		}
		w.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(ts.Close)
	w.cfg.AdvertiseAddr = ts.URL
	registerWorker(t, c, w)

	p := testParams()
	items := testItems(t, 3)
	specs := make([]experiment.RunSpec, len(items))
	for i, it := range items {
		spec, err := it.Spec.RunSpec()
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}
	ev := p.Evaluator()
	ev.Remote = c

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := ev.RunSpecs(ctx, specs)
		errc <- err
	}()
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the batch never reached the worker")
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v, want context.Canceled", err)
	}
	if n := c.CacheLen(); n != 0 {
		t.Fatalf("after cancellation the coordinator holds %d results", n)
	}

	hold.Store(false)
	got, err := ev.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	want := localResults(t, p, items, false)
	for i := range got {
		if !reflect.DeepEqual(ResultOf(got[i]), want[i]) {
			t.Fatalf("item %d after a cancelled attempt differs from a local run", i)
		}
	}
}

// TestDispatchSpreadsConcurrentBatches: a one-item batch dispatched
// while another is still on the least-id worker goes to the other
// worker, so concurrent served jobs use the whole fleet, and each
// result is still the local one.
func TestDispatchSpreadsConcurrentBatches(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HedgeAfter: -1, Logf: t.Logf})
	arrived := make(chan string, 2)
	release := make(chan struct{})
	for _, id := range []string{"w-a", "w-b"} {
		w := NewWorker(WorkerConfig{ID: id, Workers: 1, Logf: t.Logf})
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			arrived <- id
			<-release
			w.Handler().ServeHTTP(rw, r)
		}))
		t.Cleanup(ts.Close)
		w.cfg.AdvertiseAddr = ts.URL
		registerWorker(t, c, w)
	}
	p := testParams()
	items := testItems(t, 2)
	want := localResults(t, p, items, false)

	type outcome struct {
		resp *RunResponse
		err  error
	}
	done := make([]chan outcome, len(items))
	var on []string
	for i := range items {
		done[i] = make(chan outcome, 1)
		go func() {
			resp, err := c.Execute(context.Background(), RunRequest{Priority: PriorityInteractive, Params: p, Items: items[i : i+1]})
			done[i] <- outcome{resp, err}
		}()
		select {
		case id := <-arrived:
			on = append(on, id)
		case <-time.After(10 * time.Second):
			t.Fatalf("batch %d never reached a worker", i)
		}
	}
	close(release)
	if on[0] == on[1] {
		t.Fatalf("both concurrent batches ran on %s", on[0])
	}
	for i := range items {
		out := <-done[i]
		if out.err != nil {
			t.Fatal(out.err)
		}
		if !reflect.DeepEqual(*out.resp.Results[0].Result, want[i]) {
			t.Fatalf("batch %d result differs from a local run", i)
		}
	}
}

// TestOverBurstBatchIsResentInPieces: a batch larger than the tenant
// burst can never be admitted whole, so RunBatch refuses it outright
// (ErrOverBurst, naming the burst) instead of answering 429 forever.
// The client then resends it in pieces of at most the burst: a 3-spec
// evaluator batch against burst 2 costs the refused POST plus two, and
// returns the local results.
func TestOverBurstBatchIsResentInPieces(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{TenantRate: 1000, TenantBurst: 2, Logf: t.Logf})
	registerWorker(t, c, startWorker(t, "w-a"))
	p := testParams()
	items := testItems(t, 3)
	if _, err := c.RunBatch(context.Background(), RunRequest{Params: p, Items: items}); !errors.Is(err, ErrOverBurst) || !strings.Contains(err.Error(), "burst 2") {
		t.Fatalf("RunBatch of 3 items against burst 2: err = %v, want ErrOverBurst naming the burst", err)
	}

	cl, posts := countingCoordinator(t, c)
	cl.Backoff = Backoff{Sleep: func(ctx context.Context, d time.Duration) error {
		time.Sleep(5 * time.Millisecond) // a 1000/s bucket refills a token per ms
		return ctx.Err()
	}}
	specs := make([]experiment.RunSpec, len(items))
	for i, it := range items {
		spec, err := it.Spec.RunSpec()
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}
	ev := p.Evaluator()
	ev.Remote = cl
	got, err := ev.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatalf("3-spec batch against burst 2: %v", err)
	}
	want := localResults(t, p, items, false)
	for i := range got {
		if r := ResultOf(got[i]); !reflect.DeepEqual(r, want[i]) {
			t.Fatalf("item %d: fleet result %+v, want %+v", i, r, want[i])
		}
	}
	if n := posts.Load(); n < 3 {
		t.Fatalf("client sent %d requests, want the refused one and a piece per burst", n)
	}
}

// TestWorkerReusesEvaluatorPerParams: slices under the same Params run
// on one evaluator, so its trace sets are generated once per seed; a
// slice under other Params gets a fresh one.
func TestWorkerReusesEvaluatorPerParams(t *testing.T) {
	w := NewWorker(WorkerConfig{ID: "w-a", Workers: 1, Logf: t.Logf})
	p := testParams()
	ev := w.evaluator(p)
	if !ev.TrackEnergy {
		t.Fatal("worker evaluator does not track energy")
	}
	if w.evaluator(p) != ev {
		t.Fatal("same Params built a second evaluator")
	}
	q := p
	q.Seed++
	if other := w.evaluator(q); other == ev || other.Cfg.Seed != q.Seed {
		t.Fatal("new Params reused the old evaluator")
	}
}

// stepCounter is a step observer that counts the engine steps it sees.
type stepCounter struct{ steps atomic.Int64 }

func (s *stepCounter) ObserveSteps(_, _ sim.Time, n int64, _ float64, _ []sched.DomainSample) {
	s.steps.Add(n)
}

// TestWorkerKeepsNoResults: the same item sent through RunSlice twice
// under equal Params simulates twice. The coordinator's fleet cache is
// the only cache on the fleet path; the worker's evaluator keeps trace
// sets, not results.
func TestWorkerKeepsNoResults(t *testing.T) {
	w := NewWorker(WorkerConfig{ID: "w-a", Workers: 1, Logf: t.Logf})
	p := testParams()
	obs := &stepCounter{}
	w.evaluator(p).Observer = obs
	items := testItems(t, 1)
	var steps []int64
	for run := 0; run < 2; run++ {
		resp, err := w.RunSlice(context.Background(), p, items)
		if err != nil || resp.Results[0].Error != "" {
			t.Fatalf("run %d: %v %+v", run, err, resp)
		}
		steps = append(steps, obs.steps.Load())
	}
	if steps[0] == 0 || steps[1] != 2*steps[0] {
		t.Fatalf("engine steps after each run %v, want the second run to simulate as many again", steps)
	}
}

// TestItemKeyIsTheEvaluatorCacheKey: the fleet keys a spec item by the
// evaluator cache key its params would give, without building that
// evaluator, for every suite combo, scheme, limit and priority set.
func TestItemKeyIsTheEvaluatorCacheKey(t *testing.T) {
	prios := []map[string]float64{nil, {"cpu": 1, "gpu": 0.25}, {"gpu": 0.5, "cpu": 0.5, "sha": 0.125}}
	for _, p := range []Params{testParams(), DefaultParams(-7, 3*sim.Millisecond)} {
		ev := p.Evaluator()
		for _, combo := range experiment.Suite() {
			for _, scheme := range config.StandardSchemes() {
				for _, limit := range []config.PowerLimit{config.PackagePinLimit(), config.OffPackageVRLimit()} {
					for _, pr := range prios {
						rs := experiment.RunSpec{Combo: combo, Scheme: scheme, Limit: limit, Priorities: pr}
						if got, want := p.cacheKey(rs), ev.CacheKey(rs); got != want {
							t.Fatalf("fleet key %q, evaluator key %q", got, want)
						}
					}
				}
			}
		}
	}
}

// TestSeedSweepSendsOneRequestPerSeed: a seed sweep given the fleet as
// its remote sends each seed's suite as one POST, and renders what a
// local sweep renders.
func TestSeedSweepSendsOneRequestPerSeed(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	registerWorker(t, c, startWorker(t, "w-a"))
	cl, posts := countingCoordinator(t, c)
	seeds := []int64{3, 11}
	limit, dur := config.OffPackageVRLimit(), sim.Millisecond/2
	local, err := experiment.RunSeedSweep(seeds, limit, dur)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := experiment.RunSeedSweepWith(experiment.NewRunner(2), cl, seeds, limit, dur)
	if err != nil {
		t.Fatal(err)
	}
	if n := posts.Load(); n != int64(len(seeds)) {
		t.Fatalf("%d seeds sent %d POSTs, want one each", len(seeds), n)
	}
	if got, want := fleet.Render(), local.Render(); got != want {
		t.Fatalf("fleet sweep renders\n%s\nlocal sweep\n%s", got, want)
	}
}
