package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	"hcapp/internal/sim"
	"hcapp/internal/telemetry"
)

// testParams is the evaluator parameterization every test batch runs
// under — short enough for CI, identical on fleet and local sides.
func testParams() Params {
	return DefaultParams(42, sim.Millisecond/2)
}

// testItems builds n spec items over distinct suite combos.
func testItems(t testing.TB, n int) []Item {
	t.Helper()
	scheme, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		t.Fatal(err)
	}
	suite := experiment.Suite()
	if n > len(suite) {
		t.Fatalf("test wants %d distinct combos, suite has %d", n, len(suite))
	}
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		s := Spec{Combo: suite[i].Name, Scheme: scheme, Limit: config.PackagePinLimit()}
		items[i] = Item{Spec: &s}
	}
	return items
}

// localResults simulates the items on a plain local evaluator that
// tracks energy exactly when the fleet request asks for it — the
// reference the fleet must match exactly, energy summary included.
func localResults(t *testing.T, p Params, items []Item, energy bool) []Result {
	t.Helper()
	ev := p.Evaluator()
	ev.TrackEnergy = energy
	out := make([]Result, len(items))
	for i, it := range items {
		spec, err := it.Spec.RunSpec()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ev.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ResultOf(res)
	}
	return out
}

// startWorker boots a real worker behind an httptest listener and
// returns it with its advertise address filled in.
func startWorker(t testing.TB, id string) *Worker {
	t.Helper()
	w := NewWorker(WorkerConfig{ID: id, Workers: 2, Logf: t.Logf})
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	w.cfg.AdvertiseAddr = ts.URL
	return w
}

func registerWorker(t testing.TB, c *Coordinator, w *Worker) {
	t.Helper()
	if _, err := c.Register(RegisterRequest{ID: w.cfg.ID, Addr: w.cfg.AdvertiseAddr, Workers: w.cfg.Workers}); err != nil {
		t.Fatal(err)
	}
}

func gatherMetrics(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	samples, err := telemetry.ParseText(strings.NewReader(reg.Text()))
	if err != nil {
		t.Fatal(err)
	}
	return telemetry.GatherMap(samples)
}

// TestRegisterIdempotent: re-registering an id refreshes its record
// instead of duplicating it, and the refresh adopts the new address.
func TestRegisterIdempotent(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	for _, addr := range []string{"http://h1:1", "http://h1:2"} {
		if _, err := c.Register(RegisterRequest{ID: "w1", Addr: addr, Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	ws := c.WorkerList()
	if len(ws) != 1 {
		t.Fatalf("duplicate registration produced %d records, want 1", len(ws))
	}
	if ws[0].Addr != "http://h1:2" {
		t.Fatalf("re-registration kept stale addr %q", ws[0].Addr)
	}
	if c.WorkersLive() != 1 {
		t.Fatalf("WorkersLive = %d, want 1", c.WorkersLive())
	}
}

// TestHeartbeatFlap drives an injected clock: a worker whose heartbeat
// lapses past ExpireAfter stops receiving traffic, and a late heartbeat
// revives it without re-registration.
func TestHeartbeatFlap(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(CoordinatorConfig{
		HeartbeatEvery: time.Second,
		ExpireAfter:    3 * time.Second,
		Logf:           t.Logf,
	}).WithNow(clk.now)

	if _, err := c.Register(RegisterRequest{ID: "w1", Addr: "http://h:1", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if c.WorkersLive() != 1 {
		t.Fatal("fresh registration not live")
	}

	clk.advance(4 * time.Second)
	if c.WorkersLive() != 0 {
		t.Fatal("worker with lapsed heartbeat still live")
	}

	if !c.Heartbeat("w1") {
		t.Fatal("known worker's heartbeat rejected")
	}
	if c.WorkersLive() != 1 {
		t.Fatal("heartbeat did not revive the lapsed worker")
	}
	if c.Heartbeat("ghost") {
		t.Fatal("unknown worker's heartbeat accepted; it must re-register")
	}
}

// TestExecuteMatchesLocal: a batch sharded across two live workers
// returns exactly what a single local evaluator produces, slot for
// slot.
func TestExecuteMatchesLocal(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf}).WithMetrics(NewMetrics(reg))
	registerWorker(t, c, startWorker(t, "w-a"))
	registerWorker(t, c, startWorker(t, "w-b"))

	p := testParams()
	items := testItems(t, 4)
	resp, err := c.Execute(context.Background(), RunRequest{Priority: PriorityBatch, Params: p, Items: items, Energy: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHits != 0 {
		t.Fatalf("first batch reported %d cache hits, want 0", resp.CacheHits)
	}

	want := localResults(t, p, items, true)
	for i := range items {
		if resp.Results[i].Error != "" {
			t.Fatalf("item %d failed: %s", i, resp.Results[i].Error)
		}
		if !reflect.DeepEqual(*resp.Results[i].Result, want[i]) {
			t.Fatalf("item %d diverged from local run:\n fleet: %+v\n local: %+v",
				i, *resp.Results[i].Result, want[i])
		}
	}
	if c.CacheLen() != len(items) {
		t.Fatalf("fleet cache holds %d entries, want %d", c.CacheLen(), len(items))
	}

	// Second identical batch: 100%% fleet cache hit rate, visible on the
	// counter, even after every worker is gone — cached results need no
	// fleet at all.
	c.markDead("w-a")
	c.markDead("w-b")
	if c.WorkersLive() != 0 {
		t.Fatal("markDead left workers live")
	}
	resp2, err := c.Execute(context.Background(), RunRequest{Priority: PriorityBatch, Params: p, Items: items, Energy: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.CacheHits != len(items) {
		t.Fatalf("repeat batch hit cache %d/%d times", resp2.CacheHits, len(items))
	}
	if !reflect.DeepEqual(resp2.Results, resp.Results) {
		t.Fatal("cached results diverged from originals")
	}
	m := gatherMetrics(t, reg)
	if got := m["hcapp_cluster_cache_hits_total"]; got != float64(len(items)) {
		t.Fatalf("hcapp_cluster_cache_hits_total = %g, want %d", got, len(items))
	}
	if got := m["hcapp_cluster_workers_live"]; got != 0 {
		t.Fatalf("hcapp_cluster_workers_live = %g, want 0", got)
	}
}

// TestWorkerDeathReshards: one of two workers fails every slice; its
// share is re-sharded onto the survivor and the batch still matches the
// local reference exactly.
func TestWorkerDeathReshards(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf}).WithMetrics(NewMetrics(reg))

	// The failing worker sorts first by id, so the round-robin stripe
	// deterministically hands it items 0 and 2 of a 4-item batch.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "worker crashed", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	if _, err := c.Register(RegisterRequest{ID: "a-bad", Addr: bad.URL, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	registerWorker(t, c, startWorker(t, "b-good"))

	p := testParams()
	items := testItems(t, 4)
	resp, err := c.Execute(context.Background(), RunRequest{Priority: PriorityBatch, Params: p, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	want := localResults(t, p, items, false)
	for i := range items {
		if resp.Results[i].Error != "" {
			t.Fatalf("item %d failed after re-shard: %s", i, resp.Results[i].Error)
		}
		if !reflect.DeepEqual(*resp.Results[i].Result, want[i]) {
			t.Fatalf("item %d diverged from local run after re-shard", i)
		}
	}

	m := gatherMetrics(t, reg)
	if got := m["hcapp_cluster_jobs_resharded_total"]; got != 2 {
		t.Fatalf("hcapp_cluster_jobs_resharded_total = %g, want 2", got)
	}
	if c.WorkersLive() != 1 {
		t.Fatalf("WorkersLive = %d after death, want 1", c.WorkersLive())
	}
}

// TestAllWorkersLost: a batch with no live workers fails with
// ErrNoWorkers rather than hanging.
func TestAllWorkersLost(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	_, err := c.Execute(context.Background(), RunRequest{Params: testParams(), Items: testItems(t, 1)})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestDispatchWaitsOutWorkerDrought: a batch arriving while every
// registered worker is unroutable is not failed 503 immediately — the
// dispatch waits up to NoWorkersPatience, so a heartbeat inside the
// window rescues the batch. An empty registry (TestAllWorkersLost)
// still fails fast.
func TestDispatchWaitsOutWorkerDrought(t *testing.T) {
	w := startWorker(t, "drought")
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf, NoWorkersPatience: 5 * time.Second})
	registerWorker(t, c, w)
	c.markDead(w.cfg.ID)
	if c.WorkersLive() != 0 {
		t.Fatalf("WorkersLive = %d before the drought, want 0", c.WorkersLive())
	}
	go func() {
		time.Sleep(400 * time.Millisecond)
		c.Heartbeat(w.cfg.ID)
	}()
	items := testItems(t, 2)
	resp, err := c.Execute(context.Background(), RunRequest{Params: testParams(), Items: items})
	if err != nil {
		t.Fatalf("batch during a rescued drought: %v", err)
	}
	want := localResults(t, testParams(), items, false)
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("item %d: %s", i, r.Error)
		}
		if !reflect.DeepEqual(r.Result, &want[i]) {
			t.Fatalf("item %d result differs from local run", i)
		}
	}
}

// TestDispatchDroughtPatienceExpires: a drought nobody rescues still
// ends in ErrNoWorkers once the patience runs out.
func TestDispatchDroughtPatienceExpires(t *testing.T) {
	w := startWorker(t, "drought-expired")
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf, NoWorkersPatience: 300 * time.Millisecond})
	registerWorker(t, c, w)
	c.markDead(w.cfg.ID)
	start := time.Now()
	_, err := c.Execute(context.Background(), RunRequest{Params: testParams(), Items: testItems(t, 1)})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	if waited := time.Since(start); waited < 300*time.Millisecond {
		t.Fatalf("gave up after %s, before the %s patience", waited, 300*time.Millisecond)
	}
}

// TestRunBatchThrottles: the tenant bucket rejects whole batches it
// cannot pay for and counts them per tenant; an affordable batch from
// the same tenant passes the limiter.
func TestRunBatchThrottles(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	c := NewCoordinator(CoordinatorConfig{
		TenantRate:  1,
		TenantBurst: 2,
		Logf:        t.Logf,
	}).WithMetrics(NewMetrics(reg)).WithNow(clk.now)

	over := RunRequest{Tenant: "acme", Params: testParams(), Items: testItems(t, 3)}
	if _, err := c.RunBatch(context.Background(), over); !errors.Is(err, ErrThrottled) {
		t.Fatalf("3-item batch against burst 2: err = %v, want ErrThrottled", err)
	}
	// Exactly at the burst: admitted past the limiter (it then fails on
	// the empty fleet, proving the limiter was not what stopped it).
	exact := RunRequest{Tenant: "acme", Params: testParams(), Items: testItems(t, 2)}
	if _, err := c.RunBatch(context.Background(), exact); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("burst-sized batch: err = %v, want ErrNoWorkers (admitted)", err)
	}
	// Bucket now empty; one more item is throttled.
	one := RunRequest{Tenant: "acme", Params: testParams(), Items: testItems(t, 1)}
	if _, err := c.RunBatch(context.Background(), one); !errors.Is(err, ErrThrottled) {
		t.Fatalf("post-burst item: err = %v, want ErrThrottled", err)
	}

	m := gatherMetrics(t, reg)
	if got := m[`hcapp_tenant_throttled_total{tenant=acme}`]; got != 2 {
		t.Fatalf("hcapp_tenant_throttled_total{tenant=acme} = %g, want 2", got)
	}
}

// TestExecuteRejectsBadItems: malformed items and unknown priorities
// fail fast with ErrBadItem.
func TestExecuteRejectsBadItems(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	_, err := c.Execute(context.Background(), RunRequest{Params: testParams(), Items: []Item{{}}})
	if !errors.Is(err, ErrBadItem) {
		t.Fatalf("empty item: err = %v, want ErrBadItem", err)
	}
	_, err = c.Execute(context.Background(), RunRequest{Priority: "urgent", Params: testParams(), Items: testItems(t, 1)})
	if !errors.Is(err, ErrBadItem) {
		t.Fatalf("unknown priority: err = %v, want ErrBadItem", err)
	}
}

// TestHTTPProtocolEndToEnd exercises the real wire path: workers
// register and heartbeat over HTTP, a Client submits a batch, and the
// response matches the local reference byte for byte after JSON
// round-tripping.
func TestHTTPProtocolEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf}).WithMetrics(NewMetrics(reg))
	coordTS := httptest.NewServer(c.Handler())
	t.Cleanup(coordTS.Close)

	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{ID: fmt.Sprintf("w-%d", i), Coordinator: coordTS.URL, Workers: 2, Logf: t.Logf})
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(ts.Close)
		w.cfg.AdvertiseAddr = ts.URL
		if w.Ready() {
			t.Fatal("unregistered worker claims ready")
		}
		if err := w.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !w.Ready() {
			t.Fatal("registered worker claims unready")
		}
		if err := w.heartbeat(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if c.WorkersLive() != 2 {
		t.Fatalf("WorkersLive = %d, want 2", c.WorkersLive())
	}

	cl, err := NewClient(coordTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	items := testItems(t, 3)
	resp, err := cl.Run(context.Background(), RunRequest{Params: p, Items: items, Energy: true})
	if err != nil {
		t.Fatal(err)
	}
	want := localResults(t, p, items, true)
	for i := range items {
		if !reflect.DeepEqual(*resp.Results[i].Result, want[i]) {
			t.Fatalf("item %d diverged over the wire:\n fleet: %+v\n local: %+v",
				i, *resp.Results[i].Result, want[i])
		}
	}
}

// TestRemoteRunnerAndScalingCell: the Evaluator Remote hook and the
// sweep Cell hook both route through the fleet and reproduce local
// results exactly — the energy summary included, which the fleet
// returns exactly when the asking evaluator tracks energy.
func TestRemoteRunnerAndScalingCell(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	coordTS := httptest.NewServer(c.Handler())
	t.Cleanup(coordTS.Close)
	registerWorker(t, c, startWorker(t, "w-a"))

	cl, err := NewClient(coordTS.URL)
	if err != nil {
		t.Fatal(err)
	}

	checkRemoteRunner(t, cl)

	// Scaling sweep cell.
	sc := experiment.DefaultScalingConfig()
	sc.Dur = sim.Millisecond / 2
	cfg := config.Default()
	const (
		triples = 1
		period  = sim.Microsecond
	)
	limit := sc.LimitPerTriple
	fleetMax, fleetPPE, err := cl.ScalingCellFunc()(context.Background(), cfg, sc, triples, period, limit)
	if err != nil {
		t.Fatal(err)
	}
	localMax, localPPE, err := experiment.RunScalingCell(context.Background(), cfg, sc, triples, period, limit)
	if err != nil {
		t.Fatal(err)
	}
	if fleetMax != localMax || fleetPPE != localPPE {
		t.Fatalf("scaling cell diverged: fleet (%v, %v) local (%v, %v)", fleetMax, fleetPPE, localMax, localPPE)
	}
}

// checkRemoteRunner requires an evaluator whose Remote is r to return
// the RunResult a local evaluator computes, energy off then on. The
// second run is a fleet-cache hit on the entry the first one filled.
func checkRemoteRunner(t *testing.T, r experiment.RemoteRunner) {
	t.Helper()
	p := testParams()
	item := testItems(t, 1)[0]
	spec, err := item.Spec.RunSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, energy := range []bool{false, true} {
		remote := p.Evaluator()
		remote.Remote = r
		remote.TrackEnergy = energy
		got, err := remote.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		local := p.Evaluator()
		local.TrackEnergy = energy
		want, err := local.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Spec.Combo.Name != spec.Combo.Name {
			t.Fatalf("remote result lost its spec: %q", got.Spec.Combo.Name)
		}
		if (got.Energy != nil) != energy || (want.Energy != nil) != energy {
			t.Fatalf("TrackEnergy=%v: remote energy %v, local energy %v", energy, got.Energy != nil, want.Energy != nil)
		}
		// RunSpec.Combo carries benchmark builder funcs, which DeepEqual
		// refuses regardless of identity; every other field must match.
		got.Spec, want.Spec = experiment.RunSpec{}, experiment.RunSpec{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TrackEnergy=%v: remote evaluator run diverged:\n fleet: %+v\n local: %+v", energy, got, want)
		}
	}
}

// TestCoordinatorIsARemoteRunner: an in-process coordinator serves as
// an evaluator's Remote, as a coordinator-role job server uses it, and
// returns exactly the local RunResult.
func TestCoordinatorIsARemoteRunner(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	registerWorker(t, c, startWorker(t, "w-a"))
	checkRemoteRunner(t, c)
}

// countingWorker boots a real worker whose handler counts the slices it
// is sent.
func countingWorker(t *testing.T, c *Coordinator, id string) *atomic.Int64 {
	t.Helper()
	w := NewWorker(WorkerConfig{ID: id, Workers: 2, Logf: t.Logf})
	var slices atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		slices.Add(1)
		w.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(ts.Close)
	w.cfg.AdvertiseAddr = ts.URL
	registerWorker(t, c, w)
	return &slices
}

// TestEnergyIsAProjectionOfTheCachedResult: a lean request leaves the
// fleet-cache entry whole, so a later energy request for the same item
// is a cache hit that sends no slice and still returns the ledger.
func TestEnergyIsAProjectionOfTheCachedResult(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	slices := countingWorker(t, c, "w-a")
	p := testParams()
	items := testItems(t, 1)

	lean, err := c.Execute(context.Background(), RunRequest{Params: p, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if want := localResults(t, p, items, false); !reflect.DeepEqual(*lean.Results[0].Result, want[0]) {
		t.Fatalf("lean result differs from a local run without energy:\n fleet: %+v\n local: %+v", *lean.Results[0].Result, want[0])
	}
	if n := slices.Load(); n != 1 {
		t.Fatalf("lean request sent %d slices, want 1", n)
	}

	full, err := c.Execute(context.Background(), RunRequest{Params: p, Items: items, Energy: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.CacheHits != 1 {
		t.Fatalf("energy request after a lean one hit the cache %d times, want 1", full.CacheHits)
	}
	if n := slices.Load(); n != 1 {
		t.Fatalf("energy request re-ran the item: %d slices sent, want 1", n)
	}
	if want := localResults(t, p, items, true); !reflect.DeepEqual(*full.Results[0].Result, want[0]) {
		t.Fatalf("energy result differs from a local run with energy:\n fleet: %+v\n local: %+v", *full.Results[0].Result, want[0])
	}
}

// TestLeanWireItem: a /v1/cluster/run reply for a request that does not
// ask for energy carries no energy key, and one item of it stays small.
func TestLeanWireItem(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	registerWorker(t, c, startWorker(t, "w-a"))
	coordTS := httptest.NewServer(c.Handler())
	t.Cleanup(coordTS.Close)

	body, err := json.Marshal(RunRequest{Params: testParams(), Items: testItems(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(coordTS.URL+"/v1/cluster/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hr.StatusCode, raw)
	}
	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("%d results for one item", len(resp.Results))
	}
	item := resp.Results[0]
	if bytes.Contains(item, []byte(`"energy"`)) {
		t.Fatalf("lean item carries an energy key: %s", item)
	}
	if !bytes.Contains(item, []byte(`"avg_power"`)) {
		t.Fatalf("lean item lost its metrics: %s", item)
	}
	if len(item) > 512 {
		t.Fatalf("lean item is %d bytes, want at most 512: %s", len(item), item)
	}
}
