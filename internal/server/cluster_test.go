package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hcapp/internal/cluster"
	"hcapp/internal/experiment"
	"hcapp/internal/telemetry"
	"hcapp/internal/tracing"
)

// logCapture is a concurrency-safe Logf sink (simulations log from
// runner goroutines).
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) joined() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return strings.Join(lc.lines, "\n")
}

// TestReadyzSplitFromHealthz: /healthz is liveness (200 even while
// draining); /readyz is routability (503 once draining starts).
func TestReadyzSplitFromHealthz(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var rz readyzResponse
	if resp := getJSON(t, ts.URL+"/readyz", &rz); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh /readyz status %d", resp.StatusCode)
	}
	if rz.Status != "ready" || rz.FleetWorkers != nil {
		t.Fatalf("standalone /readyz = %+v", rz)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz status %d, want 503", resp.StatusCode)
	}
	var h healthzResponse
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining /healthz status %d, want 200 (liveness)", resp.StatusCode)
	}
	if h.Status != "draining" {
		t.Fatalf("draining /healthz status field %q", h.Status)
	}
}

// TestPanicLogsStack: the panic containment in simulate must log the
// stack once, tagged with the job id, in addition to classifying the
// failure.
func TestPanicLogsStack(t *testing.T) {
	var lc logCapture
	s := New(Config{Workers: 1, Logf: lc.logf})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	var ev *experiment.Evaluator // nil evaluator panics inside the task
	_, err := s.Manager().simulate(context.Background(), ev, experiment.RunSpec{}, "job-under-test")
	if err == nil {
		t.Fatal("panicking simulation returned nil error")
	}
	log := lc.joined()
	if !strings.Contains(log, "job-under-test") {
		t.Fatalf("panic log does not name the job:\n%s", log)
	}
	if !strings.Contains(log, "goroutine") {
		t.Fatalf("panic log carries no stack trace:\n%s", log)
	}
}

// startFleetWorker boots a cluster worker with a real listener and
// registers it against the coordinator URL.
func startFleetWorker(t *testing.T, coordURL, id string) {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	t.Cleanup(ts.Close)
	w := cluster.NewWorker(cluster.WorkerConfig{
		ID:            id,
		Coordinator:   coordURL,
		AdvertiseAddr: "http://" + ts.Listener.Addr().String(),
		Workers:       2,
		Logf:          t.Logf,
		// Production workers always carry a tracer; without one the
		// worker ships no engine spans and fleet traces lose a level.
		Tracer: tracing.New(tracing.Config{}),
	})
	ts.Config.Handler = w.Handler()
	ts.Start()
	if err := w.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorRole is the serve-side fleet acceptance test: a
// coordinator-role server is unready until a worker registers, then
// delegates jobs to the fleet, serves a repeat of the same job from the
// fleet cache, rejects an over-limit tenant with 429, and exposes the
// cluster metric families on /metrics.
func TestCoordinatorRole(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations over a local fleet")
	}
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		TenantRate:  0.001, // effectively no refill within the test
		TenantBurst: 2,
		Logf:        t.Logf,
	})
	_, ts := testServer(t, Config{Workers: 2, Cluster: coord})

	// Unready while the fleet is empty.
	var rz readyzResponse
	if resp := getJSON(t, ts.URL+"/readyz", &rz); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("workerless coordinator /readyz status %d, want 503", resp.StatusCode)
	}
	if rz.FleetWorkers == nil || *rz.FleetWorkers != 0 {
		t.Fatalf("workerless /readyz = %+v", rz)
	}

	startFleetWorker(t, ts.URL, "w-1")
	if resp := getJSON(t, ts.URL+"/readyz", &rz); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz status %d after worker registration", resp.StatusCode)
	}

	// A delegated job must return exactly what a standalone server
	// produces for the same request.
	req := JobRequest{Combo: "Mid-Mid", Scheme: "hcapp", Limit: "package-pin", DurMS: 0.5, Seed: seedOf(42), Tenant: "acme"}
	st, resp := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	fleet := waitForJob(t, ts, st.ID)
	if fleet.State != StateDone {
		t.Fatalf("delegated job failed: %q", fleet.Error)
	}

	_, standaloneTS := testServer(t, Config{Workers: 2})
	st2, _ := postJob(t, standaloneTS, req)
	local := waitForJob(t, standaloneTS, st2.ID)
	if local.State != StateDone {
		t.Fatalf("standalone job failed: %q", local.Error)
	}
	if !reflect.DeepEqual(*fleet.Result, *local.Result) {
		t.Fatalf("fleet result diverged from standalone:\n fleet: %+v\n local: %+v",
			*fleet.Result, *local.Result)
	}
	// Progress and the billed energy match too: the coordinator
	// backfills progress from the fleet's result, and both roles track
	// energy on every job.
	if fleet.SimTimeNS != local.SimTimeNS || fleet.Steps != local.Steps {
		t.Fatalf("progress diverged: fleet (%d ns, %d steps), standalone (%d ns, %d steps)",
			fleet.SimTimeNS, fleet.Steps, local.SimTimeNS, local.Steps)
	}
	if fleet.Steps == 0 {
		t.Fatal("delegated job reports no steps")
	}
	if fleet.Result.EnergyJoules <= 0 || fleet.Result.EnergyJoules != local.Result.EnergyJoules {
		t.Fatalf("energy_joules: fleet %g, standalone %g, want equal and > 0",
			fleet.Result.EnergyJoules, local.Result.EnergyJoules)
	}

	// Same request again: the fleet cache answers it.
	st3, _ := postJob(t, ts, req)
	if got := waitForJob(t, ts, st3.ID); got.State != StateDone {
		t.Fatalf("repeat job failed: %q", got.Error)
	}

	// Both tokens (burst 2) spent on the two jobs above.
	if _, resp := postJob(t, ts, req); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit tenant got status %d, want 429", resp.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	samples, err := telemetry.ParseText(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.GatherMap(samples)
	if got := m["hcapp_cluster_workers_live"]; got != 1 {
		t.Fatalf("hcapp_cluster_workers_live = %g, want 1", got)
	}
	if got := m["hcapp_cluster_cache_hits_total"]; got != 1 {
		t.Fatalf("hcapp_cluster_cache_hits_total = %g, want 1 (repeat job)", got)
	}
	if got := m[`hcapp_tenant_throttled_total{tenant=acme}`]; got != 1 {
		t.Fatalf("hcapp_tenant_throttled_total{tenant=acme} = %g, want 1", got)
	}
}

// TestRefusedJobSpendsNoToken: admission refuses a job for draining or
// a full queue before it debits the tenant's token bucket, so a refused
// job leaves its tenant's token unspent.
func TestRefusedJobSpendsNoToken(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		TenantRate:  0.001, // effectively no refill within the test
		TenantBurst: 1,
		Logf:        t.Logf,
	})
	s := New(Config{Workers: 1, Cluster: coord})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Combo: "Mid-Mid", Scheme: "hcapp", Limit: "package-pin", DurMS: 0.5, Tenant: "acme"}
	if _, err := s.Manager().Submit(req); err != ErrShuttingDown {
		t.Fatalf("Submit while draining: err %v, want %v", err, ErrShuttingDown)
	}
	if !coord.Allow("acme", 1) {
		t.Fatal("a job refused while draining spent its tenant's only token")
	}
}
