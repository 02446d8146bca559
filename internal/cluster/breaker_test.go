package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hcapp/internal/telemetry"
)

// TestBreakerStateMachine drives the pure state machine through a full
// trip/cooldown/probe cycle.
func TestBreakerStateMachine(t *testing.T) {
	var b breaker
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	cooldown := 5 * time.Second

	if !b.routable(now) {
		t.Fatal("fresh breaker not routable")
	}
	// Two failures stay closed at threshold 3; the third trips.
	for i := 0; i < 2; i++ {
		if b.result(false, 3, now, cooldown) {
			t.Fatalf("failure %d tripped below threshold", i+1)
		}
	}
	if !b.routable(now) {
		t.Fatal("breaker opened below threshold")
	}
	if !b.result(false, 3, now, cooldown) {
		t.Fatal("threshold failure did not trip")
	}
	if b.state != brkOpen || b.routable(now) {
		t.Fatalf("tripped breaker state=%d routable=%v", b.state, b.routable(now))
	}
	// Inside the cooldown it stays closed to traffic; after, it admits
	// exactly one probe.
	if b.routable(now.Add(cooldown - time.Millisecond)) {
		t.Fatal("breaker routable inside cooldown")
	}
	after := now.Add(cooldown)
	if !b.routable(after) {
		t.Fatal("breaker not routable after cooldown")
	}
	b.take()
	if b.state != brkHalfOpen || !b.probing {
		t.Fatalf("take() gave state=%d probing=%v, want half-open probe", b.state, b.probing)
	}
	if b.routable(after) {
		t.Fatal("second probe admitted while one is in flight")
	}
	// A failed probe re-trips; a later successful probe closes.
	if !b.result(false, 3, after, cooldown) {
		t.Fatal("failed half-open probe did not re-trip")
	}
	after = after.Add(cooldown)
	b.take()
	if b.result(true, 3, after, cooldown) {
		t.Fatal("successful probe reported a trip")
	}
	if b.state != brkClosed || b.consecFails != 0 {
		t.Fatalf("successful probe left state=%d consecFails=%d", b.state, b.consecFails)
	}
	// abort releases the probe slot without a verdict.
	b.state = brkHalfOpen
	b.take()
	b.abort()
	if b.probing {
		t.Fatal("abort left the probe slot claimed")
	}
}

// flakyWorker proxies to a real worker once healthy; while unhealthy
// every slice gets a 500. Register/heartbeat always work — this is the
// worker that is alive enough to heartbeat but failing every slice,
// exactly what the breaker (and not the dead flag) defends against.
type flakyWorker struct {
	healthy atomic.Bool
	real    http.Handler
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !f.healthy.Load() {
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	}
	f.real.ServeHTTP(w, r)
}

// TestBreakerTripsAndRecovers: a heartbeating-but-failing worker trips
// its breaker after BreakerThreshold consecutive slice failures and is
// held out for the cooldown even though heartbeats keep reviving the
// dead flag; after the cooldown a half-open probe readmits it once it
// answers again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	c := NewCoordinator(CoordinatorConfig{
		HeartbeatEvery:   time.Second,
		ExpireAfter:      time.Hour, // heartbeat expiry out of the picture
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		HedgeAfter:       -1, // hedging off: this test is about the breaker
		Logf:             t.Logf,
	}).WithNow(clk.now).WithMetrics(NewMetrics(reg))

	inner := NewWorker(WorkerConfig{ID: "a-flaky", Workers: 2, Logf: t.Logf})
	flaky := &flakyWorker{real: inner.Handler()}
	ts := httptest.NewServer(flaky)
	t.Cleanup(ts.Close)
	if _, err := c.Register(RegisterRequest{ID: "a-flaky", Addr: ts.URL, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	good := startWorker(t, "b-good")
	registerWorker(t, c, good)

	p := testParams()
	items := testItems(t, 6)
	want := localResults(t, p, items, false)

	// Each batch round gives the flaky worker one slice failure, then
	// marks it dead; a heartbeat revives it for the next batch. Three
	// rounds reach the threshold and trip the breaker.
	for round := 0; round < 3; round++ {
		resp, err := c.Execute(context.Background(), RunRequest{Priority: PriorityBatch, Params: p, Items: items[round : round+1]})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if resp.Results[0].Error != "" {
			t.Fatalf("round %d: item failed: %s", round, resp.Results[0].Error)
		}
		c.Heartbeat("a-flaky")
	}

	m := gatherMetrics(t, reg)
	if got := m["hcapp_cluster_breaker_trips_total"]; got != 1 {
		t.Fatalf("hcapp_cluster_breaker_trips_total = %g, want 1", got)
	}
	if got := m["hcapp_cluster_breaker_state{worker=a-flaky}"]; got != brkOpen {
		t.Fatalf("breaker_state{a-flaky} = %g, want %d (open)", got, brkOpen)
	}
	// The heartbeat cleared dead, but the tripped breaker holds the
	// worker out of rotation for the whole cooldown.
	if c.WorkersLive() != 1 {
		t.Fatalf("WorkersLive = %d with breaker open, want 1", c.WorkersLive())
	}

	// Past the cooldown the worker answers again: the half-open probe
	// succeeds, the breaker closes, and both workers serve traffic.
	clk.advance(6 * time.Second)
	flaky.healthy.Store(true)
	c.Heartbeat("a-flaky")
	if c.WorkersLive() != 2 {
		t.Fatalf("WorkersLive = %d after cooldown, want 2", c.WorkersLive())
	}
	resp, err := c.Execute(context.Background(), RunRequest{Priority: PriorityBatch, Params: p, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if resp.Results[i].Error != "" {
			t.Fatalf("item %d failed after recovery: %s", i, resp.Results[i].Error)
		}
		if !reflect.DeepEqual(*resp.Results[i].Result, want[i]) {
			t.Fatalf("item %d diverged from local run after recovery", i)
		}
	}
	m = gatherMetrics(t, reg)
	if got := m["hcapp_cluster_breaker_state{worker=a-flaky}"]; got != brkClosed {
		t.Fatalf("breaker_state{a-flaky} = %g after recovery, want %d (closed)", got, brkClosed)
	}
	if got := m["hcapp_cluster_breaker_trips_total"]; got != 1 {
		t.Fatalf("hcapp_cluster_breaker_trips_total = %g after recovery, want still 1", got)
	}
}

// TestHedgeStragglerSlice: a primary worker that sits on its slice past
// HedgeAfter gets hedged onto the second live worker, the hedge's
// response wins, and the batch still matches the local reference.
func TestHedgeStragglerSlice(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCoordinator(CoordinatorConfig{
		HedgeAfter: 50 * time.Millisecond,
		Logf:       t.Logf,
	}).WithMetrics(NewMetrics(reg))

	// The straggler sorts first, so the single-slice batch routes to it.
	inner := NewWorker(WorkerConfig{ID: "a-slow", Workers: 2, Logf: t.Logf})
	innerH := inner.Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Read the body up front: the server only notices the client
		// hanging up (and cancels r.Context()) once it has.
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		select {
		case <-r.Context().Done():
			return // cancelled: the hedge won
		case <-time.After(10 * time.Second):
		}
		innerH.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	if _, err := c.Register(RegisterRequest{ID: "a-slow", Addr: slow.URL, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	registerWorker(t, c, startWorker(t, "b-fast"))

	p := testParams()
	items := testItems(t, 1)
	done := make(chan struct{})
	var resp *RunResponse
	var execErr error
	go func() {
		defer close(done)
		resp, execErr = c.Execute(context.Background(), RunRequest{Priority: PriorityBatch, Params: p, Items: items})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hedged batch did not finish; hedge never fired?")
	}
	if execErr != nil {
		t.Fatal(execErr)
	}
	want := localResults(t, p, items, false)
	if resp.Results[0].Error != "" {
		t.Fatalf("hedged item failed: %s", resp.Results[0].Error)
	}
	if !reflect.DeepEqual(*resp.Results[0].Result, want[0]) {
		t.Fatal("hedged result diverged from local run")
	}

	m := gatherMetrics(t, reg)
	if got := m["hcapp_cluster_hedged_slices_total"]; got != 1 {
		t.Fatalf("hcapp_cluster_hedged_slices_total = %g, want 1", got)
	}
	if got := m["hcapp_cluster_hedge_wins_total"]; got != 1 {
		t.Fatalf("hcapp_cluster_hedge_wins_total = %g, want 1", got)
	}
}

// TestHedgeDisabled: negative HedgeAfter turns hedging off — the
// resolved delay is 0 and dispatch never arms the hedge timer.
func TestHedgeDisabled(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HedgeAfter: -1, Logf: t.Logf})
	if d := c.hedgeDelay(); d != 0 {
		t.Fatalf("hedgeDelay() = %v with HedgeAfter<0, want 0", d)
	}
}

// TestHedgeDelayAdaptive: with no configured threshold the delay tracks
// 2× the p90 of the shared slice-duration histogram (the same series
// /metrics exports), floored at 500 ms, and falls back to a generous
// default until enough samples exist — or when no metrics are attached
// at all.
func TestHedgeDelayAdaptive(t *testing.T) {
	bare := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	for i := 0; i < 64; i++ {
		bare.observeSliceLatency(100 * time.Millisecond)
	}
	if d := bare.hedgeDelay(); d != 2*time.Second {
		t.Fatalf("hedgeDelay() = %v without metrics, want 2s default", d)
	}

	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf}).
		WithMetrics(NewMetrics(telemetry.NewRegistry()))
	if d := c.hedgeDelay(); d != 2*time.Second {
		t.Fatalf("cold hedgeDelay() = %v, want 2s default", d)
	}
	for i := 0; i < 10; i++ {
		c.observeSliceLatency(100 * time.Millisecond)
	}
	if d := c.hedgeDelay(); d != 500*time.Millisecond {
		t.Fatalf("hedgeDelay() = %v with 100ms latencies, want 500ms floor", d)
	}
	for i := 0; i < 64; i++ {
		c.observeSliceLatency(time.Second)
	}
	// The 1 s samples dominate: the interpolated p90 sits high in the
	// (0.5s, 1s] bucket, so the threshold lands a bit under 2×1s.
	if d := c.hedgeDelay(); d < 1500*time.Millisecond || d > 2*time.Second {
		t.Fatalf("hedgeDelay() = %v with 1s latencies, want ~2×p90 in (1.5s, 2s]", d)
	}
}
