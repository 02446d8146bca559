package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/sim"
	"hcapp/internal/workload"
)

// runServer serves /v1/cluster/run with a per-attempt script and counts
// attempts.
func runServer(t *testing.T, script func(attempt int64, w http.ResponseWriter, r *http.Request)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		script(attempts.Add(1), w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &attempts
}

func testClient(t *testing.T, base string, delays *[]time.Duration) *Client {
	t.Helper()
	c, err := NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	c.Backoff = recordedBackoff(delays, 0)
	return c
}

func okBody(results int) []byte {
	rr := RunResponse{Results: make([]ItemResult, results)}
	for i := range rr.Results {
		rr.Results[i] = ItemResult{Error: "placeholder"}
	}
	b, _ := json.Marshal(rr)
	return b
}

// TestClientRetriesTruncatedResponse: a response body cut off mid-JSON
// is a transport failure — the client retries the whole batch and
// returns only the complete second response, never a partially
// assembled one.
func TestClientRetriesTruncatedResponse(t *testing.T) {
	full := okBody(2)
	ts, attempts := runServer(t, func(attempt int64, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if attempt == 1 {
			// Declare the full length but send half: the decoder sees
			// io.ErrUnexpectedEOF, exactly what chaos truncation produces.
			w.Header().Set("Content-Length", strconv.Itoa(len(full)))
			w.WriteHeader(http.StatusOK)
			w.Write(full[:len(full)/2])
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write(full)
	})
	var delays []time.Duration
	c := testClient(t, ts.URL, &delays)
	resp, err := c.Run(context.Background(), testParams(), make([]Item, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2 (one truncated, one clean)", got)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("assembled %d results, want 2", len(resp.Results))
	}
	for i, ir := range resp.Results {
		if ir.Error != "placeholder" {
			t.Fatalf("result %d = %+v: partial assembly leaked through", i, ir)
		}
	}
}

// TestClientShortResponseRetried: a well-formed body with the wrong
// result count is treated like truncation — retried, never returned.
func TestClientShortResponseRetried(t *testing.T) {
	ts, attempts := runServer(t, func(attempt int64, w http.ResponseWriter, r *http.Request) {
		if attempt == 1 {
			w.Write(okBody(1)) // 1 result for a 3-item batch
			return
		}
		w.Write(okBody(3))
	})
	var delays []time.Duration
	c := testClient(t, ts.URL, &delays)
	resp, err := c.Run(context.Background(), testParams(), make([]Item, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("assembled %d results, want 3", len(resp.Results))
	}
}

// TestClientHonoursRetryAfter: a 429 with Retry-After floors the next
// delay at the server's hint even when the client's own jittered delay
// would be shorter.
func TestClientHonoursRetryAfter(t *testing.T) {
	ts, _ := runServer(t, func(attempt int64, w http.ResponseWriter, r *http.Request) {
		if attempt == 1 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"throttled"}`))
			return
		}
		w.Write(okBody(1))
	})
	var delays []time.Duration
	c := testClient(t, ts.URL, &delays) // variate 0: own delay would be 0
	if _, err := c.Run(context.Background(), testParams(), make([]Item, 1)); err != nil {
		t.Fatal(err)
	}
	if len(delays) != 1 || delays[0] != 2*time.Second {
		t.Fatalf("recorded delays %v, want exactly [2s] from the Retry-After floor", delays)
	}
}

// TestClientThrottledErrorWraps: exhausting attempts on 429s surfaces
// ErrThrottled so callers can tell backpressure from breakage.
func TestClientThrottledErrorWraps(t *testing.T) {
	ts, attempts := runServer(t, func(attempt int64, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"throttled"}`))
	})
	var delays []time.Duration
	c := testClient(t, ts.URL, &delays)
	c.MaxAttempts = 3
	_, err := c.Run(context.Background(), testParams(), make([]Item, 1))
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("err = %v, want ErrThrottled", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want MaxAttempts=3", got)
	}
}

// TestClientPermanent4xxNotRetried: a 400 is the server's verdict on
// the request — retrying it cannot help, so the client fails fast.
func TestClientPermanent4xxNotRetried(t *testing.T) {
	ts, attempts := runServer(t, func(attempt int64, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad item"}`))
	})
	var delays []time.Duration
	c := testClient(t, ts.URL, &delays)
	if _, err := c.Run(context.Background(), testParams(), make([]Item, 1)); err == nil {
		t.Fatal("bad request succeeded")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no retries on a permanent 4xx)", got)
	}
	if len(delays) != 0 {
		t.Fatalf("client slept %v before a permanent failure", delays)
	}
}

// TestClientRetries5xx: server errors are transient; the client backs
// off and the batch eventually lands.
func TestClientRetries5xx(t *testing.T) {
	ts, attempts := runServer(t, func(attempt int64, w http.ResponseWriter, r *http.Request) {
		if attempt <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"transient"}`))
			return
		}
		w.Write(okBody(1))
	})
	var delays []time.Duration
	c := testClient(t, ts.URL, &delays)
	if _, err := c.Run(context.Background(), testParams(), make([]Item, 1)); err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if len(delays) != 2 {
		t.Fatalf("recorded %d backoff sleeps, want 2", len(delays))
	}
}

// TestRunRemoteRefusesRedefinedCombo: combos travel by name and a worker
// resolves the name to the built-in, so a custom combo that reuses a
// built-in's name must fail in SpecOf before any request is sent — not
// come back as the built-in's result. A renamed-case built-in still
// travels.
func TestRunRemoteRefusesRedefinedCombo(t *testing.T) {
	ts, attempts := runServer(t, func(_ int64, w http.ResponseWriter, _ *http.Request) {
		w.Write(okBody(1))
	})
	c := testClient(t, ts.URL, nil)
	builtin, err := experiment.ComboByName("Hi-Hi")
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := workload.SpecJSON{
		Name: "ferret", Target: "cpu", Class: "Mid", Kind: "steady",
		Phases: 6, PhaseDurUS: 80, IPC: 1.1, MemFrac: 0.3,
		Activity: 0.5, StallAct: 0.1, ActJitter: 0.05,
	}.Benchmark()
	if err != nil {
		t.Fatal(err)
	}
	custom := builtin
	custom.CPU = cpu
	spec := experiment.RunSpec{Combo: custom, Scheme: config.Scheme{Kind: config.FixedVoltage, FixedV: 0.95}, Limit: config.PackagePinLimit()}
	if _, err := SpecOf(spec); err == nil {
		t.Fatal("SpecOf shipped a redefined Hi-Hi under the built-in's name")
	}
	if _, err := c.RunRemote(context.Background(), 42, sim.Millisecond, experiment.DefaultMaxDurFactor, experiment.DefaultFixedV, spec); err == nil {
		t.Fatal("RunRemote returned a result for a redefined Hi-Hi")
	}
	if n := attempts.Load(); n != 0 {
		t.Fatalf("RunRemote sent %d requests for a combo the fleet cannot run", n)
	}
	spec.Combo = builtin
	spec.Combo.Name = "hi-hi"
	if wire, err := SpecOf(spec); err != nil || wire.Combo != "hi-hi" {
		t.Fatalf("SpecOf(built-in Hi-Hi as %q) = %+v, %v", spec.Combo.Name, wire, err)
	}
}
