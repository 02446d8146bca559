package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hcapp/internal/experiment"
	"hcapp/internal/telemetry"
)

// TestJobTimeoutFailsJob: a wall-clock JobTimeout must cancel a
// long-running simulation, fail the job with a timeout error, and count
// it under hcapp_jobs_failed_total{reason="timeout"}.
func TestJobTimeoutFailsJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s, ts := testServer(t, Config{Workers: 1, JobTimeout: 25 * time.Millisecond})

	// 60 ms of simulated time takes far longer than 25 ms of wall clock.
	st, resp := postJob(t, ts, JobRequest{Combo: "Low-Low", DurMS: 60})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	final := waitForJob(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("job state = %q, want failed", final.State)
	}
	if !strings.Contains(final.Error, "timeout after 25ms") {
		t.Fatalf("error = %q, want timeout message", final.Error)
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
	if got := m["hcapp_jobs_failed_total{reason=timeout}"]; got != 1 {
		t.Fatalf("timeout failures = %g, want 1 (map keys: %v)", got, keysLike(m, "failed"))
	}
	_ = s
}

// TestZeroJobTimeoutDisablesBound: the default (zero) timeout leaves
// long jobs alone.
func TestZeroJobTimeoutDisablesBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts := testServer(t, Config{Workers: 1})
	st, resp := postJob(t, ts, JobRequest{Combo: "Low-Low", DurMS: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	if final := waitForJob(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("job state = %q (%s), want done", final.State, final.Error)
	}
}

// TestPanicContainedAndClassified: a panicking simulation must fail its
// own job (not the worker goroutine), carry the panic message, and be
// classified under reason "panic".
func TestPanicContainedAndClassified(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	mgr := s.Manager()

	// A nil evaluator panics inside the simulate frame; the recover must
	// convert it into a job error instead of unwinding the worker.
	var ev *experiment.Evaluator
	_, err := mgr.simulate(context.Background(), ev, experiment.RunSpec{}, "test-job")
	if err == nil {
		t.Fatal("panicking simulation returned nil error")
	}
	if !errors.As(err, new(experiment.PanicError)) {
		t.Fatalf("err %T not an experiment.PanicError: %v", err, err)
	}
	if !strings.Contains(err.Error(), "panic:") {
		t.Fatalf("panic error lost its message: %q", err)
	}

	reason, out := mgr.failureReason(err)
	if reason != "panic" || out != err {
		t.Fatalf("classified (%q, %v), want (panic, original error)", reason, out)
	}
}

func TestFailureReasonClassification(t *testing.T) {
	s := New(Config{Workers: 1, JobTimeout: time.Second})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	mgr := s.Manager()

	if reason, err := mgr.failureReason(context.DeadlineExceeded); reason != "timeout" {
		t.Fatalf("deadline classified %q", reason)
	} else if !strings.Contains(err.Error(), "timeout after 1s") {
		t.Fatalf("timeout error = %q", err)
	}
	if reason, _ := mgr.failureReason(experiment.PanicError{Val: "boom"}); reason != "panic" {
		t.Fatalf("panic classified %q", reason)
	}
	if reason, _ := mgr.failureReason(errors.New("bad spec")); reason != "error" {
		t.Fatalf("plain error classified %q", reason)
	}
}

// TestShutdownUnderLoad is the drain-timeout satellite: several queued
// jobs, a generous budget — Shutdown must refuse new work, finish every
// accepted job, and return nil.
func TestShutdownUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		st, resp := postJob(t, ts, JobRequest{Combo: "Low-Low", DurMS: 0.3, Seed: seedOf(int64(i + 1))})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	// A drained server sheds new work with a Retry-After pointing at the
	// replacement process, not the refill interval.
	if _, resp := postJob(t, ts, JobRequest{Combo: "Low-Low", DurMS: 0.3}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d, want 503", resp.StatusCode)
	} else if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Fatalf("post-drain 503 Retry-After = %q, want \"5\"", ra)
	}
	for _, id := range ids {
		j, ok := s.Manager().Get(id)
		if !ok {
			t.Fatalf("job %s lost during drain", id)
		}
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("job %s drained into %q (%s)", id, st.State, st.Error)
		}
	}
}

// TestShutdownBudgetExpires: a budget too small for the in-flight work
// must surface as a deadline error rather than hanging; a second call
// with room to drain then succeeds (the job itself is bounded by
// JobTimeout, so the worker comes back).
func TestShutdownBudgetExpires(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s := New(Config{Workers: 1, JobTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	st, resp := postJob(t, ts, JobRequest{Combo: "Low-Low", DurMS: 60})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	// Give the worker a moment to pick the job up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if j, ok := s.Manager().Get(st.ID); ok {
			if j.Status().State != StateQueued {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	tight, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	err := s.Shutdown(tight)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("tight-budget shutdown err = %v, want deadline exceeded", err)
	}

	wide, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(wide); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if j, _ := s.Manager().Get(st.ID); j.Status().State != StateFailed {
		t.Fatalf("timed-out job ended %q", j.Status().State)
	}
}
