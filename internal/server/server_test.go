package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hcapp/internal/experiment"
	"hcapp/internal/sim"
	"hcapp/internal/telemetry"
)

// seedOf builds the explicit-seed pointer JobRequest.Seed wants.
func seedOf(v int64) *int64 { return &v }

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func waitForJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestEndToEnd is the acceptance path: submit a small experiment job
// over HTTP, poll it to completion, check the result against a direct
// internal/experiment run with the same seed, and require /metrics to
// parse as Prometheus text with per-chiplet power gauges.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	_, ts := testServer(t, Config{Workers: 2})

	req := JobRequest{Combo: "Mid-Mid", Scheme: "hcapp", Limit: "package-pin", DurMS: 1, Seed: seedOf(42)}
	st, resp := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %q", st.State)
	}

	final := waitForJob(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job failed: %q", final.Error)
	}
	if final.Result == nil {
		t.Fatal("done job has no result")
	}
	if final.StartedAt == nil || final.EndedAt == nil {
		t.Fatal("done job missing timestamps")
	}
	if final.Steps == 0 || final.SimTimeNS == 0 {
		t.Fatalf("done job shows no progress: steps=%d sim=%d", final.Steps, final.SimTimeNS)
	}

	// The same request straight through internal/experiment must agree
	// exactly: same seed, same duration, one deterministic simulation.
	ev := experiment.NewEvaluator().WithTargetDur(1 * sim.Millisecond)
	ev.Cfg.Seed = 42
	spec, _, err := compile(req, 64*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := final.Result
	if got.MaxWindowPower != want.MaxWindowPower ||
		got.AvgPower != want.AvgPower ||
		got.PPE != want.PPE ||
		got.Violated != want.Violated ||
		got.Completed != want.Completed ||
		got.DurationNS != want.Duration ||
		got.ControlCycles != want.ControlCycles {
		t.Fatalf("served result diverges from direct run:\n got %+v\nwant %+v", got, want)
	}
	for comp, wantT := range want.Completion {
		if got.CompletionNS[comp] != wantT {
			t.Fatalf("completion[%s] = %d, want %d", comp, got.CompletionNS[comp], wantT)
		}
	}

	// Live trace: the job must have published downsampled power samples
	// with positive power.
	var tr traceResponse
	getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/trace", &tr)
	if len(tr.Samples) == 0 {
		t.Fatal("no trace samples")
	}
	for _, s := range tr.Samples[:3] {
		if s.Power <= 0 || s.TNS <= 0 {
			t.Fatalf("bad trace sample %+v", s)
		}
	}
	// Cursor paging.
	var tr2 traceResponse
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%s/trace?offset=%d&limit=5", ts.URL, st.ID, tr.NextOffset-5), &tr2)
	if len(tr2.Samples) != 5 || tr2.NextOffset != tr.NextOffset {
		t.Fatalf("paging: got %d samples, next %d (want 5, %d)", len(tr2.Samples), tr2.NextOffset, tr.NextOffset)
	}

	// /metrics parses as Prometheus text and carries per-chiplet power.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type %q", ct)
	}
	samples, err := telemetry.ParseText(mresp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v", err)
	}
	m := telemetry.GatherMap(samples)
	for _, dom := range []string{"cpu", "gpu", "sha", "mem"} {
		key := fmt.Sprintf("hcapp_domain_power_watts{domain=%s,job=%s}", dom, st.ID)
		if v, ok := m[key]; !ok {
			t.Fatalf("missing per-chiplet power gauge %s in:\n%v", key, keysLike(m, "domain_power"))
		} else if dom != "sha" && v <= 0 {
			// The SHA accelerator may legitimately idle near zero, but
			// CPU/GPU/mem draw real power at this horizon.
			t.Fatalf("%s = %g, want > 0", key, v)
		}
	}
	if m["hcapp_jobs_completed_total{state=done}"] < 1 {
		t.Fatalf("jobs_completed{done} = %g", m["hcapp_jobs_completed_total{state=done}"])
	}
	if m[fmt.Sprintf("hcapp_sim_steps_total{job=%s}", st.ID)] != float64(final.Steps) {
		t.Fatalf("sim_steps_total = %g, want %d",
			m[fmt.Sprintf("hcapp_sim_steps_total{job=%s}", st.ID)], final.Steps)
	}
	if m[fmt.Sprintf("hcapp_power_limit_watts{job=%s,limit=package-pin}", st.ID)] != 100 {
		t.Fatal("power limit gauge missing or wrong")
	}
	// The job families carry the run's duration and the pool's load.
	if m["hcapp_job_duration_seconds_count"] < 1 {
		t.Fatalf("job_duration_seconds_count = %g, want >= 1", m["hcapp_job_duration_seconds_count"])
	}
	if m["hcapp_jobs_running"] != 0 || m["hcapp_jobs_queue_depth"] != 0 {
		t.Fatalf("job gauges nonzero after job completed: running %g, queue depth %g",
			m["hcapp_jobs_running"], m["hcapp_jobs_queue_depth"])
	}
}

func keysLike(m map[string]float64, frag string) []string {
	var out []string
	for k := range m {
		if strings.Contains(k, frag) {
			out = append(out, k)
		}
	}
	return out
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  JobRequest
		want int
	}{
		{"unknown combo", JobRequest{Combo: "Nope-Nope"}, http.StatusBadRequest},
		{"unknown scheme", JobRequest{Combo: "Hi-Hi", Scheme: "psychic"}, http.StatusBadRequest},
		{"unknown limit", JobRequest{Combo: "Hi-Hi", Limit: "vibes"}, http.StatusBadRequest},
		{"negative duration", JobRequest{Combo: "Hi-Hi", DurMS: -3}, http.StatusBadRequest},
		{"oversize duration", JobRequest{Combo: "Hi-Hi", DurMS: 1e9}, http.StatusBadRequest},
		{"bad priority domain", JobRequest{Combo: "Hi-Hi", Priorities: map[string]float64{"fpu": 2}}, http.StatusBadRequest},
		{"bad policy", JobRequest{Combo: "Hi-Hi", Policy: "anarchy"}, http.StatusBadRequest},
		{"bad fixed_v", JobRequest{Combo: "Hi-Hi", Scheme: "fixed-voltage", FixedV: 9}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if _, resp := postJob(t, ts, c.req); resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}

	// Unknown JSON fields are rejected (catches client typos).
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"combo":"Hi-Hi","comboo":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", resp.StatusCode)
	}

	// Rejections are visible in metrics.
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
	if m["hcapp_jobs_rejected_total"] < float64(len(cases)+1) {
		t.Fatalf("jobs_rejected_total = %g, want >= %d", m["hcapp_jobs_rejected_total"], len(cases)+1)
	}
}

func TestNotFoundAndMethods(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	if resp := getJSON(t, ts.URL+"/v1/jobs/deadbeef", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/deadbeef", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST to job resource: %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 3, QueueDepth: 7})
	var h healthzResponse
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.Workers != 3 || h.QueueCap != 7 {
		t.Fatalf("healthz = %+v", h)
	}
	_ = s
}

func TestQueueFullShedsLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	// One worker, tiny queue: flooding must produce 429s, not hangs.
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	sawReject := false
	var ids []string
	for i := 0; i < 6; i++ {
		st, resp := postJob(t, ts, JobRequest{Combo: "Low-Low", DurMS: 2})
		switch resp.StatusCode {
		case http.StatusAccepted:
			ids = append(ids, st.ID)
		case http.StatusTooManyRequests:
			sawReject = true
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Fatalf("429 Retry-After = %q, want \"1\"", ra)
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if !sawReject {
		t.Skip("queue drained faster than the flood; nothing shed")
	}
	for _, id := range ids {
		if st := waitForJob(t, ts, id); st.State != StateDone {
			t.Fatalf("accepted job %s ended %q: %s", id, st.State, st.Error)
		}
	}
}

func TestListOrdersNewestFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts := testServer(t, Config{Workers: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		st, resp := postJob(t, ts, JobRequest{Combo: "Low-Low", DurMS: 0.2, Seed: seedOf(int64(i + 1))})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitForJob(t, ts, id)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 3 {
		t.Fatalf("listed %d jobs", len(list.Jobs))
	}
}

// TestGracefulShutdownDrains submits work, begins shutdown, and expects
// (a) the in-flight job to finish, (b) new submissions to be refused.
func TestGracefulShutdownDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	st, resp := postJob(t, ts, JobRequest{Combo: "Low-Low", DurMS: 0.5})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := s.Manager().Submit(JobRequest{Combo: "Low-Low"}); err != ErrShuttingDown {
		t.Fatalf("post-shutdown submit err = %v", err)
	}
	j, ok := s.Manager().Get(st.ID)
	if !ok {
		t.Fatal("job evicted during shutdown")
	}
	if got := j.Status(); got.State != StateDone {
		t.Fatalf("drained job state = %q (%s)", got.State, got.Error)
	}
}

func TestEvictionBoundsJobTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s, ts := testServer(t, Config{Workers: 1, MaxJobs: 2, QueueDepth: 8})
	var ids []string
	for i := 0; i < 4; i++ {
		st, resp := postJob(t, ts, JobRequest{Combo: "Low-Low", DurMS: 0.1, Seed: seedOf(int64(i + 1))})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
		waitForJob(t, ts, st.ID)
	}
	s.manager.mu.Lock()
	n := len(s.manager.jobs)
	s.manager.mu.Unlock()
	if n > 2 {
		t.Fatalf("job table grew to %d, cap 2", n)
	}
	if _, ok := s.Manager().Get(ids[len(ids)-1]); !ok {
		t.Fatal("newest job evicted")
	}

	// Eviction must also delete the evicted jobs' metric series — the
	// retention cap is what bounds /metrics cardinality.
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
	for _, id := range ids {
		_, retained := s.Manager().Get(id)
		if got := len(keysLike(m, id)) > 0; got != retained {
			t.Errorf("job %s: retained=%v but has metric series=%v (%v)",
				id, retained, got, keysLike(m, id))
		}
	}
}

// TestSeedResolution: an omitted seed defaults to the paper's 42, and an
// explicit 0 stays 0 so served results match a direct seed-0 run.
func TestSeedResolution(t *testing.T) {
	s, _ := testServer(t, Config{Workers: 1})
	j, err := s.Manager().Submit(JobRequest{Combo: "Low-Low", DurMS: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if j.seed != 42 {
		t.Fatalf("default seed = %d, want 42", j.seed)
	}
	j0, err := s.Manager().Submit(JobRequest{Combo: "Low-Low", DurMS: 0.05, Seed: seedOf(0)})
	if err != nil {
		t.Fatal(err)
	}
	if j0.seed != 0 {
		t.Fatalf("explicit seed 0 resolved to %d", j0.seed)
	}
}

// TestSubmitShutdownRace hammers Submit concurrently with Shutdown: the
// admission path must never send on the closed queue (a panic under the
// old unlocked enqueue), accepted jobs must all drain, and losers must
// see ErrShuttingDown or ErrQueueFull — nothing else.
func TestSubmitShutdownRace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for round := 0; round < 4; round++ {
		s := New(Config{Workers: 2, QueueDepth: 2})
		var wg sync.WaitGroup
		start := make(chan struct{})
		var accepted sync.Map
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 16; i++ {
					j, err := s.Manager().Submit(JobRequest{Combo: "Low-Low", DurMS: 0.05})
					switch err {
					case nil:
						accepted.Store(j.id, j)
					case ErrQueueFull, ErrShuttingDown:
					default:
						t.Errorf("submit: %v", err)
					}
				}
			}()
		}
		close(start)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		cancel()
		wg.Wait()
		accepted.Range(func(_, v any) bool {
			if st := v.(*Job).Status(); st.State != StateDone {
				t.Errorf("accepted job %s ended %q: %s", st.ID, st.State, st.Error)
			}
			return true
		})
	}
}
