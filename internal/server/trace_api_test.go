package server

import (
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hcapp/internal/cluster"
	"hcapp/internal/sim"
	"hcapp/internal/tracing"
)

// jobStructure fetches a finished job's canonical span-tree structure
// from GET /v1/traces.
func jobStructure(t *testing.T, ts string, jobID string) string {
	t.Helper()
	resp, err := http.Get(ts + "/v1/traces?job=" + jobID + "&view=structure")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("structure fetch for job %s: status %d", jobID, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// jobStructureGolden is the canonical standalone job tree: admission to
// terminal state, queue time, the run, its single item, one attempt,
// and the engine stage — identical whether a local pool or a fleet
// executed it.
var jobStructureGolden = strings.Join([]string{
	"job",
	"  queue-wait",
	"  run",
	"    item[0]",
	"      attempt[0]",
	"        engine",
	"",
}, "\n")

// TestJobTraceStandalone: a standalone job yields the full canonical
// span tree, reachable by job id on /v1/traces, with no orphans and an
// ok outcome on the root.
func TestJobTraceStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	s, ts := testServer(t, Config{Workers: 1})
	st, resp := postJob(t, ts, JobRequest{Combo: "Low-Low", DurMS: 0.5, Seed: seedOf(1)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	if final := waitForJob(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("job ended %q (%s)", final.State, final.Error)
	}

	if got := jobStructure(t, ts.URL, st.ID); got != jobStructureGolden {
		t.Fatalf("standalone structure:\n%s\nwant:\n%s", got, jobStructureGolden)
	}

	tracer := s.cfg.Tracer
	id, spans, dropped := tracer.TraceForJob(st.ID)
	if id == "" || dropped != 0 {
		t.Fatalf("trace lookup: id %q, dropped %d", id, dropped)
	}
	if orphans := tracing.Orphans(spans); len(orphans) != 0 {
		t.Fatalf("job trace has %d orphans", len(orphans))
	}
	for _, sp := range spans {
		if sp.Name == "job" {
			if sp.Attrs["outcome"] != "ok" || sp.Attrs["state"] != "done" {
				t.Fatalf("root outcome/state = %q/%q, want ok/done", sp.Attrs["outcome"], sp.Attrs["state"])
			}
			if sp.JobID != st.ID {
				t.Fatalf("root job id = %q, want %q", sp.JobID, st.ID)
			}
		}
		if sp.Name == "engine" && sp.Attrs["steps"] == "" {
			t.Fatal("engine span carries no step count")
		}
	}
}

// TestJobTraceFleetMatchesStandalone: the same job delegated through a
// coordinator to a fleet worker produces a byte-identical span-tree
// structure — the acceptance criterion CI re-checks over real
// processes — and an engine span carrying the same attribute keys.
func TestJobTraceFleetMatchesStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations over a local fleet")
	}
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{Logf: t.Logf})
	fleetS, fleetTS := testServer(t, Config{Workers: 2, Cluster: coord})
	startFleetWorker(t, fleetTS.URL, "w-1")
	soloS, soloTS := testServer(t, Config{Workers: 2})

	req := JobRequest{Combo: "Mid-Mid", Scheme: "hcapp", DurMS: 0.5, Seed: seedOf(7)}
	stFleet, _ := postJob(t, fleetTS, req)
	stSolo, _ := postJob(t, soloTS, req)
	if got := waitForJob(t, fleetTS, stFleet.ID); got.State != StateDone {
		t.Fatalf("fleet job ended %q (%s)", got.State, got.Error)
	}
	if got := waitForJob(t, soloTS, stSolo.ID); got.State != StateDone {
		t.Fatalf("standalone job ended %q (%s)", got.State, got.Error)
	}

	fleet := jobStructure(t, fleetTS.URL, stFleet.ID)
	solo := jobStructure(t, soloTS.URL, stSolo.ID)
	if fleet != solo {
		t.Fatalf("fleet structure diverged from standalone:\nfleet:\n%s\nstandalone:\n%s", fleet, solo)
	}
	if fleet != jobStructureGolden {
		t.Fatalf("fleet structure:\n%s\nwant:\n%s", fleet, jobStructureGolden)
	}

	// Both roles stamp the engine span through one helper; ids, timings
	// and values (the worker name) legitimately differ, the keys not.
	fleetKeys := engineAttrKeys(t, fleetS, stFleet.ID)
	if soloKeys := engineAttrKeys(t, soloS, stSolo.ID); !reflect.DeepEqual(fleetKeys, soloKeys) {
		t.Fatalf("engine span attributes diverge: fleet %v, standalone %v", fleetKeys, soloKeys)
	}
}

// engineAttrKeys returns the sorted attribute keys of a job's one
// engine span, as assembled in the server's trace store.
func engineAttrKeys(t *testing.T, s *Server, jobID string) []string {
	t.Helper()
	_, spans, _ := s.cfg.Tracer.TraceForJob(jobID)
	var keys []string
	for _, sp := range spans {
		if sp.Name != "engine" {
			continue
		}
		if keys != nil {
			t.Fatalf("job %s has more than one engine span", jobID)
		}
		keys = []string{}
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
	}
	if keys == nil {
		t.Fatalf("job %s has no engine span", jobID)
	}
	sort.Strings(keys)
	return keys
}

// TestTracesEndpoint: the server-mounted /v1/traces lists traces, pages
// them, and 404s unknown lookups.
func TestTracesEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	_, ts := testServer(t, Config{Workers: 1})
	var ids []string
	for i := 0; i < 3; i++ {
		st, resp := postJob(t, ts, JobRequest{Combo: "Low-Low", DurMS: 0.3, Seed: seedOf(int64(10 + i))})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitForJob(t, ts, id)
	}

	var list struct {
		Traces []tracing.TraceSummary `json:"traces"`
		Next   int                    `json:"next_offset"`
	}
	if resp := getJSON(t, ts.URL+"/v1/traces", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	if len(list.Traces) != 3 || list.Next != -1 {
		t.Fatalf("list = %d traces, next %d", len(list.Traces), list.Next)
	}
	if resp := getJSON(t, ts.URL+"/v1/traces?limit=2", &list); resp.StatusCode != http.StatusOK || len(list.Traces) != 2 || list.Next != 2 {
		t.Fatalf("page 1 = %d traces, next %d", len(list.Traces), list.Next)
	}

	var tr struct {
		TraceID string         `json:"trace_id"`
		Spans   []tracing.Span `json:"spans"`
	}
	if resp := getJSON(t, ts.URL+"/v1/traces?job="+ids[0], &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("job trace status %d", resp.StatusCode)
	}
	if tr.TraceID != tracing.TraceIDFor(ids[0]) || len(tr.Spans) != 6 {
		t.Fatalf("job trace = %q with %d spans, want 6", tr.TraceID, len(tr.Spans))
	}

	resp, err := http.Get(ts.URL + "/v1/traces?job=ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}
}

// TestTraceBufferBulkMatchesSingleSteps pins the bulk observer
// contract for the live trace: one call carrying n identical steps
// must close buckets at the same steps, with the same TNS and means,
// as n single-step calls — here with bucket boundaries falling inside
// the bulk call, and a full buffer dropping the overflow.
func TestTraceBufferBulkMatchesSingleSteps(t *testing.T) {
	const dt = 100 * sim.Nanosecond
	// Steps 1–3 at 0.3 W, then 37 identical steps at 0.7 W: with 10-step
	// buckets the bulk call opens mid-bucket and closes four buckets,
	// the last dropped by a three-sample cap. Neither power sums exactly
	// in binary, so a closed-form bucket sum would show.
	single, bulk := newTraceBuffer(10, 3), newTraceBuffer(10, 3)
	for i := int64(1); i <= 3; i++ {
		single.observe(sim.Time(i)*dt, dt, 1, 0.3)
		bulk.observe(sim.Time(i)*dt, dt, 1, 0.3)
	}
	for i := int64(4); i <= 40; i++ {
		single.observe(sim.Time(i)*dt, dt, 1, 0.7)
	}
	bulk.observe(4*dt, dt, 37, 0.7)

	sp, sn, sd := single.Page(0, 0)
	bp, bn, bd := bulk.Page(0, 0)
	if !reflect.DeepEqual(sp, bp) || sn != bn || sd != bd {
		t.Fatalf("bulk page diverges:\nsingle %v next %d dropped %d\nbulk   %v next %d dropped %d", sp, sn, sd, bp, bn, bd)
	}
	if len(sp) != 3 || sd != 1 || sp[0].TNS != 10*dt {
		t.Fatalf("unexpected buckets %v (dropped %d)", sp, sd)
	}
	st, ss := single.Progress()
	bt, bs := bulk.Progress()
	if st != bt || ss != bs || bt != 40*dt || bs != 40 {
		t.Fatalf("progress: single %d/%d, bulk %d/%d, want %d/40", st, ss, bt, bs, 40*dt)
	}
}
