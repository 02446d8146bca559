package tracing

import (
	"fmt"
	"strings"
	"testing"
)

// TestMaxTracesFIFOEviction: the store retains at most MaxTraces
// traces, evicting the oldest first — a long serving life cannot grow
// the store without bound.
func TestMaxTracesFIFOEviction(t *testing.T) {
	tr, _ := newTestTracer(Config{MaxTraces: 3})
	for i := 0; i < 5; i++ {
		tr.StartRoot("job", fmt.Sprintf("job-%d", i), fmt.Sprintf("job-%d", i)).End()
	}
	if got := tr.Len(); got != 3 {
		t.Fatalf("retained %d traces, want 3", got)
	}
	// The two oldest are gone, the three newest remain.
	for i := 0; i < 2; i++ {
		if _, spans, _ := tr.TraceForJob(fmt.Sprintf("job-%d", i)); spans != nil {
			t.Fatalf("job-%d survived eviction", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, spans, _ := tr.TraceForJob(fmt.Sprintf("job-%d", i)); len(spans) != 1 {
			t.Fatalf("job-%d evicted too early", i)
		}
	}
}

// TestMaxSpansPerTraceDropped: spans beyond the per-trace cap are
// dropped and counted rather than stored.
func TestMaxSpansPerTraceDropped(t *testing.T) {
	tr, _ := newTestTracer(Config{MaxSpansPerTrace: 4})
	root := tr.StartRoot("job", "j", "j")
	for i := 0; i < 6; i++ {
		tr.StartSpan(root.Context(), fmt.Sprintf("item[%d]", i)).End()
	}
	root.End()
	spans, dropped := tr.Trace(TraceIDFor("j"))
	if len(spans) != 4 {
		t.Fatalf("stored %d spans, want 4", len(spans))
	}
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3 (items 4, 5 and the late root)", dropped)
	}
}

// writeTrace records one trace of n spans under seed: a root and n-1
// children, the root ended last as a job or batch root is.
func writeTrace(tr *Tracer, seed string, n int) {
	root := tr.StartRoot("batch", seed, seed)
	for i := 1; i < n; i++ {
		tr.StartSpan(root.Context(), fmt.Sprintf("item[%d]", i)).End()
	}
	root.End()
}

// storedSpans checks the store's running span count against its traces
// and returns it.
func storedSpans(t *testing.T, tr *Tracer) int {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, e := range tr.traces {
		n += len(e.spans)
	}
	if n != tr.spans {
		t.Fatalf("store counts %d spans, its traces hold %d", tr.spans, n)
	}
	return n
}

// TestSpanBudgetEvictsOldestWholeTraces: past its span budget (MaxTraces
// served-job traces of six spans) the store evicts the oldest traces
// whole, never truncating one, until the rest fit.
func TestSpanBudgetEvictsOldestWholeTraces(t *testing.T) {
	tr, _ := newTestTracer(Config{MaxTraces: 4}) // budget 24 spans
	for i := 0; i < 4; i++ {
		writeTrace(tr, fmt.Sprintf("t%d", i), 6)
	}
	if n := storedSpans(t, tr); tr.Len() != 4 || n != 24 {
		t.Fatalf("four six-span traces: kept %d traces, %d spans; want 4, 24", tr.Len(), n)
	}
	writeTrace(tr, "big", 10) // 34 spans: t0 and t1 must go
	for i, want := range []int{0, 0, 6, 6} {
		if spans, _ := tr.Trace(TraceIDFor(fmt.Sprintf("t%d", i))); len(spans) != want {
			t.Fatalf("t%d keeps %d spans, want %d", i, len(spans), want)
		}
	}
	if spans, _ := tr.Trace(TraceIDFor("big")); len(spans) != 10 {
		t.Fatalf("newest trace keeps %d of its 10 spans", len(spans))
	}
	if n := storedSpans(t, tr); n != 22 {
		t.Fatalf("store holds %d spans, want 22", n)
	}
}

// TestSpanBudgetNeverEvictsTheTraceBeingWritten: a span landing in an
// older trace still being written evicts the next oldest instead, and a
// trace alone larger than the budget evicts every other trace but stays
// whole itself.
func TestSpanBudgetNeverEvictsTheTraceBeingWritten(t *testing.T) {
	tr, _ := newTestTracer(Config{MaxTraces: 2}) // budget 12 spans
	open := tr.StartRoot("batch", "open", "open")
	item := func(i int) { tr.StartSpan(open.Context(), fmt.Sprintf("item[%d]", i)).End() }
	for i := 0; i < 4; i++ {
		item(i)
	}
	writeTrace(tr, "a", 6)
	for i := 4; i < 7; i++ {
		item(i) // the 13th span: a goes, not the older open batch
	}
	if spans, _ := tr.Trace(TraceIDFor("open")); len(spans) != 7 || tr.Len() != 1 {
		t.Fatalf("open batch keeps %d of 7 spans among %d traces, want all 7, alone", len(spans), tr.Len())
	}
	writeTrace(tr, "huge", 20)
	if spans, _ := tr.Trace(TraceIDFor("huge")); len(spans) != 20 || tr.Len() != 1 {
		t.Fatalf("huge trace keeps %d of 20 spans among %d traces, want all 20, alone", len(spans), tr.Len())
	}
	storedSpans(t, tr)
}

// TestSpanBudgetKeepsDroppedCounts: spans dropped over MaxSpansPerTrace
// are counted on their trace but take no budget, and evicting a trace
// takes only its stored spans off the running count.
func TestSpanBudgetKeepsDroppedCounts(t *testing.T) {
	tr, _ := newTestTracer(Config{MaxTraces: 2, MaxSpansPerTrace: 4}) // budget 12 spans
	writeTrace(tr, "a", 7)                                            // 4 stored, 3 dropped
	writeTrace(tr, "b", 6)                                            // 4 stored, 2 dropped
	if n := storedSpans(t, tr); n != 8 {
		t.Fatalf("store holds %d spans, want 8", n)
	}
	rows, _ := tr.Traces(0, 0)
	if len(rows) != 2 || rows[0].Dropped != 3 || rows[1].Dropped != 2 {
		t.Fatalf("rows = %+v, want dropped 3 and 2", rows)
	}
	writeTrace(tr, "c", 3) // a third trace: a goes whole
	rows, _ = tr.Traces(0, 0)
	if len(rows) != 2 || rows[0].JobID != "b" || rows[0].Dropped != 2 || rows[1].Spans != 3 || rows[1].Dropped != 0 {
		t.Fatalf("rows = %+v, want b (2 dropped) then c (3 spans)", rows)
	}
	if n := storedSpans(t, tr); n != 7 {
		t.Fatalf("store holds %d spans, want 7", n)
	}
}

// TestDefaultStoreKeepsServedJobs: at the defaults the span budget is
// exactly 256 six-span served-job traces, so bounding by spans keeps
// as many served jobs as bounding by traces did.
func TestDefaultStoreKeepsServedJobs(t *testing.T) {
	tr, _ := newTestTracer(Config{})
	job := func(id string) {
		root := tr.StartRoot("job", id, id)
		tr.StartSpan(root.Context(), "queue-wait").End()
		run := tr.StartSpan(root.Context(), "run")
		item := tr.StartSpan(run.Context(), "item[0]")
		att := tr.StartSpan(item.Context(), "attempt[0]")
		tr.StartSpan(att.Context(), "engine").End()
		att.End()
		item.End()
		run.End()
		root.End()
	}
	for i := 0; i <= 256; i++ {
		job(fmt.Sprintf("job-%d", i))
	}
	if tr.Len() != 256 {
		t.Fatalf("kept %d served jobs, want 256", tr.Len())
	}
	if _, spans, _ := tr.TraceForJob("job-0"); spans != nil {
		t.Fatal("oldest job survived")
	}
	for i := 1; i <= 256; i++ {
		if _, spans, _ := tr.TraceForJob(fmt.Sprintf("job-%d", i)); len(spans) != 6 {
			t.Fatalf("job-%d keeps %d of its 6 spans", i, len(spans))
		}
	}
}

func TestTracesPaging(t *testing.T) {
	tr, _ := newTestTracer(Config{})
	if rows, next := tr.Traces(0, 10); len(rows) != 0 || next != -1 {
		t.Fatalf("empty store paged (%d rows, next %d)", len(rows), next)
	}
	for i := 0; i < 5; i++ {
		tr.StartRoot("job", fmt.Sprintf("job-%d", i), fmt.Sprintf("job-%d", i)).End()
	}

	rows, next := tr.Traces(0, 2)
	if len(rows) != 2 || next != 2 {
		t.Fatalf("page 1: %d rows, next %d", len(rows), next)
	}
	if rows[0].JobID != "job-0" || rows[0].Root != "job" || rows[0].Spans != 1 {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	if rows[0].StartUnixNano == 0 {
		t.Fatal("row 0 carries no start time")
	}
	rows, next = tr.Traces(next, 2)
	if len(rows) != 2 || next != 4 {
		t.Fatalf("page 2: %d rows, next %d", len(rows), next)
	}
	rows, next = tr.Traces(next, 2)
	if len(rows) != 1 || next != -1 {
		t.Fatalf("last page: %d rows, next %d (want 1, -1)", len(rows), next)
	}

	// Default limit covers everything here.
	if rows, next := tr.Traces(0, 0); len(rows) != 5 || next != -1 {
		t.Fatalf("default limit: %d rows, next %d", len(rows), next)
	}
	var nilT *Tracer
	if rows, next := nilT.Traces(0, 0); rows != nil || next != -1 {
		t.Fatal("nil tracer paged")
	}
}

func TestTraceForJob(t *testing.T) {
	tr, _ := newTestTracer(Config{})
	root := tr.StartRoot("job", "job-42", "job-42")
	tr.StartSpan(root.Context(), "run").End()
	root.End()

	id, spans, dropped := tr.TraceForJob("job-42")
	if id != TraceIDFor("job-42") {
		t.Fatalf("trace id %q", id)
	}
	if len(spans) != 2 || dropped != 0 {
		t.Fatalf("%d spans, %d dropped", len(spans), dropped)
	}
	if id, spans, _ := tr.TraceForJob("no-such-job"); id != "" || spans != nil {
		t.Fatalf("unknown job returned (%q, %d spans)", id, len(spans))
	}
}

// TestStructure: the canonical rendering is id-free, indents by depth,
// sorts numeric indices numerically, and flags orphans — the exact
// output CI diffs across fleet widths.
func TestStructure(t *testing.T) {
	tr, _ := newTestTracer(Config{})
	root := tr.StartRoot("job", "j", "j")
	run := tr.StartSpan(root.Context(), "run")
	// End items out of order and with 2-digit indices to exercise the
	// numeric sibling sort (item[10] after item[9], not after item[1]).
	for _, i := range []int{10, 2, 0, 9, 1} {
		item := tr.StartSpan(run.Context(), fmt.Sprintf("item[%d]", i))
		att := tr.StartSpan(item.Context(), "attempt[0]")
		tr.StartSpan(att.Context(), "engine").End()
		att.End()
		item.End()
	}
	run.End()
	tr.StartSpan(root.Context(), "queue-wait").End()
	root.End()

	spans, _ := tr.Trace(TraceIDFor("j"))
	got := Structure(spans)
	want := strings.Join([]string{
		"job",
		"  queue-wait",
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
		"    item[9]",
		"      attempt[0]",
		"        engine",
		"    item[10]",
		"      attempt[0]",
		"        engine",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("structure:\n%s\nwant:\n%s", got, want)
	}
	if orphans := Orphans(spans); len(orphans) != 0 {
		t.Fatalf("complete trace has %d orphans", len(orphans))
	}
}

// TestStructureOrphans: a span whose parent is missing renders under
// the orphan marker and is returned by Orphans — the integrity signal
// the chaos propagation test asserts never fires on assembled traces.
func TestStructureOrphans(t *testing.T) {
	tr, _ := newTestTracer(Config{})
	root := tr.StartRoot("job", "j", "j")
	// An engine span whose attempt parent never landed in this store.
	ghost := root.Context().Child("run").Child("item[0]").Child("attempt[0]")
	tr.Ingest([]Span{{
		TraceID: ghost.TraceID, SpanID: ghost.Child("engine").SpanID,
		ParentID: ghost.SpanID, Name: "engine", Path: ghost.Child("engine").Path,
	}})
	root.End()

	spans, _ := tr.Trace(TraceIDFor("j"))
	got := Structure(spans)
	if !strings.Contains(got, "orphan: job/run/item[0]/attempt[0]/engine") {
		t.Fatalf("orphan not flagged:\n%s", got)
	}
	orphans := Orphans(spans)
	if len(orphans) != 1 || orphans[0].Name != "engine" {
		t.Fatalf("Orphans = %+v", orphans)
	}
}
