// Package tracing is a stdlib-only distributed span tracer for the
// hcapp job/fleet pipeline. One submitted job (or one fleet batch)
// yields one trace: a parented tree of timed spans covering every
// stage of the request path —
//
//	job                  root: POST /v1/jobs admission to terminal state
//	├── queue-wait       job queue time (submit → worker pickup)
//	└── run              the simulation itself
//	    └── item[i]      one batch work item (a job is a 1-item batch)
//	        └── attempt[n]   one dispatch of the item (retries and
//	            │            hedges are sibling attempts, n increasing)
//	            └── engine   the engine step loop on whichever node ran it
//
// Two properties make the tracer useful in a deterministic
// reproduction repo:
//
//   - Deterministic identity. A trace id is a pure function of the job
//     id, and every span id is a pure function of (trace id, tree
//     path), e.g. "job/run/item[3]/attempt[0]/engine". Coordinator and
//     worker derive the same ids independently, so a span tree
//     assembled from two processes needs no id reconciliation — and the
//     tree *structure* (names and parentage, not durations) is
//     byte-identical across fleet widths and across fleet vs
//     standalone execution, which CI diffs (scripts/ci.sh).
//
//   - Bounded storage. Spans land in an in-memory store capped by
//     trace count (FIFO eviction) and by spans per trace (excess
//     dropped and counted), exposed as GET /v1/traces; a long serving
//     life cannot grow the store without bound.
//
// Trace context crosses the cluster HTTP wire in a W3C
// traceparent-style header plus per-item span references on the batch
// body, so a worker parents its engine spans under the coordinator's
// attempt spans; see docs/TRACING.md.
package tracing

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"time"

	"hcapp/internal/telemetry"
)

// Span is one finished, timed tree node. Spans are immutable once
// recorded; only finished spans enter the store.
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// Name is the stage name with an optional index suffix
	// ("item[3]"); Path is the full slash-joined tree position the
	// span id derives from.
	Name string `json:"name"`
	Path string `json:"path"`
	// JobID tags root spans created for a server job (per-job /v1/traces
	// filtering).
	JobID string `json:"job_id,omitempty"`
	// Attrs carry small facts (worker id, outcome, step count); they
	// never contribute to identity or structure.
	Attrs         map[string]string `json:"attrs,omitempty"`
	StartUnixNano int64             `json:"start_unix_nano"`
	DurationNS    int64             `json:"duration_ns"`
}

// SpanContext is the wire-portable identity of a live span: enough for
// any process to derive child span ids deterministically.
type SpanContext struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Path    string `json:"path"`
}

// Valid reports whether the context names a span.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// TraceIDFor derives the 32-hex trace id for a seed (the job id for
// server jobs, a random token for ad-hoc batches). Deriving instead of
// generating keeps coordinator and workers in agreement without
// shipping the id everywhere the job id already travels.
func TraceIDFor(seed string) string {
	sum := sha256.Sum256([]byte("hcapp-trace|" + seed))
	return hex.EncodeToString(sum[:16])
}

// spanIDFor derives the 16-hex span id from the trace id and the
// span's tree path.
func spanIDFor(traceID, path string) string {
	sum := sha256.Sum256([]byte(traceID + "|" + path))
	return hex.EncodeToString(sum[:8])
}

// Child derives the context a span at path+"/"+name would have — the
// pure-function core StartSpan builds on, exported so tests and remote
// processes can predict ids.
func (sc SpanContext) Child(name string) SpanContext {
	path := name
	if sc.Path != "" {
		path = sc.Path + "/" + name
	}
	return SpanContext{TraceID: sc.TraceID, SpanID: spanIDFor(sc.TraceID, path), Path: path}
}

// Config sizes a Tracer.
type Config struct {
	// MaxTraces bounds retained traces (default 256, FIFO eviction).
	MaxTraces int
	// MaxSpansPerTrace bounds one trace's span count (default 4096);
	// excess spans are dropped and counted on the trace.
	MaxSpansPerTrace int
	// Stages, when non-nil, receives every finished span's duration
	// under its stage label (the span name minus any "[i]" index) —
	// hcapp_stage_duration_seconds in the serve registry.
	Stages *telemetry.HistogramVec
	// Now is the clock (tests inject a fake one).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxTraces <= 0 {
		c.MaxTraces = 256
	}
	if c.MaxSpansPerTrace <= 0 {
		c.MaxSpansPerTrace = 4096
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Tracer creates spans and stores the finished ones. A nil *Tracer is
// valid everywhere and disables tracing: every method no-ops and
// StartRoot/StartSpan return a nil *ActiveSpan whose methods no-op
// too, so call sites need no conditionals.
type Tracer struct {
	cfg Config

	mu     sync.Mutex
	traces map[string]*traceEntry
	order  []string // insertion order, for FIFO eviction and listing
}

type traceEntry struct {
	jobID   string
	spans   []Span
	dropped int
	started time.Time
}

// New builds a tracer.
func New(cfg Config) *Tracer {
	return &Tracer{cfg: cfg.withDefaults(), traces: make(map[string]*traceEntry)}
}

// ActiveSpan is a started, not yet finished span. It is owned by one
// goroutine; End records it into the tracer and returns the finished
// value (shipped over the wire by workers).
type ActiveSpan struct {
	t     *Tracer
	span  Span
	start time.Time
	ended bool
}

// StartRoot opens a trace's root span. traceSeed feeds TraceIDFor;
// jobID (may be empty) tags the trace for /v1/traces?job= filtering.
func (t *Tracer) StartRoot(name, jobID, traceSeed string) *ActiveSpan {
	if t == nil {
		return nil
	}
	traceID := TraceIDFor(traceSeed)
	now := t.cfg.Now()
	return &ActiveSpan{
		t: t,
		span: Span{
			TraceID:       traceID,
			SpanID:        spanIDFor(traceID, name),
			Name:          name,
			Path:          name,
			JobID:         jobID,
			StartUnixNano: now.UnixNano(),
		},
		start: now,
	}
}

// StartSpan opens a child under parent (local or remote — only the
// SpanContext matters).
func (t *Tracer) StartSpan(parent SpanContext, name string) *ActiveSpan {
	if t == nil || !parent.Valid() {
		return nil
	}
	child := parent.Child(name)
	now := t.cfg.Now()
	return &ActiveSpan{
		t: t,
		span: Span{
			TraceID:       child.TraceID,
			SpanID:        child.SpanID,
			ParentID:      parent.SpanID,
			Name:          name,
			Path:          child.Path,
			StartUnixNano: now.UnixNano(),
		},
		start: now,
	}
}

// Context returns the span's wire-portable identity.
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.span.TraceID, SpanID: s.span.SpanID, Path: s.span.Path}
}

// SetAttr attaches one attribute; chainable and nil-safe.
func (s *ActiveSpan) SetAttr(k, v string) *ActiveSpan {
	if s == nil || s.ended {
		return s
	}
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string, 4)
	}
	s.span.Attrs[k] = v
	return s
}

// End finishes the span, records it in the tracer's store, and returns
// the finished value. Ending twice records once.
func (s *ActiveSpan) End() Span {
	if s == nil {
		return Span{}
	}
	if s.ended {
		return s.span
	}
	s.ended = true
	s.span.DurationNS = s.t.cfg.Now().Sub(s.start).Nanoseconds()
	s.t.record(s.span)
	return s.span
}

// StageOf maps a span name to its bounded-cardinality stage label:
// the name minus any "[index]" suffix ("item[12]" → "item").
func StageOf(name string) string {
	if i := strings.IndexByte(name, '['); i > 0 {
		return name[:i]
	}
	return name
}

// record lands one locally finished span: store it and feed the stage
// histogram.
func (t *Tracer) record(s Span) { t.store(s, true) }

// store lands one finished span and, when feedStages is set, observes
// its duration on the stage histogram.
func (t *Tracer) store(s Span, feedStages bool) {
	if t == nil || s.TraceID == "" {
		return
	}
	if feedStages && t.cfg.Stages != nil {
		t.cfg.Stages.With(StageOf(s.Name)).Observe(float64(s.DurationNS) / 1e9)
	}
	t.mu.Lock()
	e, ok := t.traces[s.TraceID]
	if !ok {
		e = &traceEntry{started: t.cfg.Now()}
		t.traces[s.TraceID] = e
		t.order = append(t.order, s.TraceID)
		for len(t.order) > t.cfg.MaxTraces {
			delete(t.traces, t.order[0])
			t.order = t.order[1:]
		}
	}
	if s.JobID != "" && e.jobID == "" {
		e.jobID = s.JobID
	}
	if len(e.spans) >= t.cfg.MaxSpansPerTrace {
		e.dropped++
	} else {
		e.spans = append(e.spans, s)
	}
	t.mu.Unlock()
}

// Ingest stores spans finished elsewhere (a worker's engine spans
// shipped back in a RunResponse). The stage histogram is not fed:
// remote spans were observed on the remote node's histogram already.
func (t *Tracer) Ingest(spans []Span) {
	if t == nil {
		return
	}
	for _, s := range spans {
		if s.TraceID == "" || s.SpanID == "" {
			continue
		}
		t.store(s, false)
	}
}

// Trace returns one trace's spans (nil if unknown) plus its dropped
// count, in recording order.
func (t *Tracer) Trace(traceID string) ([]Span, int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.traces[traceID]
	if !ok {
		return nil, 0
	}
	return append([]Span(nil), e.spans...), e.dropped
}

// TraceForJob finds the trace tagged with jobID. Job ids map 1:1 to
// trace ids (TraceIDFor(jobID)), so this is a direct lookup.
func (t *Tracer) TraceForJob(jobID string) (string, []Span, int) {
	id := TraceIDFor(jobID)
	spans, dropped := t.Trace(id)
	if spans == nil {
		return "", nil, 0
	}
	return id, spans, dropped
}

// TraceSummary is one row of the GET /v1/traces listing.
type TraceSummary struct {
	TraceID string `json:"trace_id"`
	JobID   string `json:"job_id,omitempty"`
	Root    string `json:"root,omitempty"`
	Spans   int    `json:"spans"`
	Dropped int    `json:"dropped,omitempty"`
	// StartUnixNano is the earliest recorded span start.
	StartUnixNano int64 `json:"start_unix_nano,omitempty"`
}

// Traces pages through retained traces in insertion order; next is the
// offset to continue from, or -1 when exhausted.
func (t *Tracer) Traces(offset, limit int) (rows []TraceSummary, next int) {
	if t == nil {
		return nil, -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if offset < 0 {
		offset = 0
	}
	if limit <= 0 {
		limit = 50
	}
	for i := offset; i < len(t.order) && len(rows) < limit; i++ {
		id := t.order[i]
		e := t.traces[id]
		row := TraceSummary{TraceID: id, JobID: e.jobID, Spans: len(e.spans), Dropped: e.dropped}
		for _, s := range e.spans {
			if s.ParentID == "" && row.Root == "" {
				row.Root = s.Name
			}
			if row.StartUnixNano == 0 || s.StartUnixNano < row.StartUnixNano {
				row.StartUnixNano = s.StartUnixNano
			}
		}
		rows = append(rows, row)
	}
	next = offset + len(rows)
	if next >= len(t.order) {
		next = -1
	}
	return rows, next
}

// Len reports retained trace count (eviction tests).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// Outcome is the conventional span outcome attribute value for an
// error: "ok" or "error".
func Outcome(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}
