package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Name is "<layer>.<operation>", where layer is the module the
// call enters (sched, experiment, runner, server, cluster) or "gen" for
// the generator's own work.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Trace  string `json:"trace"`  // one id per job or batch
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent int, trace, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// setSpan sets the times of a span added before its children were known.
func (t *tracer) setSpan(id int, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start, t.spans[id-1].End = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (a poll
// running beside the job it polls) are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Layer string
	Spans int
	Self  time.Duration
	Share float64 // of all self time
}

// layerTable sums self time per layer, largest first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	by := map[string]*layerRow{}
	var total int64
	for _, s := range spans {
		r := by[s.layer()]
		if r == nil {
			r = &layerRow{Layer: s.layer()}
			by[s.layer()] = r
		}
		r.Spans++
		r.Self += time.Duration(self[s.ID])
		total += self[s.ID]
	}
	rows := make([]layerRow, 0, len(by))
	for _, r := range by {
		if total > 0 {
			r.Share = float64(r.Self) / float64(total)
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows
}

// renderLayerTable formats the table for humans.
func renderLayerTable(rows []layerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %14s %7s\n", "layer", "spans", "self_s", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %14.6f %6.1f%%\n", r.Layer, r.Spans, r.Self.Seconds(), 100*r.Share)
	}
	return b.String()
}

// writeTrace writes the spans as JSON and the layer table beside them.
func writeTrace(t *tracer, base string) (string, error) {
	spans := t.snapshot()
	data, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{t.epoch, spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".spans.json", data, 0o644); err != nil {
		return "", err
	}
	table := renderLayerTable(layerTable(spans))
	if err := os.WriteFile(base+".layers.txt", []byte(table), 0o644); err != nil {
		return "", err
	}
	return table, nil
}
