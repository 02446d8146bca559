// Package telemetry is a stdlib-only metrics subsystem in the shape of a
// Prometheus client library: a Registry of counter, gauge and histogram
// families with labels, rendered in the Prometheus text exposition
// format (version 0.0.4).
//
// It exists so the simulation hot path — the 100 ns engine step, executed
// tens of millions of times per run — can be instrumented without
// measurable slowdown:
//
//   - updates on an obtained handle (*Counter, *Gauge, *Histogram) are
//     single atomic operations, zero allocations;
//   - label resolution (Vec.With) is a sharded hash-map lookup guarded by
//     per-shard RWMutexes, so concurrent jobs publishing under different
//     label sets do not serialize on one lock;
//   - rendering walks a consistent snapshot without stopping writers;
//   - series can be deleted (Vec.Delete, Vec.DeletePartialMatch), so a
//     long-lived server can bound label cardinality by dropping series
//     it retires (e.g. all of an evicted job's metrics).
//
// Typical use:
//
//	reg := telemetry.NewRegistry()
//	power := reg.Gauge("hcapp_domain_power_watts",
//	    "Per-domain power.", "job", "domain")
//	g := power.With("job-1", "cpu") // resolve once, outside the hot loop
//	g.Set(42.0)                     // hot path: one atomic store
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 with atomic load/store/add, stored as IEEE 754
// bits in a uint64.
type atomicFloat struct {
	bits atomic.Uint64
}

func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// Store sets v. A gauge fed every engine step mostly repeats its last
// value, so an unchanged value skips the locked write: the load that
// saw it is as good a linearization point as the store would have been.
func (a *atomicFloat) Store(v float64) {
	b := math.Float64bits(v)
	if a.bits.Load() != b {
		a.bits.Store(b)
	}
}

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Kind is a metric family's type.
type Kind string

// The supported metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// numShards splits each family's series map to spread lock contention
// across concurrently-publishing jobs. Power of two for cheap masking.
const numShards = 16

// shard is one slice of a family's label-set → series map.
type shard struct {
	mu     sync.RWMutex
	series map[string]*series
}

// series is one labelled sample stream inside a family.
type series struct {
	labelValues []string
	val         atomicFloat // counter / gauge value
	hist        *histogram  // non-nil for histogram families
}

// family is one named metric with a fixed label schema.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, sorted, no +Inf
	shards  [numShards]shard
}

// seriesKey joins label values with a separator that cannot appear
// unescaped in a label value boundary. Model byte 0xFF is invalid UTF-8,
// so two different value tuples cannot collide.
func seriesKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0xFF)
		}
		b = append(b, v...)
	}
	return string(b)
}

// fnv1a hashes a series key for shard selection.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// with resolves (creating if needed) the series for a label-value tuple.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label value(s), got %d",
			f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	sh := &f.shards[fnv1a(key)&(numShards-1)]
	sh.mu.RLock()
	s := sh.series[key]
	sh.mu.RUnlock()
	if s != nil {
		return s
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s = sh.series[key]; s != nil {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		s.hist = newHistogram(f.buckets)
	}
	if sh.series == nil {
		sh.series = make(map[string]*series)
	}
	sh.series[key] = s
	return s
}

// remove deletes the series for an exact label-value tuple, reporting
// whether it existed.
func (f *family) remove(values []string) bool {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label value(s), got %d",
			f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	sh := &f.shards[fnv1a(key)&(numShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.series[key]; !ok {
		return false
	}
	delete(sh.series, key)
	return true
}

// removeMatching deletes every series whose labels agree with match
// (label name → required value), returning how many were dropped. A
// label name the family does not carry matches nothing.
func (f *family) removeMatching(match map[string]string) int {
	idxs := make([]int, 0, len(match))
	vals := make([]string, 0, len(match))
	for name, v := range match {
		i := -1
		for k, l := range f.labels {
			if l == name {
				i = k
				break
			}
		}
		if i < 0 {
			return 0
		}
		idxs = append(idxs, i)
		vals = append(vals, v)
	}
	n := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for key, s := range sh.series {
			matched := true
			for k, li := range idxs {
				if s.labelValues[li] != vals[k] {
					matched = false
					break
				}
			}
			if matched {
				delete(sh.series, key)
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// snapshot returns the family's series sorted by label values.
func (f *family) snapshot() []*series {
	var out []*series
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelValues, out[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// Registry holds metric families and renders them for scraping.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // sorted family names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family or returns the existing one after a schema
// check. Re-registering with a different kind or label set is a
// programming error and panics, mirroring prometheus/client_golang.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
	}
	r.families[name] = f
	i := sort.SearchStrings(r.names, name)
	r.names = append(r.names, "")
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = name
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" { // "le" is reserved for histogram buckets
		return false
	}
	for i, c := range s {
		letter := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// CounterVec is a family of monotonically increasing counters.
type CounterVec struct{ f *family }

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, nil, labels)}
}

// With resolves the counter for a label-value tuple. Resolve once and
// keep the handle: updates on the handle are allocation-free.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return (*Counter)(v.f.with(labelValues))
}

// Delete drops the series for an exact label-value tuple, reporting
// whether it existed. Previously resolved handles keep working but
// update a detached series that never renders again; a later With for
// the same tuple starts a fresh series at zero.
func (v *CounterVec) Delete(labelValues ...string) bool { return v.f.remove(labelValues) }

// DeletePartialMatch drops every series whose labels agree with match
// (label name → required value), returning how many were dropped —
// e.g. all of a job's series across its label cardinality. See Delete
// for the effect on outstanding handles.
func (v *CounterVec) DeletePartialMatch(match map[string]string) int {
	return v.f.removeMatching(match)
}

// Counter is one labelled counter series.
type Counter series

// Inc adds 1.
func (c *Counter) Inc() { c.val.Add(1) }

// Add adds v; negative v panics (counters are monotonic).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("telemetry: counter decrease")
	}
	c.val.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.val.Load() }

// GaugeVec is a family of gauges.
type GaugeVec struct{ f *family }

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, nil, labels)}
}

// With resolves the gauge for a label-value tuple.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return (*Gauge)(v.f.with(labelValues))
}

// Delete drops the series for an exact label-value tuple; see
// CounterVec.Delete for semantics.
func (v *GaugeVec) Delete(labelValues ...string) bool { return v.f.remove(labelValues) }

// DeletePartialMatch drops every series whose labels agree with match;
// see CounterVec.DeletePartialMatch for semantics.
func (v *GaugeVec) DeletePartialMatch(match map[string]string) int {
	return v.f.removeMatching(match)
}

// Gauge is one labelled gauge series.
type Gauge series

// Set stores v — one atomic store.
func (g *Gauge) Set(v float64) { g.val.Store(v) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) { g.val.Add(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.val.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.val.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.val.Load() }
