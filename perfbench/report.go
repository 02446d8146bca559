package main

import (
	"fmt"
	"math"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. error_frac is not among them: it is 0 on a healthy run,
// so it travels as the result line's failed/attempted counts instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_ms_per_s", "ms/s"},
	{"latency_p50_s", "s"},
	{"latency_tail_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per module, plus
// the open-loop generator's own lateness (a check on the generator, not
// on the system) and the cost of tracing itself.
var perLayer = []metricDef{
	{"gen_lag_p95_s", "s"},
	{"sched.ns_per_step", "ns"},
	{"sched.strided_frac", "ratio"},
	{"sched.steps", "count"},
	{"sched.control_cycles", "count"},
	{"experiment.sizing_s", "s"},
	{"experiment.build_s", "s"},
	{"experiment.run_s", "s"},
	{"experiment.reduce_s", "s"},
	{"experiment.render_s", "s"},
	{"experiment.cache_hit_frac", "ratio"},
	{"runner.busy_frac", "ratio"},
	{"runner.wait_p50_s", "s"},
	{"runner.tail_s", "s"},
	{"server.submit_p50_s", "s"},
	{"server.queue_wait_p50_s", "s"},
	{"server.queue_wait_tail_s", "s"},
	{"server.run_p50_s", "s"},
	{"server.run_tail_s", "s"},
	{"server.poll_p50_s", "s"},
	{"server.scrape_p50_s", "s"},
	{"server.refused_frac", "ratio"},
	{"server.observer_overhead_frac", "ratio"},
	{"cluster.batch_cold_s", "s"},
	{"cluster.batch_hot_s", "s"},
	{"cluster.slice_p50_s", "s"},
	{"cluster.worker_busy_frac", "ratio"},
	{"cluster.dispatch_gap_s", "s"},
	{"cluster.wire_bytes_per_item", "B"},
	{"cluster.cache_hit_frac", "ratio"},
	{"cluster.hedge_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one pass's metrics, operation counts and failures. It
// belongs to the goroutine running the pass.
type report struct {
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	errs      []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

// set records a metric; note is printed beside it.
func (r *report) set(name string, v float64, note string) {
	unitOf(name) // every metric must be declared
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// setTail records a tail metric with its percentile and sample count.
func (r *report) setTail(name string, t tail) {
	note := fmt.Sprintf("p%.2f of n=%d, %d beyond", t.Pct, t.N, t.Beyond)
	if t.Windows > 0 {
		note = fmt.Sprintf("median of %d windows' p%.2f, each of n>=%d with %d beyond", t.Windows, t.Pct, t.N, t.Beyond)
	}
	if t.Short {
		note = fmt.Sprintf("max of n=%d: too few samples for 10 beyond any percentile", t.N)
	}
	r.set(name, t.Value, note)
}

// ok counts a successful operation.
func (r *report) ok() { r.attempted++ }

// fail counts a failed, refused or wrong operation.
func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// check counts an operation that failed iff err is non-nil.
func (r *report) check(err error) {
	if err != nil {
		r.fail("%v", err)
		return
	}
	r.ok()
}

// absorb adds another pass's counts and failures, and its metrics when
// withValues is set.
func (r *report) absorb(o *report, withValues bool) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
	if withValues {
		for k, v := range o.values {
			r.values[k] = v
		}
		for k, v := range o.notes {
			r.notes[k] = v
		}
	}
}

// result renders the metrics of defs as the result line's map and the
// human-readable lines, reporting any that are missing or not finite.
func (r *report) result(defs []metricDef) (map[string]metric, string, error) {
	out := map[string]metric{}
	var b strings.Builder
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(&b, "%-30s %16.9g %-6s %s\n", d.Name, v, d.Unit, r.notes[d.Name])
	}
	if len(missing) > 0 {
		return nil, b.String(), fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, b.String(), nil
}
