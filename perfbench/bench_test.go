package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestServeSchedule(t *testing.T) {
	s := serveSchedule(7, 2*time.Second, 30)
	if len(s) != 60 {
		t.Fatalf("2 s at 30/s: got %d jobs, want 60", len(s))
	}
	gap := time.Second / 30
	seeds := map[int64]bool{}
	for i, j := range s {
		if want := time.Duration(i) * gap; j.Offset < want-time.Nanosecond || j.Offset > want+time.Nanosecond {
			t.Fatalf("job %d due at %v, want %v", i, j.Offset, want)
		}
		if seeds[j.Seed] || j.Seed < 0 {
			t.Fatalf("job %d seed %d repeated or negative", i, j.Seed)
		}
		seeds[j.Seed] = true
	}
	// The combos cycle the eight Table 3 combos in order.
	for i := 8; i < len(s); i++ {
		if s[i].Combo != s[i-8].Combo || s[i].Combo == s[i-1].Combo {
			t.Fatalf("job %d combo %s breaks the 8-combo cycle", i, s[i].Combo)
		}
	}
	again := serveSchedule(7, 2*time.Second, 30)
	other := serveSchedule(8, 2*time.Second, 30)
	for i := range s {
		if again[i] != s[i] {
			t.Fatalf("schedule not a function of the seed at job %d", i)
		}
	}
	if other[0].Seed == s[0].Seed || other[0].Combo == s[0].Combo {
		t.Fatalf("seeds 7 and 8 give the same first job %+v", s[0])
	}
}

func TestPickTail(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	tl := pickTail(xs)
	// Rank n-10 = 90 of 100: the 90th percentile, with 91..100 beyond.
	if tl.Value != 90 || tl.Pct != 90 || tl.Beyond != 10 || tl.N != 100 || tl.Short {
		t.Fatalf("tail of 1..100 = %+v, want value 90 at p90 with 10 beyond", tl)
	}
	beyond := 0
	for _, x := range xs {
		if x > tl.Value {
			beyond++
		}
	}
	if beyond != tailMinBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailMinBeyond)
	}
	tl = pickTail(xs[:11]) // 100..90
	if tl.Value != 90 || tl.Beyond != 10 || tl.Short {
		t.Fatalf("tail of 11 samples = %+v, want the minimum with 10 beyond", tl)
	}
	tl = pickTail([]float64{3, 1, 2})
	if !tl.Short || tl.Value != 3 || tl.N != 3 {
		t.Fatalf("tail of 3 samples = %+v, want the flagged maximum", tl)
	}
	if !math.IsNaN(pickTail(nil).Value) {
		t.Fatal("tail of no samples should be NaN")
	}
}

func TestWindowTail(t *testing.T) {
	// Five windows of 20 samples 1..20; one window also holds a burst of
	// 15 slow samples. Each quiet window's tail is rank 10 of 20 (value
	// 10, p50, 10 beyond); the burst window's is larger, and the median
	// window ignores it.
	var xs []float64
	for w := 0; w < tailWindows; w++ {
		for i := 1; i <= 20; i++ {
			x := float64(i)
			if w == 2 && i > 5 {
				x += 1000
			}
			xs = append(xs, x)
		}
	}
	tl := windowTail(xs)
	if tl.Value != 10 || tl.Pct != 50 || tl.N != 20 || tl.Beyond != 10 || tl.Windows != tailWindows || tl.Short {
		t.Fatalf("window tail = %+v, want value 10 at p50 of n=20, median of %d windows", tl, tailWindows)
	}
	if whole := pickTail(xs); whole.Value < 1000 {
		t.Fatalf("run-wide tail %+v should sit in the burst", whole)
	}
	// Windows of 10 samples cannot have 10 beyond: the run-wide pick.
	short := xs[:10*tailWindows]
	if tl := windowTail(short); tl != pickTail(short) {
		t.Fatalf("window tail of %d samples = %+v, want the run-wide %+v", len(short), tl, pickTail(short))
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("median")
	}
	if percentile(xs, 95) != 5 || percentile(xs, 40) != 2 || percentile(xs, 41) != 3 {
		t.Fatal("nearest-rank percentile")
	}
	if xs[0] != 5 {
		t.Fatal("percentile sorted the caller's slice")
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) with children [10,30) and [20,50) overlapping, and
	// [90,120) running past the root's end; grandchild [12,18) of the
	// first child.
	spans := []span{
		{ID: 1, Name: "server.job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.run", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "server.poll", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "gen.lag", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "sched.run", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	rows := layerTable(spans)
	got := map[string]time.Duration{}
	for _, r := range rows {
		got[r.Layer] = r.Self
	}
	if got["server"] != 50+14+30 || got["gen"] != 30 || got["sched"] != 6 {
		t.Errorf("layer self times %v", got)
	}
	if rows[0].Layer != "server" {
		t.Errorf("largest layer first, got %s", rows[0].Layer)
	}
}

// The metric lists the code reports must be exactly BENCHMARK.json's.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, js []struct{ Name, Unit string }, code []metricDef) {
		if len(js) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", what, len(js), len(code))
		}
		for i := range js {
			if js[i].Name != code[i].Name || js[i].Unit != code[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, code %s %s", what, i, js[i].Name, js[i].Unit, code[i].Name, code[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("workloads: BENCHMARK.json %d, code %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, code %s", i, w.Name, workloadOrder[i])
		}
	}
}
