package workload

import (
	"testing"

	"hcapp/internal/analysis"
	"hcapp/internal/sim"
)

// activitySeries samples a benchmark's activity at fmax over several
// trace loops — the signal shape the paper's Table 3 classes describe.
func activitySeries(t *testing.T, name string, fmax float64) []float64 {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Units(42, 8, fmax)[0].Trace
	c := NewCursor(tr, 0)
	span := 3 * tr.LoopDurationAtFmax(fmax)
	step := 10 * sim.Microsecond
	var xs []float64
	for elapsed := sim.Time(0); elapsed < span; elapsed += step {
		xs = append(xs, c.Step(step, fmax, fmax).Activity)
	}
	return xs
}

// TestTable3ClassesAreMeasurable verifies the substitution claim of
// DESIGN.md §1 quantitatively: the synthetic proxies exhibit the
// behaviour classes the paper assigned to the real benchmarks, as
// measured by internal/analysis — not merely asserted by their names.
func TestTable3ClassesAreMeasurable(t *testing.T) {
	cases := []struct {
		bench string
		fmax  float64
		want  analysis.Class
	}{
		// "Burst" benchmarks: long quiet stretches, short tall spikes.
		{"ferret", 2e9, analysis.ClassBursty},
		{"bfs", 700e6, analysis.ClassBursty},
		// "Hi"/"Mid" wave benchmarks: pronounced phases.
		{"fluidanimate", 2e9, analysis.ClassPhased},
		{"backprop", 700e6, analysis.ClassPhased},
		{"sradv2", 700e6, analysis.ClassPhased},
		// "Low"/steady benchmarks: flat at package timescales.
		{"blackscholes", 2e9, analysis.ClassSteady},
		{"swaptions", 2e9, analysis.ClassSteady},
		{"myocyte", 700e6, analysis.ClassSteady},
	}
	for _, c := range cases {
		p := analysis.Analyze(activitySeries(t, c.bench, c.fmax))
		if got := analysis.Classify(p); got != c.want {
			t.Errorf("%s classified as %s, want %s (%s)", c.bench, got, c.want, p)
		}
	}
}

// TestBurstBenchmarksHaveHigherBurstiness orders the classes on the
// continuous burstiness scale as well.
func TestBurstBenchmarksHaveHigherBurstiness(t *testing.T) {
	ferret := analysis.Analyze(activitySeries(t, "ferret", 2e9))
	black := analysis.Analyze(activitySeries(t, "blackscholes", 2e9))
	if ferret.Burstiness <= black.Burstiness {
		t.Fatalf("ferret burstiness %.3f not above blackscholes %.3f",
			ferret.Burstiness, black.Burstiness)
	}
	if ferret.PeakToMean <= black.PeakToMean {
		t.Fatalf("ferret peak/mean %.3f not above blackscholes %.3f",
			ferret.PeakToMean, black.PeakToMean)
	}
}
