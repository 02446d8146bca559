package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hcapp/internal/sim"
)

func TestNewRecorderErrors(t *testing.T) {
	if _, err := NewRecorder(0); err == nil {
		t.Fatal("zero timestep accepted")
	}
	if _, err := NewRecorder(-5); err == nil {
		t.Fatal("negative timestep accepted")
	}
}

func TestMustRecorderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRecorder did not panic")
		}
	}()
	MustRecorder(0)
}

func TestAvgPower(t *testing.T) {
	r := MustRecorder(100)
	for _, p := range []float64{10, 20, 30} {
		r.Record(p)
	}
	if got := r.AvgPower(); got != 20 {
		t.Fatalf("AvgPower = %g", got)
	}
	if r.Steps() != 3 {
		t.Fatalf("Steps = %d", r.Steps())
	}
	if r.Duration() != 300 {
		t.Fatalf("Duration = %d", r.Duration())
	}
	if r.DT() != 100 {
		t.Fatalf("DT = %d", r.DT())
	}
}

func TestAvgPowerEmpty(t *testing.T) {
	r := MustRecorder(100, 1000)
	if got := r.AvgPower(); got != 0 {
		t.Fatalf("empty AvgPower = %g", got)
	}
	if got := r.MaxWindowAvg(1000); got != 0 {
		t.Fatalf("empty MaxWindowAvg = %g", got)
	}
}

func TestPPE(t *testing.T) {
	// Eq. 4: PPE = AveragePower / SystemProvisionedPower.
	r := MustRecorder(100)
	for i := 0; i < 10; i++ {
		r.Record(80)
	}
	if got := r.PPE(100); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("PPE = %g, want 0.8", got)
	}
	if !math.IsNaN(r.PPE(0)) {
		t.Fatal("PPE with zero provisioned power should be NaN")
	}
}

func TestMaxWindowAvgExact(t *testing.T) {
	r := MustRecorder(100, 500, 1000, sim.Second)
	// 10 steps at 50 W, then 5 steps at 150 W, then 10 at 50 W.
	for i := 0; i < 10; i++ {
		r.Record(50)
	}
	for i := 0; i < 5; i++ {
		r.Record(150)
	}
	for i := 0; i < 10; i++ {
		r.Record(50)
	}
	// Window of 5 steps (500 ns) catches the full burst.
	if got := r.MaxWindowAvg(500); got != 150 {
		t.Fatalf("5-step window max = %g, want 150", got)
	}
	// Window of 10 steps: best case 5×150 + 5×50 = 100.
	if got := r.MaxWindowAvg(1000); got != 100 {
		t.Fatalf("10-step window max = %g, want 100", got)
	}
	// Window longer than the run: whole-run average.
	want := r.AvgPower()
	if got := r.MaxWindowAvg(sim.Second); got != want {
		t.Fatalf("whole-run window = %g, want %g", got, want)
	}
}

func TestMaxWindowAvgSubStepWindow(t *testing.T) {
	r := MustRecorder(100, 10)
	r.Record(10)
	r.Record(99)
	if got := r.MaxWindowAvg(10); got != 99 {
		t.Fatalf("sub-step window max = %g, want peak sample", got)
	}
}

func TestViolates(t *testing.T) {
	r := MustRecorder(100, 1000)
	for i := 0; i < 100; i++ {
		r.Record(90)
	}
	if r.Violates(100, 1000) {
		t.Fatal("false violation")
	}
	for i := 0; i < 20; i++ {
		r.Record(130)
	}
	if !r.Violates(100, 1000) {
		t.Fatal("missed violation")
	}
}

// naiveWindowMax is the O(n·k) reference implementation.
func naiveWindowMax(ps []float64, k int) float64 {
	if len(ps) == 0 {
		return 0
	}
	if k > len(ps) {
		k = len(ps)
	}
	best := math.Inf(-1)
	for i := 0; i+k <= len(ps); i++ {
		sum := 0.0
		for _, p := range ps[i : i+k] {
			sum += p
		}
		if avg := sum / float64(k); avg > best {
			best = avg
		}
	}
	return best
}

func TestMaxWindowAvgMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%64) + 1
		k := int(kRaw%16) + 1
		r := MustRecorder(100, sim.Time(k)*100)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = rng.Float64() * 150
			r.Record(ps[i])
		}
		got := r.MaxWindowAvg(sim.Time(k) * 100)
		want := naiveWindowMax(ps, k)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalPrefixConsistency(t *testing.T) {
	// Interleaving queries and records must not corrupt the running sums.
	r := MustRecorder(100, 100)
	r.Record(10)
	_ = r.AvgPower()
	r.Record(30)
	if got := r.AvgPower(); got != 20 {
		t.Fatalf("interleaved AvgPower = %g", got)
	}
	r.Record(50)
	if got := r.MaxWindowAvg(100); got != 50 {
		t.Fatalf("interleaved window max = %g", got)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(100, 200, 200) // buckets of 2 samples
	for i := 1; i <= 10; i++ {
		s.RecordN(float64(i*10), 1)
	}
	pts := s.Points()
	if len(pts) != 5 {
		t.Fatalf("series length %d, want 5", len(pts))
	}
	if pts[0].P != 15 || pts[0].T != 200 {
		t.Fatalf("first point %+v", pts[0])
	}
	if pts[4].P != 95 {
		t.Fatalf("last point %+v", pts[4])
	}
}

func TestWindowSeries(t *testing.T) {
	s := NewSeries(100, 500, 100)
	s.RecordN(50, 10)
	s.RecordN(100, 10)
	pts := s.Points()
	if len(pts) != 16 {
		t.Fatalf("%d windowed points, want one per step from the fifth: 16", len(pts))
	}
	// The first point (window fully inside the 50 W region) must be 50;
	// the last (fully inside 100 W) must be 100.
	if pts[0].P != 50 || pts[0].T != 500 {
		t.Fatalf("first windowed point %+v", pts[0])
	}
	if pts[len(pts)-1].P != 100 {
		t.Fatalf("last windowed point %g", pts[len(pts)-1].P)
	}
}

func TestReset(t *testing.T) {
	r := MustRecorder(100, 300)
	for i := 0; i < 10; i++ {
		r.Record(50)
	}
	r.Reset()
	if r.Steps() != 0 || r.AvgPower() != 0 || r.MaxWindowAvg(300) != 0 {
		t.Fatal("reset incomplete")
	}
	r.Record(70)
	if got := r.AvgPower(); got != 70 {
		t.Fatalf("post-reset AvgPower = %g", got)
	}
	r.RecordN(10, 2)
	if got := r.MaxWindowAvg(300); got != 30 {
		t.Fatalf("post-reset window max = %g, want 30", got)
	}
}

// prefixOracle is the prefix-sum formulation of every metric: each
// sample stored, prefix sums over them in recording order, and each
// window read as (prefix[i]−prefix[i−k])/k. The online reductions must
// reproduce it bit for bit.
type prefixOracle struct {
	dt    sim.Time
	total []float64
}

func (o *prefixOracle) RecordN(x float64, n int) {
	for range n {
		o.total = append(o.total, x)
	}
}

func (o *prefixOracle) prefix() []float64 {
	p := make([]float64, len(o.total)+1)
	for i, x := range o.total {
		p[i+1] = p[i] + x
	}
	return p
}

func (o *prefixOracle) AvgPower() float64 {
	n := len(o.total)
	if n == 0 {
		return 0
	}
	return o.prefix()[n] / float64(n)
}

func (o *prefixOracle) MaxWindowAvg(window sim.Time) float64 {
	n, k := len(o.total), max(int(window/o.dt), 1)
	if n == 0 {
		return 0
	}
	p := o.prefix()
	if k >= n {
		return p[n] / float64(n)
	}
	best := math.Inf(-1)
	for i := k; i <= n; i++ {
		if avg := (p[i] - p[i-k]) / float64(k); avg > best {
			best = avg
		}
	}
	return best
}

func (o *prefixOracle) WindowSeries(window, sampleEvery sim.Time) []Point {
	k, s := max(int(window/o.dt), 1), max(int(sampleEvery/o.dt), 1)
	p := o.prefix()
	var out []Point
	for i := k; i <= len(o.total); i += s {
		out = append(out, Point{T: sim.Time(i) * o.dt, P: (p[i] - p[i-k]) / float64(k)})
	}
	return out
}

// sameBits fails t unless got and want are the same float bit for bit.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: got %v (%#x), the prefix-sum oracle gives %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// samePoints fails t unless got and want hold the same points bit for
// bit.
func samePoints(t *testing.T, what string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, the prefix-sum oracle gives %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].T != want[i].T {
			t.Fatalf("%s: point %d at %d ns, the oracle's at %d", what, i, got[i].T, want[i].T)
		}
		sameBits(t, fmt.Sprintf("%s, point %d", what, i), got[i].P, want[i].P)
	}
}

// TestWindowRecorderMatchesSeries: the recorder, which keeps only
// running sums and one ring per window, answers AvgPower, PPE and
// MaxWindowAvg bit for bit as the prefix-sum series formulation does
// over the same samples, Record and RecordN mixed, for windows of one
// step, a few steps and longer than the run, declared together, and
// again after Reset; and a Series reproduces the oracle's window series.
func TestWindowRecorderMatchesSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	windows := []sim.Time{50, 100, 700, 2500, 1 << 20}
	r := MustRecorder(100, windows...)
	for round := 0; round < 2; round++ {
		o := &prefixOracle{dt: 100}
		series := []*Series{NewSeries(100, 700, 700), NewSeries(100, 2500, 300)}
		same := func(what string) {
			t.Helper()
			what = fmt.Sprintf("round %d, %s", round, what)
			sameBits(t, what+", AvgPower", r.AvgPower(), o.AvgPower())
			sameBits(t, what+", PPE", r.PPE(73), o.AvgPower()/73)
			for _, w := range windows {
				sameBits(t, fmt.Sprintf("%s, MaxWindowAvg(%d)", what, w), r.MaxWindowAvg(w), o.MaxWindowAvg(w))
			}
			if r.Steps() != len(o.total) || r.Duration() != sim.Time(len(o.total))*100 {
				t.Fatalf("%s: %d steps over %d ns, want %d", what, r.Steps(), r.Duration(), len(o.total))
			}
		}
		same("empty")
		for i := 0; i < 400; i++ {
			p := 40 + 60*rng.NormFloat64() // some negative: no sign shortcut hides a bug
			n := 1
			if rng.Intn(4) == 0 {
				n = rng.Intn(30)
				r.RecordN(p, n)
			} else {
				r.Record(p)
			}
			o.RecordN(p, n)
			for _, s := range series {
				s.RecordN(p, n)
			}
			if i%37 == 0 {
				same("mid-run")
			}
		}
		same("end")
		samePoints(t, "Fig. 1 series", series[0].Points(), o.WindowSeries(700, 700))
		samePoints(t, "Fig. 2 series", series[1].Points(), o.WindowSeries(2500, 300))
		r.Reset()
	}
}

// TestWindowRecorderOtherWindowPanics: a recorder cannot answer for a
// window it was not made for, and says which windows it keeps.
func TestWindowRecorderOtherWindowPanics(t *testing.T) {
	w := MustRecorder(100, 2000, 20)
	w.Record(1)
	if got := w.MaxWindowAvg(2050); got != 1 {
		t.Fatalf("MaxWindowAvg over the same whole-step window = %v", got)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "[2000 20]") {
			t.Fatalf("MaxWindowAvg over another window: panic %q does not name the kept windows", msg)
		}
	}()
	w.MaxWindowAvg(1000)
}
