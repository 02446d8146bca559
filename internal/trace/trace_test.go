package trace

import (
	"math"
	"math/rand"
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
	r := MustRecorder(100)
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
	r := MustRecorder(100)
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
	r := MustRecorder(100)
	r.Record(10)
	r.Record(99)
	if got := r.MaxWindowAvg(10); got != 99 {
		t.Fatalf("sub-step window max = %g, want peak sample", got)
	}
}

func TestViolates(t *testing.T) {
	r := MustRecorder(100)
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
		r := MustRecorder(100)
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
	// Interleaving queries and records must not corrupt the prefix sums.
	r := MustRecorder(100)
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
	r := MustRecorder(100)
	for i := 1; i <= 10; i++ {
		r.Record(float64(i * 10))
	}
	pts := r.Series(200) // buckets of 2 samples
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
	r := MustRecorder(100)
	for i := 0; i < 20; i++ {
		p := 50.0
		if i >= 10 {
			p = 100
		}
		r.Record(p)
	}
	pts := r.WindowSeries(500, 100)
	if len(pts) == 0 {
		t.Fatal("empty window series")
	}
	// The first point (window fully inside the 50 W region) must be 50;
	// the last (fully inside 100 W) must be 100.
	if pts[0].P != 50 {
		t.Fatalf("first windowed point %g", pts[0].P)
	}
	if pts[len(pts)-1].P != 100 {
		t.Fatalf("last windowed point %g", pts[len(pts)-1].P)
	}
}

func TestReset(t *testing.T) {
	r := MustRecorder(100)
	for i := 0; i < 10; i++ {
		r.Record(50)
	}
	_ = r.AvgPower() // force prefix build
	r.Reset()
	if r.Steps() != 0 || r.AvgPower() != 0 {
		t.Fatal("reset incomplete")
	}
	r.Record(70)
	if got := r.AvgPower(); got != 70 {
		t.Fatalf("post-reset AvgPower = %g", got)
	}
}

// TestWindowRecorderMatchesSeries: a recorder that keeps only the
// window sums answers AvgPower, PPE and MaxWindowAvg bit for bit as the
// series recorder does over the same samples, Record and RecordN mixed,
// for windows of one step, a few steps and longer than the run, and
// again after Reset.
func TestWindowRecorderMatchesSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, window := range []sim.Time{50, 100, 700, 2500, 1 << 20} {
		w, err := NewWindowRecorder(100, window)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			s := MustRecorder(100)
			same := func(what string) {
				t.Helper()
				pairs := [][2]float64{
					{s.AvgPower(), w.AvgPower()},
					{s.PPE(73), w.PPE(73)},
					{s.MaxWindowAvg(window), w.MaxWindowAvg(window)},
				}
				for i, p := range pairs {
					if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
						t.Fatalf("window %d, round %d, %s: metric %d series %v, window recorder %v", window, round, what, i, p[0], p[1])
					}
				}
				if s.Steps() != w.Steps() || s.Duration() != w.Duration() {
					t.Fatalf("window %d, %s: steps %d/%d, duration %d/%d", window, what, s.Steps(), w.Steps(), s.Duration(), w.Duration())
				}
			}
			same("empty")
			for i := 0; i < 400; i++ {
				p := 40 + 60*rng.NormFloat64() // some negative: no sign shortcut hides a bug
				if rng.Intn(4) == 0 {
					n := rng.Intn(30)
					s.RecordN(p, n)
					w.RecordN(p, n)
				} else {
					s.Record(p)
					w.Record(p)
				}
				if i%37 == 0 {
					same("mid-run")
				}
			}
			same("end")
			if w.Totals() != nil {
				t.Fatal("window recorder kept a series")
			}
			w.Reset()
		}
	}
}

// TestWindowRecorderOtherWindowPanics: a window recorder cannot answer
// for a window it did not keep.
func TestWindowRecorderOtherWindowPanics(t *testing.T) {
	w, err := NewWindowRecorder(100, 2000)
	if err != nil {
		t.Fatal(err)
	}
	w.Record(1)
	if got := w.MaxWindowAvg(2050); got != 1 {
		t.Fatalf("MaxWindowAvg over the same whole-step window = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MaxWindowAvg over another window did not panic")
		}
	}()
	w.MaxWindowAvg(1000)
}
