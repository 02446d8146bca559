package trace

import (
	"math"
	"testing"

	"hcapp/internal/sim"
)

// FuzzMaxWindowAvg cross-checks the prefix-sum implementation against
// the naive O(n·k) reference on fuzzer-chosen inputs.
func FuzzMaxWindowAvg(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 50}, uint8(2))
	f.Add([]byte{0}, uint8(1))
	f.Add([]byte{255, 0, 255, 0, 255, 0, 255}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw uint8) {
		if len(raw) == 0 || len(raw) > 512 {
			return
		}
		k := int(kRaw%32) + 1
		r := MustRecorder(100)
		ps := make([]float64, len(raw))
		for i, b := range raw {
			ps[i] = float64(b)
			r.Record(ps[i])
		}
		got := r.MaxWindowAvg(sim.Time(k) * 100)
		want := naiveWindowMax(ps, k)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("k=%d: got %g want %g", k, got, want)
		}
		// The window max can never exceed the peak sample.
		peak := 0.0
		for _, p := range ps {
			peak = math.Max(peak, p)
		}
		if got > peak+1e-9 {
			t.Fatalf("window max %g above peak sample %g", got, peak)
		}
	})
}
