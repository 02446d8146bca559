package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// drawBoth makes the same call on got and want, chosen by op: Uint64,
// Int63, Intn or Float64. Intn's bound grows with op, so ops span
// Int31n's masked and rejection paths and Int63n.
func drawBoth(got, want *rand.Rand, op byte) (g, w uint64) {
	switch op % 4 {
	case 0:
		return got.Uint64(), want.Uint64()
	case 1:
		return uint64(got.Int63()), uint64(want.Int63())
	case 2:
		bound := 1 + int(op)*int(op)
		if op >= 128 {
			bound = 1<<40 + int(op)
		}
		return uint64(got.Intn(bound)), uint64(want.Intn(bound))
	default:
		return math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
	}
}

// sameStream draws n values from got and want, cycling through every
// kind of call, and reports the first that differs.
func sameStream(got, want *rand.Rand, n int) error {
	for k := 0; k < n; k++ {
		if g, w := drawBoth(got, want, byte(k)); g != w {
			return fmt.Errorf("draw %d: %#x, want %#x", k, g, w)
		}
	}
	return nil
}

// TestLagSourceEdgeSeeds: the seeds rngSource.Seed's reduction treats
// specially (zero, multiples of 2^31−1 either side of it, the
// substitute seed for zero, the int64 extremes) give math/rand's
// stream, past one full turn of the 607-word register.
func TestLagSourceEdgeSeeds(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, m, -m, 2 * m, -2 * m, 3*m + 1, -3*m - 1,
		89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	for _, seed := range seeds {
		got := rand.New(&lagSource{})
		got.Seed(seed)
		if err := sameStream(got, rand.New(rand.NewSource(seed)), 1500); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestLagSourceReseedForgetsWords: a reseeded source draws what a fresh
// one under the new seed draws, however far the old stream had run.
func TestLagSourceReseedForgetsWords(t *testing.T) {
	got := rand.New(&lagSource{})
	for i, seed := range []int64{7, 7, 8, 1 << 40, 7} {
		got.Seed(seed)
		if err := sameStream(got, rand.New(rand.NewSource(seed)), 100+300*i); err != nil {
			t.Fatalf("reseed %d to %d: %v", i, seed, err)
		}
	}
}

// FuzzLagSource compares lagSource with math/rand's own source over a
// seed, a draw count (past 607, so the register wraps), a reseed
// mid-stream and a mix of Uint64, Int63, Intn and Float64 calls.
func FuzzLagSource(f *testing.F) {
	f.Add(int64(42), uint16(1500), uint16(700), int64(-3), []byte{0, 1, 2, 3})
	f.Add(int64(0), uint16(10), uint16(11), int64(0), []byte{3})
	f.Add(int64(math.MinInt64), uint16(2000), uint16(0), int64(math.MaxInt64), []byte{2, 2, 5, 9})
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16, reseed int64, ops []byte) {
		if len(ops) == 0 {
			ops = []byte{0}
		}
		n := int(draws % 2500)
		got, want := rand.New(&lagSource{}), rand.New(rand.NewSource(seed))
		got.Seed(seed)
		for k := 0; k < n; k++ {
			if k == int(reseedAt) {
				got.Seed(reseed)
				want.Seed(reseed)
			}
			op := ops[k%len(ops)]
			g, w := drawBoth(got, want, op)
			if g != w {
				t.Fatalf("seed %d, reseed %d at %d: draw %d (op %d) = %#x, want %#x", seed, reseed, reseedAt, k, op, g, w)
			}
		}
	})
}

// TestMixSeedMatchesFormattedHash pins mixSeed to the FNV-1a hash of
// fmt's "%d|%s|%d" rendering, the bytes every sub-seed has always been
// derived from.
func TestMixSeedMatchesFormattedHash(t *testing.T) {
	want := func(seed int64, label string, unit int) int64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%d", seed, label, unit)
		v := int64(h.Sum64())
		if v == 0 {
			v = 1
		}
		return v
	}
	long := "a-label-longer-than-the-stack-buffer/" + fmt.Sprint(make([]int, 12))
	for _, seed := range []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64} {
		for _, label := range []string{"", "ferret", "bfs/amp", "blackscholes/start", long} {
			for _, unit := range []int{0, 1, 14, -3, math.MaxInt} {
				if got, w := mixSeed(seed, label, unit), want(seed, label, unit); got != w {
					t.Fatalf("mixSeed(%d, %q, %d) = %d, want %d", seed, label, unit, got, w)
				}
			}
		}
	}
}

// unitsSink keeps BenchmarkUnits' results live.
var unitsSink []Unit

// BenchmarkUnits builds one served job's trace sets per op: a CPU
// benchmark's 8 units and a GPU benchmark's 15, cycling through the
// suites' benchmarks and seeds.
func BenchmarkUnits(b *testing.B) {
	cpus, gpus := CPUBenchmarks(), GPUBenchmarks()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		unitsSink = cpus[i%len(cpus)].Units(seed, 8, 2e9)
		unitsSink = gpus[(i/len(cpus))%len(gpus)].Units(seed, 15, 700e6)
	}
}
