package gpusim

import (
	"testing"

	"hcapp/internal/config"
	"hcapp/internal/sim"
	"hcapp/internal/thermal"
	"hcapp/internal/workload"
)

func mustBench(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustUnits is the named benchmark's workload for every unit of the
// default configuration's chiplet.
func mustUnits(t *testing.T, name string, seed int64) []workload.Unit {
	t.Helper()
	b := mustBench(t, name)
	cfg := config.Default()
	return b.Units(seed, cfg.GPU.SMs, cfg.GPU.SM.DVFS.FMax)
}

func TestNewBuildsFifteenSMs(t *testing.T) {
	cfg := config.Default()
	gpu, err := New(cfg.GPU, cfg.LocalEpoch, Options{
		Benchmark: mustBench(t, "backprop"), Units: mustUnits(t, "backprop", 1), LocalControl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Units() != 15 {
		t.Fatalf("units = %d, want 15 (Table 2)", gpu.Units())
	}
	if gpu.Name() != "gpu" {
		t.Fatalf("name %q", gpu.Name())
	}
}

func TestNewRejectsCPUBenchmark(t *testing.T) {
	cfg := config.Default()
	if _, err := New(cfg.GPU, cfg.LocalEpoch, Options{Benchmark: mustBench(t, "ferret"), Units: mustUnits(t, "ferret", 1)}); err == nil {
		t.Fatal("CPU benchmark accepted on GPU")
	}
}

func TestNewRejectsWrongUnitCount(t *testing.T) {
	cfg := config.Default()
	if _, err := New(cfg.GPU, cfg.LocalEpoch, Options{Benchmark: mustBench(t, "bfs")}); err == nil {
		t.Fatal("no unit workloads accepted for 15 SMs")
	}
}

func TestDynamicLocalReducesLowWorkloadPower(t *testing.T) {
	cfg := config.Default()
	run := func(local bool) float64 {
		gpu, err := New(cfg.GPU, cfg.LocalEpoch, Options{
			Benchmark: mustBench(t, "myocyte"), Units: mustUnits(t, "myocyte", 1), LocalControl: local,
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		// Domain voltage pinned above the 0.72 V target so thresholds
		// relax but low IPC still reduces ratios initially.
		for now := sim.Time(100); now <= 200*sim.Microsecond; now += 100 {
			total += gpu.Step(now, 100, 0.7125).Power
		}
		return total
	}
	controlled := run(true)
	uncontrolled := run(false)
	if controlled >= uncontrolled {
		t.Fatalf("dynamic local controller did not reduce myocyte power: %g vs %g",
			controlled, uncontrolled)
	}
}

func TestWorkCompletion(t *testing.T) {
	cfg := config.Default()
	gpu, err := New(cfg.GPU, cfg.LocalEpoch, Options{
		Benchmark: mustBench(t, "backprop"), Units: mustUnits(t, "backprop", 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	gpu.SetTotalWork(gpu.AvgIPSAt(0.7125) * 500e-6)
	var now sim.Time
	for !gpu.Done() && now < 5*sim.Millisecond {
		now += 100
		gpu.Step(now, 100, 0.7125)
	}
	if !gpu.Done() {
		t.Fatal("GPU never finished")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := config.Default()
	run := func() float64 {
		gpu, err := New(cfg.GPU, cfg.LocalEpoch, Options{
			Benchmark: mustBench(t, "bfs"), Units: mustUnits(t, "bfs", 4), LocalControl: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for now := sim.Time(100); now <= 200*sim.Microsecond; now += 100 {
			total += gpu.Step(now, 100, 0.7125).Power
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %g vs %g", a, b)
	}
}

func TestZeroEpochDefaults(t *testing.T) {
	cfg := config.Default()
	if _, err := New(cfg.GPU, 0, Options{Benchmark: mustBench(t, "sradv2"), Units: mustUnits(t, "sradv2", 1)}); err != nil {
		t.Fatalf("zero epoch not defaulted: %v", err)
	}
}

func TestOccupancyControllerVariant(t *testing.T) {
	cfg := config.Default()
	gpu, err := New(cfg.GPU, cfg.LocalEpoch, Options{
		Benchmark: mustBench(t, "myocyte"), Units: mustUnits(t, "myocyte", 1),
		LocalControl: true, Controller: "dynamic-occupancy",
	})
	if err != nil {
		t.Fatal(err)
	}
	// With the domain voltage held below the 0.72 V target, the
	// adaptive thresholds rise until myocyte's low occupancy fails
	// them and ratios step down — the §3.3.2 self-balancing loop under
	// the occupancy metric.
	for now := sim.Time(100); now <= 300*sim.Microsecond; now += 100 {
		gpu.Step(now, 100, 0.60)
	}
	if gpu.MeanRatio() >= 1.0 {
		t.Fatalf("occupancy controller idle ratio = %g, want < 1", gpu.MeanRatio())
	}
}

func TestUnknownControllerRejected(t *testing.T) {
	cfg := config.Default()
	if _, err := New(cfg.GPU, cfg.LocalEpoch, Options{
		Benchmark: mustBench(t, "myocyte"), Units: mustUnits(t, "myocyte", 1),
		LocalControl: true, Controller: "telepathy",
	}); err == nil {
		t.Fatal("unknown controller accepted")
	}
}

func TestThermalAndMarginPassThrough(t *testing.T) {
	cfg := config.Default()
	th := thermal.DefaultChiplet()
	gpu, err := New(cfg.GPU, cfg.LocalEpoch, Options{
		Benchmark: mustBench(t, "backprop"), Units: mustUnits(t, "backprop", 1),
		Thermal: &th, VoltageMargin: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(100); now <= 100*sim.Microsecond; now += 100 {
		gpu.Step(now, 100, 0.7125)
	}
	if gpu.Temp() <= th.AmbientC {
		t.Fatal("thermal node not attached")
	}
	// Guardbanded GPU retires less than adaptive at the same rail.
	plain, err := New(cfg.GPU, cfg.LocalEpoch, Options{Benchmark: mustBench(t, "backprop"), Units: mustUnits(t, "backprop", 1)})
	if err != nil {
		t.Fatal(err)
	}
	var wPlain, wMargin float64
	gpu.Reset()
	for now := sim.Time(100); now <= 100*sim.Microsecond; now += 100 {
		wMargin += gpu.Step(now, 100, 0.7125).Work
		wPlain += plain.Step(now, 100, 0.7125).Work
	}
	if wMargin >= wPlain {
		t.Fatalf("voltage margin did not cost work: %g vs %g", wMargin, wPlain)
	}
}
