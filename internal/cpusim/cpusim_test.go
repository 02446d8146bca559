package cpusim

import (
	"testing"

	"hcapp/internal/config"
	"hcapp/internal/sim"
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
	return b.Units(seed, cfg.CPU.Cores, cfg.CPU.Core.DVFS.FMax)
}

func TestNewBuildsEightCores(t *testing.T) {
	cfg := config.Default()
	cpu, err := New(cfg.CPU, cfg.LocalCPU, Options{
		Benchmark: mustBench(t, "blackscholes"), Units: mustUnits(t, "blackscholes", 1), LocalControl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Units() != 8 {
		t.Fatalf("units = %d, want 8 (Table 2)", cpu.Units())
	}
	if cpu.Name() != "cpu" {
		t.Fatalf("name %q", cpu.Name())
	}
}

func TestNewRejectsGPUBenchmark(t *testing.T) {
	cfg := config.Default()
	_, err := New(cfg.CPU, cfg.LocalCPU, Options{Benchmark: mustBench(t, "myocyte"), Units: mustUnits(t, "myocyte", 1)})
	if err == nil {
		t.Fatal("GPU benchmark accepted on CPU")
	}
}

func TestNewRejectsWrongUnitCount(t *testing.T) {
	cfg := config.Default()
	units := mustUnits(t, "swaptions", 1)
	if _, err := New(cfg.CPU, cfg.LocalCPU, Options{Benchmark: mustBench(t, "swaptions"), Units: units[:7]}); err == nil {
		t.Fatal("7 unit workloads accepted for 8 cores")
	}
}

func TestLocalControlToggle(t *testing.T) {
	cfg := config.Default()
	// Run a low-IPC workload: with local control the mean ratio drops,
	// without it stays at unity (the fixed-voltage baseline has "no
	// local controllers", §4).
	run := func(local bool) float64 {
		cpu, err := New(cfg.CPU, cfg.LocalCPU, Options{
			Benchmark: mustBench(t, "ferret"), Units: mustUnits(t, "ferret", 1), LocalControl: local,
		})
		if err != nil {
			t.Fatal(err)
		}
		for now := sim.Time(100); now <= 300*sim.Microsecond; now += 100 {
			cpu.Step(now, 100, 0.95)
		}
		return cpu.MeanRatio()
	}
	if got := run(false); got != 1.0 {
		t.Fatalf("uncontrolled mean ratio = %g", got)
	}
	if got := run(true); got >= 1.0 {
		t.Fatalf("controlled mean ratio = %g, want < 1 during ferret gaps", got)
	}
}

func TestPowerRespondsToVoltage(t *testing.T) {
	cfg := config.Default()
	mk := func() interface {
		Step(sim.Time, sim.Time, float64) sim.StepResult
	} {
		cpu, err := New(cfg.CPU, cfg.LocalCPU, Options{Benchmark: mustBench(t, "swaptions"), Units: mustUnits(t, "swaptions", 1)})
		if err != nil {
			t.Fatal(err)
		}
		return cpu
	}
	lo := mk().Step(100, 100, 0.70).Power
	hi := mk().Step(100, 100, 1.10).Power
	if hi <= lo {
		t.Fatalf("power not increasing with voltage: %g vs %g", lo, hi)
	}
}

func TestWorkCompletion(t *testing.T) {
	cfg := config.Default()
	cpu, err := New(cfg.CPU, cfg.LocalCPU, Options{
		Benchmark: mustBench(t, "swaptions"), Units: mustUnits(t, "swaptions", 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	cpu.SetTotalWork(cpu.AvgIPSAt(0.95) * 500e-6) // ~500 µs of work
	var now sim.Time
	for !cpu.Done() && now < 5*sim.Millisecond {
		now += 100
		cpu.Step(now, 100, 0.95)
	}
	if !cpu.Done() {
		t.Fatal("CPU never finished")
	}
	ct := cpu.CompletionTime()
	if ct < 300*sim.Microsecond || ct > sim.Millisecond {
		t.Fatalf("completion at %s, want ≈500µs", sim.FormatTime(ct))
	}
}

func TestDeterminism(t *testing.T) {
	cfg := config.Default()
	run := func() float64 {
		cpu, err := New(cfg.CPU, cfg.LocalCPU, Options{
			Benchmark: mustBench(t, "fluidanimate"), Units: mustUnits(t, "fluidanimate", 9), LocalControl: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for now := sim.Time(100); now <= 200*sim.Microsecond; now += 100 {
			total += cpu.Step(now, 100, 0.95).Power
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %g vs %g", a, b)
	}
}

func TestDefaultEpochApplied(t *testing.T) {
	cfg := config.Default()
	local := cfg.LocalCPU
	local.Epoch = 0 // should fall back to a sane default, not error
	if _, err := New(cfg.CPU, local, Options{Benchmark: mustBench(t, "swaptions"), Units: mustUnits(t, "swaptions", 1)}); err != nil {
		t.Fatalf("zero epoch not defaulted: %v", err)
	}
}
