package experiment

import (
	"reflect"
	"strings"
	"testing"

	"hcapp/internal/config"
	"hcapp/internal/sim"
	"hcapp/internal/workload"
)

func mustBench3(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func twoCPUTopology(t *testing.T) Topology {
	t.Helper()
	return Topology{Chiplets: []ChipletSpec{
		{Kind: "cpu", Name: "cpu0", Benchmark: mustBench3(t, "swaptions")},
		{Kind: "cpu", Name: "cpu1", Benchmark: mustBench3(t, "blackscholes"), Seed: 99},
		{Kind: "gpu", Benchmark: mustBench3(t, "backprop")},
		{Kind: "sha"},
		{Kind: "mem", Watts: 12},
	}}
}

func TestBuildTopologyRuns(t *testing.T) {
	cfg := config.Default()
	topo := twoCPUTopology(t)
	topo.SizingDur = 1 * sim.Millisecond
	eng, err := BuildTopology(cfg, topo, BuildOptions{
		Scheme:      config.Scheme{Kind: config.HCAPP, ControlPeriod: sim.Microsecond},
		TargetPower: 130,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run(5 * sim.Millisecond)
	if !res.Completed {
		t.Fatal("custom topology did not complete")
	}
	for _, name := range []string{"cpu0", "cpu1", "gpu", "sha"} {
		if _, ok := res.Completion[name]; !ok {
			t.Errorf("completion missing for %s", name)
		}
	}
	if eng.Recorder().AvgPower() <= 0 {
		t.Fatal("no power recorded")
	}
	// Both CPU domains must exist independently.
	if eng.Domain("cpu0") == nil || eng.Domain("cpu1") == nil {
		t.Fatal("named domains missing")
	}
}

func TestBuildTopologyFixedScheme(t *testing.T) {
	cfg := config.Default()
	eng, err := BuildTopology(cfg, Topology{Chiplets: []ChipletSpec{
		{Kind: "cpu", Benchmark: mustBench3(t, "swaptions")},
	}, SizingDur: 500 * sim.Microsecond}, BuildOptions{
		Scheme: config.Scheme{Kind: config.FixedVoltage, FixedV: 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run(5 * sim.Millisecond)
	if !res.Completed {
		t.Fatal("fixed topology did not complete")
	}
}

func TestBuildTopologyErrors(t *testing.T) {
	cfg := config.Default()
	rail := config.Scheme{Kind: config.FixedVoltage, FixedV: 0.95}
	fixed := BuildOptions{Scheme: rail}
	sha := Topology{Chiplets: []ChipletSpec{{Kind: "sha"}}}
	cases := []struct {
		name string
		topo Topology
		opts BuildOptions
	}{
		{"empty", Topology{}, fixed},
		{"unknown kind", Topology{Chiplets: []ChipletSpec{{Kind: "fpga"}}}, fixed},
		{"duplicate name", Topology{Chiplets: []ChipletSpec{{Kind: "sha"}, {Kind: "sha"}}}, fixed},
		{"no target", sha, BuildOptions{Scheme: config.Scheme{Kind: config.HCAPP, ControlPeriod: sim.Microsecond}}},
		{"no fixed voltage", sha, BuildOptions{Scheme: config.Scheme{Kind: config.FixedVoltage}}},
		{"wrong benchmark target", Topology{Chiplets: []ChipletSpec{{Kind: "gpu", Benchmark: func() workload.Benchmark {
			b, _ := workload.ByName("ferret")
			return b
		}()}}}, fixed},
		// The paper package's pools name its single cpu, gpu and sha;
		// a topology sizes its own.
		{"paper cpu work", sha, BuildOptions{Scheme: rail, CPUWork: 1e6}},
		{"paper gpu work", sha, BuildOptions{Scheme: rail, GPUWork: 1e6}},
		{"paper accel work", sha, BuildOptions{Scheme: rail, AccelWorkGB: 1}},
	}
	for _, c := range cases {
		if _, err := BuildTopology(cfg, c.topo, c.opts); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestBuildTopologyMatchesBuild: Build is the paper's four chiplets fed
// through the one assembler, so BuildTopology over the same list — with
// the pools SizeWork gives Build expressed as a sizing horizon — runs
// bit for bit like Build, under a fixed rail and under HCAPP.
func TestBuildTopologyMatchesBuild(t *testing.T) {
	cfg := config.Default()
	combo := mustCombo2(t, "Burst-Burst")
	const sizing = 500 * sim.Microsecond
	sz, err := SizeWork(cfg, combo, 0.95, sizing)
	if err != nil {
		t.Fatal(err)
	}
	hcappScheme, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []BuildOptions{
		{Scheme: config.Scheme{Kind: config.FixedVoltage, FixedV: 0.95}},
		{Scheme: hcappScheme, TargetPower: 86},
	} {
		t.Run(string(opts.Scheme.Kind), func(t *testing.T) {
			built := opts
			built.CPUWork, built.GPUWork, built.AccelWorkGB = sz.CPUWork, sz.GPUWork, sz.AccelGB
			sys, err := Build(cfg, combo, built)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := BuildTopology(cfg, Topology{Chiplets: []ChipletSpec{
				{Kind: "cpu", Benchmark: combo.CPU},
				{Kind: "gpu", Benchmark: combo.GPU},
				{Kind: "sha"},
				{Kind: "mem"},
			}, SizingDur: sizing}, opts)
			if err != nil {
				t.Fatal(err)
			}
			const horizon = 2 * sim.Millisecond
			want, got := sys.Engine.Run(horizon), eng.Run(horizon)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run result %+v, Build gave %+v", got, want)
			}
			if len(want.Completion) != 3 {
				t.Fatalf("completions %v: the horizon must outlast every pool", want.Completion)
			}
			if !reflect.DeepEqual(eng.Recorder(), sys.Engine.Recorder()) {
				t.Fatal("recorded trace diverges from Build's")
			}
		})
	}
}

func TestBuildTopologyWithCustomBenchmark(t *testing.T) {
	specs := `[{"name":"housekernel","target":"cpu","class":"Mid","kind":"constant",
		"phase_dur_us":100,"ipc":1.2,"mem_frac":0.2,"activity":0.5,"stall_act":0.1}]`
	bs, err := workload.ParseBenchmarks(strings.NewReader(specs))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	eng, err := BuildTopology(cfg, Topology{Chiplets: []ChipletSpec{
		{Kind: "cpu", Benchmark: bs[0]},
	}, SizingDur: 500 * sim.Microsecond}, BuildOptions{
		Scheme:      config.Scheme{Kind: config.HCAPP, ControlPeriod: sim.Microsecond},
		TargetPower: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run(5 * sim.Millisecond)
	if !res.Completed {
		t.Fatal("custom benchmark topology did not complete")
	}
}

func TestBuildTopologyWorkScale(t *testing.T) {
	cfg := config.Default()
	mk := func(scale float64) sim.Time {
		eng, err := BuildTopology(cfg, Topology{Chiplets: []ChipletSpec{
			{Kind: "cpu", Benchmark: mustBench3(t, "swaptions"), WorkScale: scale},
		}, SizingDur: 500 * sim.Microsecond}, BuildOptions{
			Scheme: config.Scheme{Kind: config.FixedVoltage, FixedV: 0.95},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng.Run(10 * sim.Millisecond).Completion["cpu"]
	}
	if t1, t2 := mk(1), mk(2); t2 <= t1 {
		t.Fatalf("doubled work did not take longer: %d vs %d", t1, t2)
	}
}

func TestSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep in -short mode")
	}
	sw, err := RunSeedSweep([]int64{1, 2, 3}, config.OffPackageVRLimit(), 2*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Violations != 0 {
		t.Fatalf("HCAPP violated under %d seeds", sw.Violations)
	}
	if len(sw.HCAPPPPE) != 3 {
		t.Fatalf("per-seed results = %d", len(sw.HCAPPPPE))
	}
	// The headline ordering must hold for every seed, not just seed 42.
	for i := range sw.Seeds {
		if sw.HCAPPPPE[i] <= sw.FixedPPE[i] {
			t.Errorf("seed %d: HCAPP PPE %.3f not above fixed %.3f",
				sw.Seeds[i], sw.HCAPPPPE[i], sw.FixedPPE[i])
		}
		if sw.HCAPPSpeedup[i] <= 1.0 {
			t.Errorf("seed %d: speedup %.3f", sw.Seeds[i], sw.HCAPPSpeedup[i])
		}
	}
	out := sw.Render()
	if !strings.Contains(out, "hcapp speedup") {
		t.Errorf("render missing rows:\n%s", out)
	}
}

func TestRunSeedSweepValidation(t *testing.T) {
	if _, err := RunSeedSweep(nil, config.PackagePinLimit(), sim.Millisecond); err == nil {
		t.Fatal("empty seed list accepted")
	}
}
