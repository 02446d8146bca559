package workload

import (
	"strings"
	"testing"
)

const sampleSpecs = `[
  {"name": "mykernel", "target": "gpu", "class": "Hi", "kind": "wave",
   "correlated": true, "phases": 16, "wave_period_us": 300,
   "ipc": 1.5, "mem_frac": 0.25, "act_lo": 0.5, "act_hi": 0.9, "stall_act": 0.1},
  {"name": "mydaemon", "target": "cpu", "class": "Low", "kind": "steady",
   "phases": 10, "phase_dur_us": 120, "ipc": 1.0, "mem_frac": 0.2,
   "activity": 0.3, "stall_act": 0.05, "act_jitter": 0.05},
  {"name": "myspiky", "target": "cpu", "class": "Burst", "kind": "burst",
   "correlated": true, "bursts": 6, "gap_us": 200, "burst_us": 40,
   "ipc": 0.8, "mem_frac": 0.6, "activity": 0.2, "stall_act": 0.05,
   "burst_ipc": 2.0, "burst_mem_frac": 0.05, "burst_activity": 0.85,
   "dur_jitter": 0.2},
  {"name": "myfixed", "target": "gpu", "class": "Mid", "kind": "constant",
   "phase_dur_us": 100, "ipc": 1.2, "mem_frac": 0.3, "activity": 0.5,
   "stall_act": 0.1}
]`

func TestParseBenchmarks(t *testing.T) {
	bs, err := ParseBenchmarks(strings.NewReader(sampleSpecs))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 4 {
		t.Fatalf("parsed %d benchmarks", len(bs))
	}
	for _, b := range bs {
		fmax := 2e9
		if b.On == TargetGPU {
			fmax = 700e6
		}
		tr := b.Units(7, 4, fmax)[0].Trace
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: invalid trace: %v", b.Name, err)
		}
		// Determinism carries over to custom benchmarks.
		tr2 := b.Units(7, 4, fmax)[0].Trace
		if tr.TotalInstr() != tr2.TotalInstr() {
			t.Errorf("%s: non-deterministic", b.Name)
		}
	}
}

func TestParseBenchmarksCorrelation(t *testing.T) {
	bs, err := ParseBenchmarks(strings.NewReader(sampleSpecs))
	if err != nil {
		t.Fatal(err)
	}
	var wave Benchmark
	for _, b := range bs {
		if b.Name == "mykernel" {
			wave = b
		}
	}
	units := wave.Units(3, 8, 700e6)
	a, c := units[0].Trace, units[5].Trace
	if len(a.Phases) != len(c.Phases) {
		t.Fatal("correlated custom benchmark lost phase alignment")
	}
	for i := range a.Phases {
		if a.Phases[i].Instr != c.Phases[i].Instr {
			t.Fatal("correlated custom benchmark timing differs across units")
		}
	}
}

func TestParseBenchmarksErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad json", `{`},
		{"unknown field", `[{"name":"x","target":"cpu","kind":"steady","bogus":1}]`},
		{"missing name", `[{"target":"cpu","kind":"steady","phases":4,"phase_dur_us":10,"ipc":1,"activity":0.5}]`},
		{"bad target", `[{"name":"x","target":"tpu","kind":"steady","phases":4,"phase_dur_us":10,"ipc":1,"activity":0.5}]`},
		{"bad kind", `[{"name":"x","target":"cpu","kind":"zigzag","ipc":1,"activity":0.5}]`},
		{"zero ipc", `[{"name":"x","target":"cpu","kind":"steady","phases":4,"phase_dur_us":10,"activity":0.5}]`},
		{"memfrac 1", `[{"name":"x","target":"cpu","kind":"steady","phases":4,"phase_dur_us":10,"ipc":1,"mem_frac":1,"activity":0.5}]`},
		{"wave act order", `[{"name":"x","target":"cpu","kind":"wave","phases":4,"wave_period_us":100,"ipc":1,"act_lo":0.9,"act_hi":0.5}]`},
		{"burst missing", `[{"name":"x","target":"cpu","kind":"burst","ipc":1,"activity":0.5}]`},
		{"duplicate", `[
			{"name":"x","target":"cpu","kind":"constant","phase_dur_us":10,"ipc":1,"activity":0.5},
			{"name":"x","target":"cpu","kind":"constant","phase_dur_us":10,"ipc":1,"activity":0.5}]`},
		{"shadows builtin", `[{"name":"ferret","target":"cpu","kind":"constant","phase_dur_us":10,"ipc":1,"activity":0.5}]`},
	}
	for _, c := range cases {
		if _, err := ParseBenchmarks(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSpecJSONStandalone(t *testing.T) {
	sp := SpecJSON{
		Name: "solo", Target: "cpu", Kind: "constant",
		PhaseDurUS: 50, IPC: 1.4, MemFrac: 0.1, Activity: 0.6, StallAct: 0.1,
	}
	b, err := sp.Benchmark()
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Units(1, 2, 2e9)[0].Trace
	if len(tr.Phases) != 1 {
		t.Fatalf("constant kind phases = %d", len(tr.Phases))
	}
	if b.Suite != "custom" {
		t.Fatalf("suite = %q", b.Suite)
	}
}
