package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"hcapp/internal/sim"
)

// SpecJSON is the external (JSON) description of a custom benchmark
// proxy, so downstream users can add their own workloads without
// touching Go code:
//
//	[{
//	  "name": "mykernel", "target": "gpu", "class": "Hi",
//	  "kind": "wave", "correlated": true,
//	  "phases": 16, "wave_period_us": 300,
//	  "ipc": 1.5, "mem_frac": 0.25,
//	  "act_lo": 0.5, "act_hi": 0.9, "stall_act": 0.1
//	}]
//
// Kinds: "steady", "wave", "burst", "constant". Fields irrelevant to a
// kind are ignored; required fields are validated.
type SpecJSON struct {
	Name       string `json:"name"`
	Target     string `json:"target"` // "cpu" or "gpu"
	Class      string `json:"class"`  // Low | Mid | Hi | Burst | Const
	Kind       string `json:"kind"`   // steady | wave | burst | constant
	Correlated bool   `json:"correlated"`

	// Common profile.
	IPC      float64 `json:"ipc"`
	MemFrac  float64 `json:"mem_frac"`
	Activity float64 `json:"activity"`
	StallAct float64 `json:"stall_act"`

	// steady / constant
	Phases     int     `json:"phases"`
	PhaseDurUS float64 `json:"phase_dur_us"`
	ActJitter  float64 `json:"act_jitter"`

	// wave
	WavePeriodUS float64 `json:"wave_period_us"`
	ActLo        float64 `json:"act_lo"`
	ActHi        float64 `json:"act_hi"`

	// burst
	Bursts        int     `json:"bursts"`
	GapUS         float64 `json:"gap_us"`
	BurstUS       float64 `json:"burst_us"`
	BurstIPC      float64 `json:"burst_ipc"`
	BurstMemFrac  float64 `json:"burst_mem_frac"`
	BurstActivity float64 `json:"burst_activity"`
	DurJitter     float64 `json:"dur_jitter"`
}

// validate checks the kind-relevant fields.
func (sp SpecJSON) validate() error {
	if sp.Name == "" {
		return fmt.Errorf("workload: spec missing name")
	}
	if sp.Target != "cpu" && sp.Target != "gpu" {
		return fmt.Errorf("workload: %s: target must be cpu or gpu, got %q", sp.Name, sp.Target)
	}
	if sp.IPC <= 0 {
		return fmt.Errorf("workload: %s: ipc must be positive", sp.Name)
	}
	if sp.MemFrac < 0 || sp.MemFrac >= 1 {
		return fmt.Errorf("workload: %s: mem_frac outside [0,1)", sp.Name)
	}
	switch sp.Kind {
	case "steady", "constant":
		if sp.Activity <= 0 || sp.Activity > 1 {
			return fmt.Errorf("workload: %s: activity outside (0,1]", sp.Name)
		}
		if sp.PhaseDurUS <= 0 {
			return fmt.Errorf("workload: %s: phase_dur_us must be positive", sp.Name)
		}
		if sp.Kind == "steady" && sp.Phases <= 0 {
			return fmt.Errorf("workload: %s: phases must be positive", sp.Name)
		}
	case "wave":
		if sp.Phases <= 1 {
			return fmt.Errorf("workload: %s: wave needs phases > 1", sp.Name)
		}
		if sp.WavePeriodUS <= 0 {
			return fmt.Errorf("workload: %s: wave_period_us must be positive", sp.Name)
		}
		if !(sp.ActLo > 0 && sp.ActLo <= sp.ActHi && sp.ActHi <= 1) {
			return fmt.Errorf("workload: %s: need 0 < act_lo ≤ act_hi ≤ 1", sp.Name)
		}
	case "burst":
		if sp.Bursts <= 0 || sp.GapUS <= 0 || sp.BurstUS <= 0 {
			return fmt.Errorf("workload: %s: burst needs bursts, gap_us, burst_us", sp.Name)
		}
		if sp.Activity <= 0 || sp.BurstActivity <= 0 || sp.BurstActivity > 1 {
			return fmt.Errorf("workload: %s: burst activities outside (0,1]", sp.Name)
		}
		if sp.BurstIPC <= 0 {
			return fmt.Errorf("workload: %s: burst_ipc must be positive", sp.Name)
		}
		if sp.BurstMemFrac < 0 || sp.BurstMemFrac >= 1 {
			return fmt.Errorf("workload: %s: burst_mem_frac outside [0,1)", sp.Name)
		}
	default:
		return fmt.Errorf("workload: %s: unknown kind %q", sp.Name, sp.Kind)
	}
	return nil
}

// Benchmark converts the spec to a usable Benchmark.
func (sp SpecJSON) Benchmark() (Benchmark, error) {
	if err := sp.validate(); err != nil {
		return Benchmark{}, err
	}
	target := TargetCPU
	if sp.Target == "gpu" {
		target = TargetGPU
	}
	spec := sp // capture by value
	b := Benchmark{
		Name:       sp.Name,
		Suite:      "custom",
		Class:      Class(sp.Class),
		On:         target,
		correlated: sp.Correlated,
		custom:     fmt.Sprintf("%#v", sp),
		build: func(rng *rand.Rand, fmax float64) *Trace {
			return spec.buildTrace(rng, fmax)
		},
	}
	return b, nil
}

func (sp SpecJSON) buildTrace(rng *rand.Rand, fmax float64) *Trace {
	us := func(v float64) sim.Time { return sim.Time(v * float64(sim.Microsecond)) }
	p := profile{ipc: sp.IPC, memFrac: sp.MemFrac, activity: sp.Activity, stallAct: sp.StallAct}
	switch sp.Kind {
	case "steady":
		return SteadyTrace(sp.Name, rng, fmax, sp.Phases, us(sp.PhaseDurUS), p, sp.ActJitter)
	case "constant":
		return ConstantTrace(sp.Name, fmax, us(sp.PhaseDurUS), sp.IPC, sp.MemFrac, sp.Activity, sp.StallAct)
	case "wave":
		return WaveTrace(sp.Name, rng, fmax, sp.Phases, us(sp.WavePeriodUS), p, sp.ActLo, sp.ActHi)
	case "burst":
		burst := profile{ipc: sp.BurstIPC, memFrac: sp.BurstMemFrac, activity: sp.BurstActivity, stallAct: sp.StallAct}
		return BurstTrace(sp.Name, rng, fmax, sp.Bursts, us(sp.GapUS), us(sp.BurstUS), p, burst, sp.DurJitter)
	}
	panic("workload: unreachable kind " + sp.Kind) // validate() guards this
}

// ParseBenchmarks reads a JSON array of SpecJSON and returns the
// corresponding benchmarks. Names must be unique within the input and
// must not shadow the built-in registry.
func ParseBenchmarks(r io.Reader) ([]Benchmark, error) {
	var specs []SpecJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("workload: parse: %w", err)
	}
	seen := map[string]bool{}
	out := make([]Benchmark, 0, len(specs))
	for _, sp := range specs {
		if seen[sp.Name] {
			return nil, fmt.Errorf("workload: duplicate benchmark %q", sp.Name)
		}
		if _, err := ByName(sp.Name); err == nil {
			return nil, fmt.Errorf("workload: %q shadows a built-in benchmark", sp.Name)
		}
		b, err := sp.Benchmark()
		if err != nil {
			return nil, err
		}
		seen[sp.Name] = true
		out = append(out, b)
	}
	return out, nil
}
