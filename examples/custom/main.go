// Custom: build a package that is NOT the paper's target system — two
// CPU chiplets, one GPU, two SHA accelerators — plus a user-defined
// workload loaded from JSON, and put it under HCAPP with a 150 W target.
//
// This is the §1 motivation exercised as an API: "the variety of 2.5D
// designs as different types of accelerators are added or replaced"
// makes centralized controller logic unmaintainable, while HCAPP just
// gains more local controllers. No PID retuning happens below — the
// same Eq. 2 constants drive the bigger package.
package main

import (
	"fmt"
	"log"
	"strings"

	"hcapp"
)

// A user-defined workload: a medium-activity stream kernel described
// entirely in JSON (see hcapp.WorkloadSpec for the schema).
const customWorkloads = `[
  {"name": "streamkernel", "target": "cpu", "class": "Mid", "kind": "wave",
   "correlated": true, "phases": 12, "wave_period_us": 260,
   "ipc": 1.6, "mem_frac": 0.35, "act_lo": 0.4, "act_hi": 0.75,
   "stall_act": 0.1}
]`

func main() {
	custom, err := hcapp.LoadBenchmarks(strings.NewReader(customWorkloads))
	if err != nil {
		log.Fatal(err)
	}
	swaptions, err := hcapp.BenchmarkByName("swaptions")
	if err != nil {
		log.Fatal(err)
	}
	backprop, err := hcapp.BenchmarkByName("backprop")
	if err != nil {
		log.Fatal(err)
	}

	cfg := hcapp.DefaultConfig()
	topo := hcapp.Topology{
		Chiplets: []hcapp.ChipletSpec{
			{Kind: "cpu", Name: "cpu0", Benchmark: swaptions},
			{Kind: "cpu", Name: "cpu1", Benchmark: custom[0], Seed: 7},
			{Kind: "gpu", Benchmark: backprop},
			{Kind: "sha", Name: "sha0"},
			{Kind: "sha", Name: "sha1", WorkScale: 1.5},
			{Kind: "mem", Watts: 16},
		},
		// Size each compute chiplet's work to ~6 ms at the fixed 0.95 V point.
		SizingDur: 6 * hcapp.Millisecond,
	}

	const target = 150.0 // watts: a bigger package, a bigger budget
	eng, err := hcapp.BuildTopology(cfg, topo, hcapp.BuildOptions{
		Scheme:      hcapp.HCAPPScheme(),
		TargetPower: target,
	})
	if err != nil {
		log.Fatal(err)
	}

	res := eng.Run(30 * hcapp.Millisecond)
	rec := eng.Recorder()

	fmt.Printf("Custom package: 2×CPU + GPU + 2×SHA + mem under HCAPP @ %.0f W\n\n", target)
	fmt.Printf("%-8s %12s\n", "chiplet", "completed")
	for _, name := range []string{"cpu0", "cpu1", "gpu", "sha0", "sha1"} {
		if t, ok := res.Completion[name]; ok {
			fmt.Printf("%-8s %11dµs\n", name, t/hcapp.Microsecond)
		} else {
			fmt.Printf("%-8s %12s\n", name, "-")
		}
	}
	fmt.Printf("\navg power %.1f W (%.1f%% of target), max 20µs window %.1f W\n",
		rec.AvgPower(), 100*rec.AvgPower()/target, rec.MaxWindowAvg(20*hcapp.Microsecond))
	fmt.Println("\nSame controller constants as the paper's 3-chiplet system: adding")
	fmt.Println("chiplets adds local controllers, nothing global changes (§1, §3).")
}
