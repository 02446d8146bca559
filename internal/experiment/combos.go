// Package experiment is the evaluation harness: it assembles the target
// system from its substrates, runs the paper's Table 3 benchmark
// combinations under each control scheme and power limit, and regenerates
// every table and figure of the evaluation (§4–§5).
package experiment

import (
	"fmt"
	"strings"

	"hcapp/internal/workload"
)

// Combo is one row of Table 3: a named combination of a CPU benchmark
// and a GPU benchmark (the SHA accelerator is "Modeled" in every row).
type Combo struct {
	// Name is the figure-axis name (e.g. "Burst-Low"); Table 3 spells
	// the ferret+myocyte row "Burst-Const", which the figures label
	// "Burst-Low" — myocyte is the Low benchmark.
	Name string
	// Alias is the Table 3 name when it differs from Name.
	Alias string
	CPU   workload.Benchmark
	GPU   workload.Benchmark
}

// String returns the combo's display name.
func (c Combo) String() string { return c.Name }

// key names the combo's definition: its name and both benchmarks'
// Benchmark.Key, so a custom combo that reuses a built-in's name is a
// different combo.
func (c Combo) key() string { return c.Name + "=" + c.CPU.Key() + "+" + c.GPU.Key() }

func mustCombo(name, alias, cpuClass, gpuClass string) Combo {
	cpu, err := workload.ByClass(workload.TargetCPU, workload.Class(cpuClass))
	if err != nil {
		panic(err)
	}
	gpu, err := workload.ByClass(workload.TargetGPU, workload.Class(gpuClass))
	if err != nil {
		panic(err)
	}
	return Combo{Name: name, Alias: alias, CPU: cpu, GPU: gpu}
}

// table3 is the heterogeneous test suite of Table 3, in the order the
// figures plot it, built once.
var table3 = []Combo{
	mustCombo("Burst-Burst", "", "Burst", "Burst"),
	mustCombo("Burst-Low", "Burst-Const", "Burst", "Low"),
	mustCombo("Const-Burst", "", "Const", "Burst"),
	mustCombo("Hi-Hi", "", "Hi", "Hi"),
	mustCombo("Hi-Low", "", "Hi", "Low"),
	mustCombo("Low-Hi", "", "Low", "Hi"),
	mustCombo("Low-Low", "", "Low", "Low"),
	mustCombo("Mid-Mid", "", "Mid", "Mid"),
}

// Suite returns the heterogeneous test suite of Table 3, in the order
// the figures plot it. The slice is the caller's own.
func Suite() []Combo { return append([]Combo(nil), table3...) }

// ComboByName looks a combo up by its figure name or Table 3 alias.
func ComboByName(name string) (Combo, error) {
	for _, c := range table3 {
		if strings.EqualFold(c.Name, name) || (c.Alias != "" && strings.EqualFold(c.Alias, name)) {
			return c, nil
		}
	}
	return Combo{}, fmt.Errorf("experiment: unknown combo %q", name)
}

// Table3 renders the benchmark combination table.
func Table3() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %-14s %-10s %s\n", "Name", "CPU", "GPU", "SHA")
	for _, c := range Suite() {
		name := c.Name
		if c.Alias != "" {
			name = fmt.Sprintf("%s (%s)", c.Name, c.Alias)
		}
		fmt.Fprintf(&sb, "%-14s %-14s %-10s %s\n", name, title(c.CPU.Name), title(c.GPU.Name), "Modeled")
	}
	return sb.String()
}

func title(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}
