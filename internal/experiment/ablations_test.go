package experiment

import (
	"context"
	"testing"

	"hcapp/internal/config"
)

func TestRunVariantKnobs(t *testing.T) {
	ev := shortEvaluator()
	combo := mustCombo2(t, "Mid-Mid")
	spec := hcappSpec(combo, config.PackagePinLimit())

	base, err := ev.runVariant(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.AvgPower <= 0 {
		t.Fatal("degenerate base run")
	}

	// Guardbanded clocking must slow the package down at the same rail.
	gb, err := ev.runVariant(context.Background(), spec, func(o *BuildOptions) { o.VoltageMargin = 0.05 })
	if err != nil {
		t.Fatal(err)
	}
	if gb.Completion["cpu"] <= base.Completion["cpu"] {
		t.Errorf("guardband did not slow the CPU: %d vs %d", gb.Completion["cpu"], base.Completion["cpu"])
	}

	// Disabling local controllers must still run and hold the limit.
	nl, err := ev.runVariant(context.Background(), spec, func(o *BuildOptions) { o.DisableLocalControl = true })
	if err != nil {
		t.Fatal(err)
	}
	if nl.Violated {
		t.Error("no-local variant violated the limit")
	}

	// The occupancy controller must build and run.
	occ, err := ev.runVariant(context.Background(), spec, func(o *BuildOptions) { o.GPUController = "dynamic-occupancy" })
	if err != nil {
		t.Fatal(err)
	}
	if occ.AvgPower <= 0 {
		t.Fatal("degenerate occupancy run")
	}

	// Unknown controller must fail.
	if _, err := ev.runVariant(context.Background(), spec, func(o *BuildOptions) { o.GPUController = "psychic" }); err == nil {
		t.Fatal("unknown GPU controller accepted")
	}
}

func TestThermalCheckBelowTrip(t *testing.T) {
	ev := shortEvaluator()
	cpu, gpu, tripped, err := ev.ThermalCheck()
	if err != nil {
		t.Fatal(err)
	}
	// The §3.5 assumption: evaluation power never reaches the trip point.
	if tripped {
		t.Fatalf("thermal protection tripped (cpu %.1f, gpu %.1f °C)", cpu, gpu)
	}
	if cpu <= 45 || gpu <= 45 {
		t.Fatalf("no heating observed (cpu %.1f, gpu %.1f °C)", cpu, gpu)
	}
	out, err := ev.RenderThermalCheck()
	if err != nil || out == "" {
		t.Fatalf("render: %q, %v", out, err)
	}
}

func TestAblationClockingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite ablation in -short mode")
	}
	ev := shortEvaluator()
	m, err := ev.AblationClocking()
	if err != nil {
		t.Fatal(err)
	}
	// Guardbands tax performance monotonically (§3.5: adaptive clocking
	// exists to avoid exactly this).
	a := m.RowAvg("adaptive clocking")
	g25 := m.RowAvg("guardband 25 mV")
	g50 := m.RowAvg("guardband 50 mV")
	if !(a > g25 && g25 > g50) {
		t.Errorf("guardband tax not monotone: %g, %g, %g", a, g25, g50)
	}
}

func TestAblationLocalControllersShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite ablation in -short mode")
	}
	ev := shortEvaluator()
	m, err := ev.AblationLocalControllers()
	if err != nil {
		t.Fatal(err)
	}
	// All three variants must at least run legally and produce speedups.
	for _, row := range m.Rows {
		if got := m.RowAvg(row); got <= 0.9 {
			t.Errorf("%s: degenerate speedup %g", row, got)
		}
	}
}
