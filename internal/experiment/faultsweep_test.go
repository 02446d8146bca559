package experiment

import (
	"reflect"
	"strings"
	"testing"

	"hcapp/internal/config"
	"hcapp/internal/fault"
	"hcapp/internal/sim"
	"hcapp/internal/telemetry"
)

func runSweep(t *testing.T, seed int64, runner *Runner) *FaultSweep {
	t.Helper()
	ev := shortEvaluator().WithRunner(runner)
	combo := mustCombo2(t, "Mid-Mid")
	sweep, err := ev.RunFaultSweep(combo, config.PackagePinLimit(), 2*sim.Millisecond, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sweep
}

// TestFaultSweepDeterministic is the ISSUE's reproducibility criterion:
// the same combo, limit, duration and seed must yield the identical
// resilience table, bit for bit, across independent evaluators, run
// sequentially or four wide (where scenarios wait on their healthy
// references across tasks).
func TestFaultSweepDeterministic(t *testing.T) {
	a := runSweep(t, 7, nil)
	b := runSweep(t, 7, NewRunner(4))
	// Combo holds trace-builder funcs, which DeepEqual can't compare;
	// the rows are the sweep's entire measured output.
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("identical sweeps differ:\n%s\nvs\n%s",
			RenderFaultSweep(a), RenderFaultSweep(b))
	}
	if a.Limit != b.Limit || a.Dur != b.Dur || a.Seed != b.Seed {
		t.Fatal("sweep headers differ across identical runs")
	}
	// A different seed must actually change the stochastic draws.
	c := runSweep(t, 8, nil)
	same := true
	for i := range a.Rows {
		if a.Rows[i].Counts != c.Rows[i].Counts {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change did not alter any injector draws")
	}
}

// TestFaultSweepSafety is the ISSUE's safety criterion: with the clamp,
// holdover and watchdogs armed, no sweep scenario — including the
// sensor lying far below truth — may violate the package-pin window cap.
func TestFaultSweepSafety(t *testing.T) {
	sweep := runSweep(t, 42, nil)
	if len(sweep.Rows) != len(DefaultFaultPlans(sweep.Dur, sweep.Seed)) {
		t.Fatalf("sweep has %d rows, want %d", len(sweep.Rows),
			len(DefaultFaultPlans(sweep.Dur, sweep.Seed)))
	}
	rows := map[string]FaultSweepRow{}
	for _, r := range sweep.Rows {
		if r.Violated {
			t.Errorf("%s: cap violated, max/limit %.3f", r.Name, r.MaxOverLimit)
		}
		if r.ThroughputRetained <= 0 {
			t.Errorf("%s: non-positive throughput retained %.3f", r.Name, r.ThroughputRetained)
		}
		rows[r.Name] = r
	}

	// Each resilience mechanism must have fired on the scenario built to
	// exercise it.
	if r := rows["sensor-stuck-low"]; r.ClampTrips == 0 {
		t.Error("sensor-stuck-low: clamp never tripped while the sensor lied low")
	}
	if r := rows["gpu-ctl-silence"]; r.WatchdogTrips["gpu"] == 0 {
		t.Error("gpu-ctl-silence: gpu watchdog never tripped")
	}
	if r := rows["sensor-blackout"]; r.HoldoverCycles == 0 || r.FailsafeCycles == 0 {
		t.Errorf("sensor-blackout: holdover %d / failsafe %d, want both > 0",
			r.HoldoverCycles, r.FailsafeCycles)
	}
	for _, name := range []string{"telemetry-loss", "telemetry-delay"} {
		r := rows[name]
		if !r.Centralized {
			t.Errorf("%s: should run against the centralized baseline", name)
		}
		if r.HoldoverCycles+r.FailsafeCycles == 0 {
			t.Errorf("%s: telemetry holdover never engaged", name)
		}
	}
	if r := rows["healthy"]; r.ThroughputRetained != 1 || r.ClampTrips != 0 {
		t.Errorf("healthy: thruput %.3f trips %d, want 1.000 and 0",
			r.ThroughputRetained, r.ClampTrips)
	}

	out := RenderFaultSweep(sweep)
	for _, want := range []string{"sensor-stuck-low", "central", "violated", "failsafe"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered sweep missing %q:\n%s", want, out)
		}
	}
}

// TestFaultSweepPublish: the sweep's tallies surface as telemetry
// counters, one series set per scenario.
func TestFaultSweepPublish(t *testing.T) {
	sweep := runSweep(t, 42, nil)
	reg := telemetry.NewRegistry()
	m := fault.NewMetrics(reg)
	sweep.Publish(m)
	text := reg.Text()
	for _, want := range []string{
		`hcapp_faults_injected_total{scenario="sensor-blackout",kind="sense-dropped"}`,
		`hcapp_clamp_trips_total{scenario="sensor-stuck-low"}`,
		`hcapp_watchdog_trips_total{scenario="gpu-ctl-silence",domain="gpu"}`,
		`hcapp_holdover_cycles_total{scenario="sensor-blackout"}`,
		`hcapp_failsafe_cycles_total{scenario="telemetry-delay"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exported metrics missing %s", want)
		}
	}
}
