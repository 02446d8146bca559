package hcapp_test

import (
	"testing"

	"hcapp"
)

// TestHeadlineClaims is the end-to-end reproduction check: on a reduced
// horizon it verifies the paper's qualitative results hold through the
// public API alone. The full-length numbers live in EXPERIMENTS.md and
// regenerate via the benchmarks / cmd/hcappsim.
func TestHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite in -short mode")
	}
	ev := hcapp.NewEvaluator().WithTargetDur(4 * hcapp.Millisecond)
	fast := hcapp.PackagePinLimit()
	slow := hcapp.OffPackageVRLimit()

	type agg struct{ maxOver, ppe, speedup float64 }
	eval := func(scheme hcapp.Scheme, limit hcapp.PowerLimit) agg {
		t.Helper()
		var a agg
		n := 0.0
		for _, combo := range hcapp.Suite() {
			base, err := ev.Run(hcapp.RunSpec{Combo: combo, Scheme: ev.FixedScheme(), Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			r, err := ev.Run(hcapp.RunSpec{Combo: combo, Scheme: scheme, Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			if r.MaxOverLimit > a.maxOver {
				a.maxOver = r.MaxOverLimit
			}
			_, sp := r.SpeedupOver(base)
			a.ppe += r.PPE
			a.speedup += sp
			n++
		}
		a.ppe /= n
		a.speedup /= n
		return a
	}

	fixedFast := eval(ev.FixedScheme(), fast)
	hcappFast := eval(hcapp.HCAPPScheme(), fast)
	raplFast := eval(hcapp.RAPLLikeScheme(), fast)

	// §5.1: under the package-pin limit, fixed voltage and HCAPP stay
	// below the limit while RAPL-like fails it.
	if fixedFast.maxOver > 1.0 {
		t.Errorf("fixed voltage violated fast limit: %.3f", fixedFast.maxOver)
	}
	if hcappFast.maxOver > 1.0 {
		t.Errorf("HCAPP violated fast limit: %.3f", hcappFast.maxOver)
	}
	if raplFast.maxOver <= 1.0 {
		t.Errorf("RAPL-like did not violate fast limit: %.3f", raplFast.maxOver)
	}

	// HCAPP improves both PPE and performance over the static baseline.
	if hcappFast.ppe <= fixedFast.ppe {
		t.Errorf("HCAPP PPE %.3f not above fixed %.3f", hcappFast.ppe, fixedFast.ppe)
	}
	if hcappFast.speedup <= 1.0 {
		t.Errorf("HCAPP fast-limit speedup %.3f, want > 1", hcappFast.speedup)
	}

	// §5.2: under the slow limit HCAPP stays legal and beats the
	// baseline by a wide margin.
	hcappSlow := eval(hcapp.HCAPPScheme(), slow)
	if hcappSlow.maxOver > 1.0 {
		t.Errorf("HCAPP violated slow limit: %.3f", hcappSlow.maxOver)
	}
	if hcappSlow.ppe <= fixedFast.ppe {
		t.Errorf("HCAPP slow-limit PPE %.3f not above fixed %.3f", hcappSlow.ppe, fixedFast.ppe)
	}
	if hcappSlow.speedup <= hcappFast.speedup {
		t.Errorf("slow-limit speedup %.3f should exceed fast-limit %.3f (smaller guardband)",
			hcappSlow.speedup, hcappFast.speedup)
	}
}

// TestSoftwarePriorityInterface verifies §5.3 end-to-end: prioritizing a
// component speeds it up without breaking the power limit.
func TestSoftwarePriorityInterface(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite in -short mode")
	}
	ev := hcapp.NewEvaluator().WithTargetDur(3 * hcapp.Millisecond)
	combo, err := hcapp.ComboByName("Mid-Mid")
	if err != nil {
		t.Fatal(err)
	}
	limit := hcapp.PackagePinLimit()
	base, err := ev.Run(hcapp.RunSpec{Combo: combo, Scheme: hcapp.HCAPPScheme(), Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []string{"cpu", "gpu", "sha"} {
		r, err := ev.Run(hcapp.RunSpec{
			Combo: combo, Scheme: hcapp.HCAPPScheme(), Limit: limit,
			Priorities: hcapp.PriorityFor(comp),
		})
		if err != nil {
			t.Fatal(err)
		}
		per, _ := r.SpeedupOver(base)
		if per[comp] <= 1.0 {
			t.Errorf("prioritized %s speedup = %.3f, want > 1", comp, per[comp])
		}
		if r.Violated {
			t.Errorf("priority run for %s violated the limit", comp)
		}
	}
}

// TestShapeChecks runs the shared shape-check suite at a reduced
// horizon (SW-like checks self-skip below its 10 ms period; the full
// set runs via hcappsim report and the benchmarks).
func TestShapeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite in -short mode")
	}
	ev := hcapp.NewEvaluator().WithTargetDur(4 * hcapp.Millisecond)
	checks, err := ev.ShapeChecks()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 10 {
		t.Fatalf("only %d checks ran", len(checks))
	}
	for _, c := range hcapp.Failed(checks) {
		t.Errorf("shape check failed: %s (%s)", c.Name, c.Detail)
	}
}
