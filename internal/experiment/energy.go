package experiment

import (
	"context"
	"fmt"
	"strings"

	"hcapp/internal/config"
	"hcapp/internal/energy"
	"hcapp/internal/fault"
	"hcapp/internal/sim"
)

// Energy-attribution experiment: how accurate is share-based energy
// attribution (split each domain's rail energy across units by activity
// share — the only estimator real silicon supports, since unit power is
// not individually measurable) against the ground-truth per-unit
// integration the simulator can do? Phase one runs the Table 3 suite
// under HCAPP; phase two re-measures under fault scenarios, where
// clamped rails and silenced controllers stress the estimator hardest.

// EnergyScenarioRow is one run's attribution outcome.
type EnergyScenarioRow struct {
	// Name is the combo name (suite phase) or fault-scenario name.
	Name string
	// TotalJ is the package energy over the run (domains + VR loss).
	TotalJ float64
	// Steps is how many engine steps the ledger integrated.
	Steps int64
	// ConservationErr is the worst per-domain relative mismatch between
	// summed attributed joules and integrated domain energy — the
	// accounting invariant, expected at rounding level.
	ConservationErr float64
	// Domains grades attribution per power domain.
	Domains []energy.DomainAccuracy
}

// EnergyReport is the full attribution-accuracy experiment.
type EnergyReport struct {
	Limit config.PowerLimit
	Dur   sim.Time
	Seed  int64
	// Suite holds one row per Table 3 combo (HCAPP, work-pool runs).
	Suite []EnergyScenarioRow
	// FaultCombo names the combo the fault phase stresses.
	FaultCombo string
	// Faults holds one row per HCAPP fault scenario (continuous load,
	// clamp + watchdogs + holdover armed, as in the fault sweep).
	Faults []EnergyScenarioRow
}

func energyRow(name string, s *energy.Summary) EnergyScenarioRow {
	return EnergyScenarioRow{
		Name:            name,
		TotalJ:          s.TotalJ,
		Steps:           s.Steps,
		ConservationErr: s.ConservationError(),
		Domains:         s.Accuracy(),
	}
}

// RunEnergyAttribution measures attribution accuracy across the suite
// and a fault sweep of faultCombo under the given limit, at the
// evaluator's horizon and seed. Suite runs go through the evaluator
// (runner fan-out, single-flight cache, fleet offload when Remote is
// set); fault runs build locally like the fault sweep — injectors don't
// cross the wire — fanned over the same runner with indexed slots, so
// the report is byte-identical at any worker count or fleet width.
func (ev *Evaluator) RunEnergyAttribution(faultCombo Combo, limit config.PowerLimit) (*EnergyReport, error) {
	scheme, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		return nil, err
	}
	report := &EnergyReport{
		Limit:      limit,
		Dur:        ev.TargetDur,
		Seed:       ev.Cfg.Seed,
		FaultCombo: faultCombo.Name,
	}

	// A derived evaluator with energy tracking on: same parameters,
	// runner and fleet, but its own cache namespace (CacheKey folds
	// energy=1), so running this inside "-experiment all" can never
	// cross-contaminate the other experiments' cached results.
	evE := &Evaluator{
		Cfg:          ev.Cfg,
		TargetDur:    ev.TargetDur,
		MaxDurFactor: ev.MaxDurFactor,
		FixedV:       ev.FixedV,
		Remote:       ev.Remote,
		TrackEnergy:  true,
		runner:       ev.runner,
	}
	suite := Suite()
	specs := make([]RunSpec, len(suite))
	for i, combo := range suite {
		specs[i] = RunSpec{Combo: combo, Scheme: scheme, Limit: limit}
	}
	results, err := evE.RunSpecs(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		if res.Energy == nil {
			return nil, fmt.Errorf("experiment: energy run %s returned no ledger summary", suite[i].Name)
		}
		report.Suite = append(report.Suite, energyRow(suite[i].Name, res.Energy))
	}

	// Fault phase: the sweep's HCAPP scenarios (telemetry-class faults
	// only exist on the centralized baseline's collection path), each a
	// continuous-load run with the resilience stack armed.
	var scenarios []SweepScenario
	for _, sc := range DefaultFaultPlans(ev.TargetDur, ev.Cfg.Seed) {
		if !sc.Centralized {
			scenarios = append(scenarios, sc)
		}
	}
	rows := make([]EnergyScenarioRow, len(scenarios))
	err = ev.runner.Tasks(context.Background(), len(scenarios), func(ctx context.Context, i int) error {
		inj, err := fault.New(scenarios[i].Plan)
		if err != nil {
			return err
		}
		run, err := ev.buildSweepSystem(faultCombo, limit, inj, false, true, nil)
		if err != nil {
			return err
		}
		if err := run.finish(ctx, ev.TargetDur); err != nil {
			return err
		}
		rows[i] = energyRow(scenarios[i].Plan.Name, run.sys.Energy.Summary())
		return nil
	})
	if err != nil {
		return nil, err
	}
	report.Faults = rows
	return report, nil
}

// RenderEnergyAttribution formats the attribution-accuracy report.
func RenderEnergyAttribution(r *EnergyReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Energy attribution accuracy (hcapp, %s limit, %.2f ms horizon, seed %d)\n",
		r.Limit.Name, float64(r.Dur)/float64(sim.Millisecond), r.Seed)
	fmt.Fprintf(&sb, "attributed = rail energy split by activity share; ideal = true unit energy + pro-rata uncore\n\n")
	renderEnergyRows(&sb, "Suite (Table 3 combos, hcapp work-pool runs):", r.Suite)
	fmt.Fprintf(&sb, "\n")
	renderEnergyRows(&sb, fmt.Sprintf("Fault scenarios (%s, continuous load, clamp+watchdog+holdover armed):", r.FaultCombo), r.Faults)
	return sb.String()
}

func renderEnergyRows(sb *strings.Builder, title string, rows []EnergyScenarioRow) {
	fmt.Fprintf(sb, "%s\n", title)
	fmt.Fprintf(sb, "%-18s %-7s %12s %9s %10s %13s %11s\n",
		"run", "domain", "energy_j", "uncore%", "misattr%", "max_unit_err", "conserve")
	for _, row := range rows {
		name := row.Name
		for _, d := range row.Domains {
			fmt.Fprintf(sb, "%-18s %-7s %12.6e %9.3f %10.4f %13.4e %11.1e\n",
				name, d.Domain, d.EnergyJ, 100*d.UncoreFrac, 100*d.MisattrFrac,
				d.MaxUnitErr, row.ConservationErr)
			name = "" // repeat the run name only on its first domain line
		}
	}
}
