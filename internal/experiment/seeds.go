package experiment

import (
	"context"
	"fmt"
	"strings"

	"hcapp/internal/config"
	"hcapp/internal/sim"
	"hcapp/internal/stats"
)

// SeedSweep quantifies how robust the headline results are to the
// workload generator's randomness: the whole suite re-runs under each
// seed and the per-seed suite averages are summarized. The paper
// reports single numbers; a credible reproduction should show they are
// not seed artifacts.
type SeedSweep struct {
	Seeds []int64
	Limit config.PowerLimit
	// Per-seed suite averages.
	FixedPPE, HCAPPPPE, HCAPPSpeedup []float64
	// Violations counts seeds where HCAPP exceeded the limit anywhere
	// in the suite (must stay 0).
	Violations int
}

// RunSeedSweep executes the sweep sequentially at the given horizon.
func RunSeedSweep(seeds []int64, limit config.PowerLimit, dur sim.Time) (*SeedSweep, error) {
	return RunSeedSweepWith(nil, nil, seeds, limit, dur)
}

// RunSeedSweepWith executes the sweep with the per-seed loop —
// embarrassingly parallel, one fresh evaluator per seed — fanned over
// the runner (nil runs sequentially). With remote set, each seed's
// suite goes to the fleet as one batch. Per-seed summaries land in
// seed-index slots, so the rendered sweep is identical at any worker
// count, local or on a fleet.
func RunSeedSweepWith(r *Runner, remote RemoteRunner, seeds []int64, limit config.PowerLimit, dur sim.Time) (*SeedSweep, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: no seeds")
	}
	out := &SeedSweep{
		Seeds:        append([]int64(nil), seeds...),
		Limit:        limit,
		FixedPPE:     make([]float64, len(seeds)),
		HCAPPPPE:     make([]float64, len(seeds)),
		HCAPPSpeedup: make([]float64, len(seeds)),
	}
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		return nil, err
	}
	violated := make([]bool, len(seeds))
	err = r.Tasks(context.Background(), len(seeds), func(ctx context.Context, i int) error {
		// The per-seed evaluator has no runner, so its batch runs
		// sequentially when local: nesting batches on the shared pool
		// could exhaust it and deadlock, and one seed's runs already
		// saturate a worker.
		ev := NewEvaluator().WithTargetDur(dur)
		ev.Cfg.Seed = seeds[i]
		ev.Remote = remote
		specs := make([]RunSpec, 0, 2*len(table3))
		for _, combo := range table3 {
			specs = append(specs,
				RunSpec{Combo: combo, Scheme: ev.FixedScheme(), Limit: limit},
				RunSpec{Combo: combo, Scheme: hcapp, Limit: limit})
		}
		res, err := ev.RunSpecs(ctx, specs)
		if err != nil {
			return err
		}
		var fixedPPE, hcPPE, hcSp []float64
		for j := 0; j < len(res); j += 2 {
			base, run := res[j], res[j+1]
			fixedPPE = append(fixedPPE, base.PPE)
			hcPPE = append(hcPPE, run.PPE)
			_, sp := run.SpeedupOver(base)
			hcSp = append(hcSp, sp)
			if run.Violated {
				violated[i] = true
			}
		}
		out.FixedPPE[i] = stats.Mean(fixedPPE...)
		out.HCAPPPPE[i] = stats.Mean(hcPPE...)
		out.HCAPPSpeedup[i] = stats.Mean(hcSp...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, v := range violated {
		if v {
			out.Violations++
		}
	}
	return out, nil
}

// Render formats the sweep summary.
func (s *SeedSweep) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Seed robustness sweep (%d seeds, %s limit)\n", len(s.Seeds), s.Limit.Name)
	row := func(name string, xs []float64) {
		sum := stats.Summarize(xs)
		fmt.Fprintf(&sb, "%-16s mean=%.3f stddev=%.3f min=%.3f max=%.3f\n",
			name, sum.Mean, sum.Stddev, sum.Min, sum.Max)
	}
	row("fixed PPE", s.FixedPPE)
	row("hcapp PPE", s.HCAPPPPE)
	row("hcapp speedup", s.HCAPPSpeedup)
	fmt.Fprintf(&sb, "seeds with an HCAPP violation: %d (must be 0)\n", s.Violations)
	return sb.String()
}
