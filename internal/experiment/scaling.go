package experiment

import (
	"context"
	"fmt"
	"strings"

	"hcapp/internal/config"
	"hcapp/internal/noc"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
)

// The scaling experiment operationalizes the paper's third motivating
// problem (§1, "Scaling with 2.5D integration") and the §2 critique of
// centralized designs: a centralized controller must aggregate metrics
// from every node over shared wires, so its achievable control period
// grows with the number of chiplets, while HCAPP's round trip is fixed
// by the power-delivery physics (Table 1) no matter how many chiplets
// share the rail.
//
// We model the centralized aggregation cost explicitly with the
// internal/noc collection-network model: a controller cannot cycle
// faster than it can gather a metric snapshot and scatter commands back.
// HCAPP's period stays at 1 µs regardless of n.

// ScalingConfig parameterizes the chiplet-count sweep.
type ScalingConfig struct {
	// ChipletCounts are the numbers of compute-chiplet triples
	// (CPU+GPU+SHA) to evaluate.
	ChipletCounts []int
	// Network models the centralized controller's metric-collection
	// interconnect (per §2: "getting the information from each node to
	// the centralized controller requires either separate global wires
	// or shared resources ... congestion as the system continues to
	// scale"). The default is the shared-bus case.
	Network noc.Config
	// CentralFloor is the fastest period the centralized controller
	// could cycle at even with free metrics (decision logic + command
	// distribution).
	CentralFloor sim.Time
	// LimitPerTriple scales the package power limit with system size.
	LimitPerTriple float64
	// Window is the power-limit window to evaluate.
	Window sim.Time
	// Combo selects the workload.
	Combo Combo
	// Dur is the run length.
	Dur sim.Time
	// Cell, when non-nil, executes one (triples, period) sweep cell —
	// hcappsim -coordinator points it at a cluster coordinator so the fleet
	// simulates instead of this process. Nil simulates locally via
	// RunScalingCell. Implementations must match RunScalingCell
	// bit-for-bit for the rendered sweep to be node-count independent.
	Cell func(ctx context.Context, cfg config.SystemConfig, sc ScalingConfig, triples int, period sim.Time, limit float64) (maxOver, ppe float64, err error)
}

// DefaultScalingConfig returns the sweep used by the ablation bench.
func DefaultScalingConfig() ScalingConfig {
	combo, err := ComboByName("Burst-Burst")
	if err != nil {
		panic(err)
	}
	return ScalingConfig{
		ChipletCounts:  []int{1, 2, 4, 8, 16},
		Network:        noc.DefaultBus(),
		CentralFloor:   20 * sim.Microsecond,
		LimitPerTriple: 100,
		Window:         20 * sim.Microsecond,
		Combo:          combo,
		Dur:            3 * sim.Millisecond,
	}
}

// ScalingPoint is one row of the sweep result.
type ScalingPoint struct {
	Triples int
	Nodes   int // execution units feeding a centralized controller
	// HCAPPPeriod and CentralPeriod are the achievable control periods.
	HCAPPPeriod, CentralPeriod sim.Time
	// MaxOverLimit per scheme (max window power / scaled limit).
	HCAPPMax, CentralMax float64
	// PPE per scheme.
	HCAPPPPE, CentralPPE float64
}

// ScalingResult is the full sweep.
type ScalingResult struct {
	Cfg    ScalingConfig
	Points []ScalingPoint
}

// RunScaling executes the chiplet-count sweep sequentially.
func RunScaling(cfg config.SystemConfig, sc ScalingConfig) (*ScalingResult, error) {
	return RunScalingWith(nil, cfg, sc)
}

// RunScalingWith executes the sweep with the (count, scheme-variant)
// cells fanned over the runner (nil runs sequentially). Periods and
// counts are validated up front so the parallel batch only simulates.
func RunScalingWith(r *Runner, cfg config.SystemConfig, sc ScalingConfig) (*ScalingResult, error) {
	res := &ScalingResult{Cfg: sc, Points: make([]ScalingPoint, len(sc.ChipletCounts))}
	for i, n := range sc.ChipletCounts {
		if n <= 0 {
			return nil, fmt.Errorf("experiment: non-positive chiplet count %d", n)
		}
		nodes := n * (cfg.CPU.Cores + cfg.GPU.SMs + 1)
		// The centralized loop cannot cycle faster than it can gather a
		// snapshot and scatter commands over its collection network.
		centralPeriod, err := sc.Network.MinControlPeriod(nodes, sc.CentralFloor)
		if err != nil {
			return nil, err
		}
		res.Points[i] = ScalingPoint{
			Triples:       n,
			Nodes:         nodes,
			HCAPPPeriod:   1 * sim.Microsecond,
			CentralPeriod: centralPeriod,
		}
	}

	cell := sc.Cell
	if cell == nil {
		cell = RunScalingCell
	}
	err := r.Tasks(context.Background(), 2*len(sc.ChipletCounts), func(ctx context.Context, i int) error {
		pt := &res.Points[i/2]
		period := pt.HCAPPPeriod
		if i%2 == 1 {
			period = pt.CentralPeriod
		}
		limit := sc.LimitPerTriple * float64(pt.Triples)
		maxOver, ppe, err := cell(ctx, cfg, sc, pt.Triples, period, limit)
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if i%2 == 0 {
			pt.HCAPPMax = maxOver
			pt.HCAPPPPE = ppe
		} else {
			pt.CentralMax = maxOver
			pt.CentralPPE = ppe
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunScalingCell simulates one cell of the chiplet-count sweep — an
// n-triple package under one controller period — and reduces the trace
// to the two numbers the sweep table plots. It is the unit of work the
// cluster protocol ships to fleet workers, so its signature is exactly
// the serializable sweep inputs. A cancelled ctx stops the engine at its
// next poll (an already-cancelled one before the build) and returns
// ctx.Err().
func RunScalingCell(ctx context.Context, cfg config.SystemConfig, sc ScalingConfig, triples int, period sim.Time, limit float64) (maxOver, ppe float64, err error) {
	return runScalingCell(ctx, cfg, sc, triples, period, limit, nil)
}

// runScalingCell is RunScalingCell with a step observer attached. The
// cell is n cpu/gpu/sha triples plus one memory chiplet drawing n
// times the configured memory power, on a rail whose droop resistance
// falls as 1/n (n times the power-delivery pins).
func runScalingCell(ctx context.Context, cfg config.SystemConfig, sc ScalingConfig, n int, period sim.Time, limit float64, obs sched.StepObserver) (maxOver, ppe float64, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("experiment: non-positive chiplet count %d", n)
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	specs := make([]ChipletSpec, 0, 3*n+1)
	for i := 0; i < n; i++ {
		// All triples share one seed: a parallel application spanning
		// chiplets phases together, so aggregate power volatility does
		// not average away as the system grows.
		specs = append(specs,
			ChipletSpec{Kind: "cpu", Name: fmt.Sprintf("cpu%d", i), Benchmark: sc.Combo.CPU},
			ChipletSpec{Kind: "gpu", Name: fmt.Sprintf("gpu%d", i), Benchmark: sc.Combo.GPU},
			ChipletSpec{Kind: "sha", Name: fmt.Sprintf("sha%d", i)},
		)
	}
	specs = append(specs, ChipletSpec{Kind: "mem", Watts: cfg.Mem.Power * float64(n)})
	cfg.DroopOhms /= float64(n)
	sys, err := assemble(cfg, Topology{Chiplets: specs}, BuildOptions{
		Scheme:      config.Scheme{Kind: config.HCAPP, ControlPeriod: period},
		TargetPower: limit * 0.86,
		Observer:    obs,
	}, []sim.Time{sc.Window})
	if err != nil {
		return 0, 0, err
	}
	eng := sys.Engine
	eng.RunWithCancel(sc.Dur, func() bool { return ctx.Err() != nil })
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	rec := eng.Recorder()
	return rec.MaxWindowAvg(sc.Window) / limit, rec.PPE(limit), nil
}

// Render formats the sweep as a table.
func (r *ScalingResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Chiplet scaling: HCAPP vs centralized controller (limit %g W per triple, window %s)\n",
		r.Cfg.LimitPerTriple, sim.FormatTime(r.Cfg.Window))
	fmt.Fprintf(&sb, "%8s %7s %14s %16s %11s %13s %10s %12s\n",
		"triples", "nodes", "hcapp-period", "central-period", "hcapp-max", "central-max", "hcapp-ppe", "central-ppe")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%8d %7d %14s %16s %11.3f %13.3f %10.3f %12.3f\n",
			p.Triples, p.Nodes, sim.FormatTime(p.HCAPPPeriod), sim.FormatTime(p.CentralPeriod),
			p.HCAPPMax, p.CentralMax, p.HCAPPPPE, p.CentralPPE)
	}
	return sb.String()
}
