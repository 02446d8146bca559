package experiment

import (
	"context"
	"fmt"

	"hcapp/internal/central"
	"hcapp/internal/config"
	"hcapp/internal/noc"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
	"hcapp/internal/swctl"
)

// The extensions in this file go beyond the paper's published
// evaluation along the axes its §6 future work names: smarter software
// controllers on top of HCAPP, and a structurally centralized
// alternative built from the pieces HCAPP deliberately avoids (a metric
// collection network and a global allocator).

// scalableDomains are the domains software policies manage.
var scalableDomains = []string{"cpu", "gpu", "sha"}

// SoftwarePolicies returns the policy set compared by the software
// extension experiment.
func SoftwarePolicies() []swctl.Policy {
	return []swctl.Policy{
		swctl.Neutral{},
		swctl.Static{Component: "cpu"},
		swctl.ProgressBalancer{},
		&swctl.CriticalPath{},
	}
}

// policyByName instantiates a fresh policy (CriticalPath is stateful, so
// every run needs its own).
func policyByName(name string) (swctl.Policy, error) {
	switch name {
	case "", "neutral":
		return swctl.Neutral{}, nil
	case "static-cpu":
		return swctl.Static{Component: "cpu"}, nil
	case "static-gpu":
		return swctl.Static{Component: "gpu"}, nil
	case "static-sha":
		return swctl.Static{Component: "sha"}, nil
	case "progress-balancer":
		return swctl.ProgressBalancer{}, nil
	case "critical-path":
		return &swctl.CriticalPath{}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown software policy %q", name)
	}
}

// SoftwarePolicyPeriod is the OS control timescale for the policies.
const SoftwarePolicyPeriod = 1 * sim.Millisecond

// DefaultWorkSkew is the imbalanced scenario the software-policy
// extension evaluates: the GPU carries 30 % extra work and the
// accelerator finishes early — the §6 situation ("the CPU begins to
// send work to the GPU") where proactive priority shifting pays off.
// Balanced pools (every component finishing together by construction)
// leave a balancing policy nothing to reclaim.
var DefaultWorkSkew = map[string]float64{"cpu": 1.0, "gpu": 1.3, "sha": 0.8}

// RunPolicy executes one combo under HCAPP with a named software policy
// and per-component work-pool skew (nil skew means balanced pools).
// Results are not cached: stateful policies need fresh instances.
func (ev *Evaluator) RunPolicy(combo Combo, limit config.PowerLimit, policy string, skew map[string]float64) (RunResult, error) {
	return ev.runPolicy(context.Background(), combo, limit, policy, skew)
}

func (ev *Evaluator) runPolicy(ctx context.Context, combo Combo, limit config.PowerLimit, policy string, skew map[string]float64) (RunResult, error) {
	skewOf := func(name string) float64 {
		if k, ok := skew[name]; ok && k > 0 {
			return k
		}
		return 1
	}
	spec := hcappSpec(combo, limit)
	spec.Policy = policy
	return ev.runVariant(ctx, spec, func(o *BuildOptions) {
		o.CPUWork *= skewOf("cpu")
		o.GPUWork *= skewOf("gpu")
		o.AccelWorkGB *= skewOf("sha")
	})
}

// ExtensionSoftwarePolicies compares software policies layered on HCAPP
// under the package-pin limit on the imbalanced DefaultWorkSkew
// scenario: each cell is the *makespan* speedup (package completion
// time) of the policy run over the unsupervised HCAPP run with the same
// pools. Makespan is the §6 objective — shift power toward the straggler
// so the whole package finishes sooner; HCAPP alone only reclaims the
// straggler's tail after the others idle.
func (ev *Evaluator) ExtensionSoftwarePolicies() (*Matrix, error) {
	limit := config.PackagePinLimit()
	policies := []string{"static-gpu", "progress-balancer", "critical-path"}
	m := NewMatrix("Extension: software policies on HCAPP, imbalanced pools (makespan vs unsupervised HCAPP)", "makespan speedup", policies, comboNames())

	// One flat batch of (1 unsupervised base + the policies) per combo.
	suite := Suite()
	perCombo := 1 + len(policies)
	results := make([]RunResult, perCombo*len(suite))
	err := ev.runner.Tasks(context.Background(), len(results), func(ctx context.Context, i int) (err error) {
		pname := ""
		if pi := i % perCombo; pi > 0 {
			pname = policies[pi-1]
		}
		results[i], err = ev.runPolicy(ctx, suite[i/perCombo], limit, pname, DefaultWorkSkew)
		return err
	})
	if err != nil {
		return nil, err
	}
	for ci, combo := range suite {
		base := results[ci*perCombo]
		for pi, pname := range policies {
			r := results[ci*perCombo+1+pi]
			m.Set(pname, combo.Name, float64(base.Duration)/float64(r.Duration))
		}
	}
	return m, nil
}

// CentralizedOptions parameterizes the structural comparison.
type CentralizedOptions struct {
	// Rail is the fixed global voltage the centralized design runs at
	// (it has no fast global voltage loop; all control is per-domain
	// allocation). Zero defaults to 1.05 V.
	Rail float64
	// Network is the metric-collection interconnect.
	Network noc.Config
	// Floor is the decision loop's intrinsic minimum period.
	Floor sim.Time
}

// RunCentralized executes one combo under the structurally centralized
// controller and returns the same metrics as Evaluator.Run.
func (ev *Evaluator) RunCentralized(combo Combo, limit config.PowerLimit, opts CentralizedOptions) (RunResult, error) {
	return ev.runCentralized(context.Background(), combo, limit, opts)
}

func (ev *Evaluator) runCentralized(ctx context.Context, combo Combo, limit config.PowerLimit, opts CentralizedOptions) (RunResult, error) {
	if opts.Rail == 0 {
		opts.Rail = 1.05
	}
	if opts.Floor == 0 {
		opts.Floor = 20 * sim.Microsecond
	}
	if opts.Network.MsgSerialization == 0 {
		opts.Network = noc.DefaultBus()
	}
	nodes := ev.Cfg.CPU.Cores + ev.Cfg.GPU.SMs + 1
	ctl, err := central.New(central.Config{
		TargetPower: TargetPowerFor(limit),
		Domains:     scalableDomains,
		Network:     opts.Network,
		Nodes:       nodes,
		Floor:       opts.Floor,
	})
	if err != nil {
		return RunResult{}, err
	}
	rail := config.Scheme{Kind: config.FixedVoltage, FixedV: opts.Rail}
	return ev.runVariant(ctx, RunSpec{Combo: combo, Scheme: rail, Limit: limit}, func(o *BuildOptions) {
		o.Supervisor = ctl
		// The centralized design still needs local control enabled so
		// the comparison isolates the control *topology*, not the
		// presence of level-3 controllers.
		o.ForceLocalControl = true
	})
}

// ExtensionCentralized compares HCAPP against the structurally
// centralized controller on both limits: rows are the two designs,
// values are max-power ratios (the §2 argument made quantitative).
func (ev *Evaluator) ExtensionCentralized(limit config.PowerLimit) (*Matrix, error) {
	rows := []string{"HCAPP", "Centralized"}
	m := NewMatrix(
		fmt.Sprintf("Extension: HCAPP vs centralized allocator, %s limit", limit.Name),
		"max power / limit", rows, comboNames())
	suite := Suite()
	results := make([]RunResult, 2*len(suite))
	err := ev.runner.Tasks(context.Background(), len(results), func(ctx context.Context, i int) (err error) {
		if combo := suite[i/2]; i%2 == 0 {
			results[i], err = ev.RunContext(ctx, hcappSpec(combo, limit))
		} else {
			results[i], err = ev.runCentralized(ctx, combo, limit, CentralizedOptions{})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for ci, combo := range suite {
		m.Set("HCAPP", combo.Name, results[2*ci].MaxOverLimit)
		m.Set("Centralized", combo.Name, results[2*ci+1].MaxOverLimit)
	}
	return m, nil
}

// ValidatePolicy checks that name is a known software policy without
// instantiating a run (used by the job server's request validation).
func ValidatePolicy(name string) error {
	_, err := policyByName(name)
	return err
}

// buildSupervisor constructs the supervisor a RunSpec's policy names.
func buildSupervisor(policy string) (sched.Supervisor, error) {
	if policy == "" {
		return nil, nil
	}
	p, err := policyByName(policy)
	if err != nil {
		return nil, err
	}
	if _, ok := p.(swctl.Neutral); ok {
		return nil, nil
	}
	return swctl.New(p, SoftwarePolicyPeriod, scalableDomains)
}
