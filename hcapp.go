// Package hcapp is a pure-Go reproduction of HCAPP — Heterogeneous
// Constant Average Power Processing (Straube et al., ICPP 2020) — a
// decentralized, hardware-speed power-control hierarchy for
// heterogeneous 2.5D integrated systems, together with the full
// co-simulated evaluation platform the paper used: an 8-core CPU
// chiplet, a 15-SM GPU chiplet, a SHA accelerator chiplet, voltage
// regulator and power-supply-network models, synthetic PARSEC/Rodinia
// workload proxies, and the RAPL-like / software-like baselines.
//
// # Quick start
//
//	ev := hcapp.NewEvaluator()
//	combo, _ := hcapp.ComboByName("Hi-Hi")
//	res, _ := ev.Run(hcapp.RunSpec{
//		Combo:  combo,
//		Scheme: hcapp.HCAPPScheme(),
//		Limit:  hcapp.PackagePinLimit(),
//	})
//	fmt.Printf("PPE %.1f%%, max window power %.1f W\n", 100*res.PPE, res.MaxWindowPower)
//
// Figures and tables from the paper regenerate through the Evaluator's
// Fig4..Fig10 methods, the Table helpers, and the cmd/hcappsim binary.
//
// The architecture follows the paper's three control levels: a global
// PID voltage controller holding the package power target (Eq. 1–2),
// per-chiplet domain controllers that normalize the rail and expose the
// software priority register (§3.2), and per-unit local controllers
// that shift power toward the units converting it into work (§3.3).
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package hcapp

import (
	"io"

	"hcapp/internal/config"
	"hcapp/internal/energy"
	"hcapp/internal/experiment"
	"hcapp/internal/psn"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
	"hcapp/internal/workload"
)

// Core configuration and result types. These are aliases of the
// implementation types so the whole evaluation surface is reachable
// from the public package.
type (
	// SystemConfig is the full simulated 2.5D package configuration
	// (Table 2 machine parameters, power models, delivery network).
	SystemConfig = config.SystemConfig
	// Scheme selects a power-control scheme (fixed voltage, HCAPP,
	// RAPL-like, SW-like).
	Scheme = config.Scheme
	// SchemeKind enumerates the scheme families.
	SchemeKind = config.SchemeKind
	// PowerLimit is a maximum power over a sliding time window.
	PowerLimit = config.PowerLimit
	// Combo is a Table 3 benchmark combination.
	Combo = experiment.Combo
	// Evaluator runs and caches experiment simulations.
	Evaluator = experiment.Evaluator
	// RunSpec identifies one simulation run.
	RunSpec = experiment.RunSpec
	// RunResult carries a run's power and completion metrics.
	RunResult = experiment.RunResult
	// Matrix is a rendered figure: one value per (series, combo).
	Matrix = experiment.Matrix
	// ScalingConfig parameterizes the chiplet-count scaling sweep.
	ScalingConfig = experiment.ScalingConfig
	// ScalingResult is the scaling sweep outcome.
	ScalingResult = experiment.ScalingResult
	// BuildOptions parameterizes direct system assembly.
	BuildOptions = experiment.BuildOptions
	// System is a fully assembled simulated package.
	System = experiment.System
	// Sizing holds per-component work pools.
	Sizing = experiment.Sizing
	// TracePoint is one sample of a down-sampled power series.
	TracePoint = trace.Point
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// Result is a direct engine run's outcome (duration, completion).
	Result = sched.Result
	// StepObserver receives live per-step engine telemetry (total and
	// per-domain power/voltage) — the hook hcapp-serve publishes
	// metrics through.
	StepObserver = sched.StepObserver
	// DomainSample is one domain's per-step telemetry sample.
	DomainSample = sched.DomainSample
)

// Re-exported time units for building durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Scheme kinds.
const (
	FixedVoltage = config.FixedVoltage
	HCAPP        = config.HCAPP
	RAPLLike     = config.RAPLLike
	SWLike       = config.SWLike
)

// DefaultConfig returns the calibrated evaluation system of the paper's
// §4: 8-core CPU, 15-SM GPU, SHA accelerator, memory domain, 100 W
// class package.
func DefaultConfig() SystemConfig { return config.Default() }

// NewEvaluator returns an evaluator over the default target system.
func NewEvaluator() *Evaluator { return experiment.NewEvaluator() }

// Suite returns the Table 3 heterogeneous test suite.
func Suite() []Combo { return experiment.Suite() }

// ComboByName looks up a Table 3 combination ("Hi-Hi", "Burst-Low", …).
func ComboByName(name string) (Combo, error) { return experiment.ComboByName(name) }

// PackagePinLimit returns the fast power limit: 100 W over 20 µs.
func PackagePinLimit() PowerLimit { return config.PackagePinLimit() }

// OffPackageVRLimit returns the slow power limit: 100 W over 1 ms.
func OffPackageVRLimit() PowerLimit { return config.OffPackageVRLimit() }

// HCAPPScheme returns HCAPP at its 1 µs control period.
func HCAPPScheme() Scheme { return mustScheme(config.HCAPP) }

// RAPLLikeScheme returns the RAPL-like variant (100 µs control period).
func RAPLLikeScheme() Scheme { return mustScheme(config.RAPLLike) }

// SWLikeScheme returns the software-like variant (10 ms control period).
func SWLikeScheme() Scheme { return mustScheme(config.SWLike) }

// FixedVoltageScheme returns the static baseline at the given global
// voltage (the paper's baseline uses 0.95 V).
func FixedVoltageScheme(v float64) Scheme {
	return Scheme{Kind: config.FixedVoltage, FixedV: v}
}

func mustScheme(k config.SchemeKind) Scheme {
	s, err := config.SchemeByKind(k)
	if err != nil {
		panic(err)
	}
	return s
}

// Build assembles a simulated package directly, for callers that want
// to drive the engine themselves (see examples/adversarial). Its
// recorder answers MaxWindowAvg over the paper's two limit windows,
// 20 µs and 1 ms, and keeps no per-step series: attach a StepObserver
// for any other per-step analysis.
func Build(cfg SystemConfig, combo Combo, opts BuildOptions) (*System, error) {
	return experiment.Build(cfg, combo, opts)
}

// SizeWork computes per-component work pools sized so the fixed-voltage
// baseline finishes in roughly dur.
func SizeWork(cfg SystemConfig, combo Combo, fixedV float64, dur Time) (Sizing, error) {
	return experiment.SizeWork(cfg, combo, fixedV, dur)
}

// TargetPowerFor returns the calibrated power target (PSPEC) for a
// limit: the limit minus the guardband its window requires.
func TargetPowerFor(limit PowerLimit) float64 { return experiment.TargetPowerFor(limit) }

// PriorityFor returns the §5.3 static software priority register
// settings that prioritize one component ("cpu", "gpu" or "sha").
func PriorityFor(component string) map[string]float64 {
	return experiment.PriorityFor(component)
}

// Runner fans experiment runs over a bounded worker pool. A nil
// *Runner means sequential execution; results are always assembled in
// deterministic spec order, so output is byte-identical at any width.
type Runner = experiment.Runner

// NewRunner builds a parallel run scheduler of the given width
// (workers < 1 selects runtime.NumCPU()).
func NewRunner(workers int) *Runner { return experiment.NewRunner(workers) }

// RunScaling executes the chiplet-count scalability sweep.
func RunScaling(cfg SystemConfig, sc ScalingConfig) (*ScalingResult, error) {
	return experiment.RunScaling(cfg, sc)
}

// RunScalingWith executes the scaling sweep over a runner.
func RunScalingWith(r *Runner, cfg SystemConfig, sc ScalingConfig) (*ScalingResult, error) {
	return experiment.RunScalingWith(r, cfg, sc)
}

// DefaultScalingConfig returns the standard scaling sweep.
func DefaultScalingConfig() ScalingConfig { return experiment.DefaultScalingConfig() }

// Table1 renders the paper's Table 1 control-delay budget.
func Table1() string { return experiment.Table1() }

// Table1Feasible reports whether the round-trip delay budget fits the
// HCAPP control period.
func Table1Feasible() bool { return experiment.Table1Feasible() }

// Table3 renders the paper's Table 3 benchmark combinations.
func Table3() string { return experiment.Table3() }

// DelayBudget exposes the Table 1 model for programmatic use.
func DelayBudget() psn.Budget { return psn.Table1() }

// CentralizedOptions parameterizes the structurally centralized
// comparison controller (see internal/central).
type CentralizedOptions = experiment.CentralizedOptions

// SoftwarePolicyPeriod is the OS control timescale the software policies
// run at.
const SoftwarePolicyPeriod = experiment.SoftwarePolicyPeriod

// Check is one shape assertion from the paper's evaluation.
type Check = experiment.Check

// Failed filters a check list down to failures.
func Failed(checks []Check) []Check { return experiment.Failed(checks) }

// ChipletSpec describes one chiplet of a custom package topology.
type ChipletSpec = experiment.ChipletSpec

// Topology is a custom package layout: any mix of chiplets under one
// global rail and one HCAPP controller.
type Topology = experiment.Topology

// Benchmark is a workload proxy (built-in or custom).
type Benchmark = workload.Benchmark

// WorkloadSpec is the JSON description of a custom benchmark.
type WorkloadSpec = workload.SpecJSON

// BenchmarkByName looks up a built-in workload proxy ("ferret",
// "backprop", …).
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// LoadBenchmarks parses custom benchmark definitions from JSON (see
// workload.SpecJSON for the schema).
func LoadBenchmarks(r io.Reader) ([]Benchmark, error) { return workload.ParseBenchmarks(r) }

// BuildTopology assembles a custom package (see examples/custom) with
// the same options as Build; the topology sizes its own work pools.
func BuildTopology(cfg SystemConfig, topo Topology, opts BuildOptions) (*sched.Engine, error) {
	return experiment.BuildTopology(cfg, topo, opts)
}

// Engine is the co-simulation engine driving a package.
type Engine = sched.Engine

// SeedSweep summarizes headline-metric robustness across workload seeds.
type SeedSweep = experiment.SeedSweep

// RunSeedSweep re-runs the suite under each seed and summarizes the
// headline metrics.
func RunSeedSweep(seeds []int64, limit PowerLimit, dur Time) (*SeedSweep, error) {
	return experiment.RunSeedSweep(seeds, limit, dur)
}

// RunSeedSweepWith runs the seed sweep with the per-seed loop fanned
// over a runner.
func RunSeedSweepWith(r *Runner, seeds []int64, limit PowerLimit, dur Time) (*SeedSweep, error) {
	return experiment.RunSeedSweepWith(r, nil, seeds, limit, dur)
}

// ComboSpec is the JSON description of a custom benchmark combination.
type ComboSpec = experiment.ComboSpecJSON

// ParseSuite reads a custom evaluation suite from JSON, resolving
// benchmark names against the built-in registry and the supplied custom
// benchmarks.
func ParseSuite(r io.Reader, custom []Benchmark) ([]Combo, error) {
	return experiment.ParseSuite(r, custom)
}

// Robustness and claim-validation result types.
type (
	// FaultScenario is one sensor-defect case.
	FaultScenario = experiment.FaultScenario
	// FaultResult is a fault-injection outcome.
	FaultResult = experiment.FaultResult
	// RetargetResult validates the §5.2 dynamic power-limit change.
	RetargetResult = experiment.RetargetResult
)

// Energy attribution and chargeback (internal/energy, docs/ENERGY.md).
type (
	// EnergyLedger integrates per-unit attributed and ground-truth
	// energy off the StepObserver hook (BuildOptions.TrackEnergy).
	EnergyLedger = energy.Ledger
	// EnergySummary is a ledger snapshot: per-component attributed and
	// true joules plus per-domain totals and uncore.
	EnergySummary = energy.Summary
	// EnergyReport is the attribution-accuracy experiment outcome.
	EnergyReport = experiment.EnergyReport
	// DomainAccuracy grades share-based attribution for one domain.
	DomainAccuracy = energy.DomainAccuracy
)

// RenderEnergyAttribution formats the attribution-accuracy report
// (hcappsim -experiment energy).
func RenderEnergyAttribution(r *EnergyReport) string {
	return experiment.RenderEnergyAttribution(r)
}
