package experiment

import (
	"fmt"

	"hcapp/internal/accelsim"
	"hcapp/internal/chiplet"
	"hcapp/internal/config"
	"hcapp/internal/core"
	"hcapp/internal/cpusim"
	"hcapp/internal/energy"
	"hcapp/internal/fault"
	"hcapp/internal/gpusim"
	"hcapp/internal/pid"
	"hcapp/internal/psn"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
	"hcapp/internal/thermal"
	"hcapp/internal/trace"
	"hcapp/internal/vr"
	"hcapp/internal/workload"
)

// DefaultTargetDuration is the nominal run length the work pools are
// sized for at the fixed-voltage operating point.
const DefaultTargetDuration = 16 * sim.Millisecond

// TargetPowerFor returns PSPEC — the global controller's power target —
// for a given limit. The target carries the guardband: a 20 µs window
// forces a larger margin below the 100 W limit than a 1 ms window
// because less overshoot can average away inside the window ("the power
// target is not the power limit because HCAPP will have maximum values
// above the power target and those cannot exceed the power limit",
// §5.1). Values come from the guardband calibration sweep
// (hcappsim tune -mode target regenerates it).
func TargetPowerFor(limit config.PowerLimit) float64 {
	if limit.Window <= 100*sim.Microsecond {
		return limit.Watts * 0.86
	}
	return limit.Watts * 0.99
}

// DefaultPID returns the Eq. 2 gains tuned for HCAPP's 1 µs control
// period per the §3.1 procedure (raise KP to the edge of instability,
// then raise KI until steady state is reached; KD unneeded → PI). The
// same continuous-time constants are reused unchanged at the RAPL-like
// and SW-like periods and across both power limits, as in the paper.
func DefaultPID(vrCfg vr.RegulatorConfig) pid.Config {
	return pid.Config{
		KP:          0.006,
		KI:          2500,
		KD:          0,
		FeedForward: 0.95, // ≈ average expected voltage (§3.1)
		OutMin:      vrCfg.VMin,
		OutMax:      vrCfg.VMax,
		// Throttle-fast/recover-slow asymmetry: over-limit excursions
		// are a hardware failure, undershoot only costs performance.
		OverGain: 12,
	}
}

// DefaultPIDFor returns the gains for one control variant. Each variant
// is the same Eq. 2 law discretized and stabilized for its own control
// period, the way the firmware (RAPL-like) or OS (SW-like) implementation
// of the same controller would be tuned: slower loops take larger
// per-update integral steps, so their continuous-time gains must shrink
// to stay stable, which is precisely why they "cannot react quickly
// enough to take advantage of the changes in power" (§5.2).
func DefaultPIDFor(scheme config.Scheme, vrCfg vr.RegulatorConfig) pid.Config {
	base := DefaultPID(vrCfg)
	switch scheme.Kind {
	case config.RAPLLike:
		base.KP, base.KI, base.OverGain = 0.003, 25, 3
	case config.SWLike:
		base.KP, base.KI, base.OverGain = 0.002, 3, 1
	}
	return base
}

// BuildOptions parameterizes system assembly.
type BuildOptions struct {
	Scheme config.Scheme
	// TargetPower is PSPEC for dynamic schemes; ignored for fixed.
	TargetPower float64
	// PID overrides DefaultPID when non-nil.
	PID *pid.Config
	// Priorities maps domain name ("cpu", "gpu", "sha") to a software
	// priority value; unlisted domains stay at 1.0 (§5.3).
	Priorities map[string]float64
	// Work pools of the paper package's single cpu, gpu and sha chiplet.
	// Zero values mean "run forever" — use SizeWork to fill them against
	// the fixed-voltage baseline. BuildTopology rejects them: a custom
	// package sizes its pools with Topology.SizingDur instead.
	CPUWork, GPUWork, AccelWorkGB float64
	// AdversarialAccel swaps the accelerator's pass-through local
	// controller for the §3.3.3 adversarial one.
	AdversarialAccel bool
	// Supervisor attaches a software-timescale controller (priority
	// register writer): a swctl policy or the centralized allocator.
	Supervisor sched.Supervisor
	// Observer receives live per-step telemetry from the engine (the
	// hcapp-serve metrics/trace hook); nil costs nothing.
	Observer sched.StepObserver
	// TrackEnergy attaches an energy ledger (internal/energy) fed from
	// the step-observer hook: share-based attributed plus ground-truth
	// per-unit energy accounting, exposed as System.Energy. Enables the
	// chiplets' per-unit meters — a few stores per unit per step, <5%
	// bench-guarded, and passive with respect to simulation state, so
	// results stay bit-identical with it on or off.
	TrackEnergy bool
	// ForceLocalControl enables level-3 controllers even under a
	// fixed-voltage rail (used by the centralized-allocator comparison,
	// which pins the rail but keeps per-unit control).
	ForceLocalControl bool
	// DisableLocalControl removes level-3 controllers from a dynamic
	// scheme — the "CAPP design lacking a local controller" ablation.
	DisableLocalControl bool
	// GPUController selects the GPU local controller design
	// ("dynamic-ipc" default, "dynamic-occupancy" for the GPU-CAPP
	// dynamic-warp alternative).
	GPUController string
	// EnableThermal attaches default thermal nodes to the CPU and GPU
	// chiplets (§3.3 protection; inert at evaluation power levels).
	EnableThermal bool
	// VoltageMargin selects guardbanded clocking instead of adaptive
	// clocking on the CPU and GPU chiplets (§3.5).
	VoltageMargin float64
	// Injector attaches a deterministic fault injector to the engine
	// step loop (internal/fault); nil costs one pointer compare per step.
	Injector *fault.Injector
	// Clamp, when non-nil, arms the package-level safety clamp with this
	// configuration (a zero CapW is filled from the power target's limit
	// by the caller — Build does not guess).
	Clamp *core.ClampConfig
	// Watchdog, when Timeout > 0, arms every scalable domain's watchdog.
	Watchdog core.WatchdogConfig
	// Holdover, when MaxAge > 0, arms the global controller's
	// stale-sample holdover (dynamic schemes only).
	Holdover core.HoldoverConfig

	// traces supplies the cpu and gpu chiplets' trace sets. An
	// Evaluator passes its own so that every build it makes shares
	// them; nil makes assemble generate fresh ones for this build.
	traces *traceSets
}

// System bundles an assembled engine with handles the experiments need.
type System struct {
	Engine *sched.Engine
	CPU    *chiplet.Chiplet
	GPU    *chiplet.Chiplet
	Accel  *accelsim.Accel
	// Energy is the attribution ledger; non-nil iff Opts.TrackEnergy.
	Energy *energy.Ledger
	Cfg    config.SystemConfig
	Opts   BuildOptions
}

// Build assembles the paper's Table 3 package — one CPU, one GPU, one
// SHA accelerator and the memory chiplet — for one combo under one
// scheme.
func Build(cfg config.SystemConfig, combo Combo, opts BuildOptions) (*System, error) {
	sys, err := assemble(cfg, Topology{Chiplets: []ChipletSpec{
		{Kind: "cpu", Benchmark: combo.CPU},
		{Kind: "gpu", Benchmark: combo.GPU},
		{Kind: "sha"},
		{Kind: "mem"},
	}}, opts)
	if err != nil {
		return nil, err
	}
	slots := sys.Engine.Slots()
	sys.CPU = slots[0].Comp.(*chiplet.Chiplet)
	sys.GPU = slots[1].Comp.(*chiplet.Chiplet)
	sys.Accel = slots[2].Comp.(*accelsim.Accel)
	return sys, nil
}

// assemble builds one package: every chiplet of topo under one global
// rail and one level-1 controller, each chiplet with its own level-2
// domain. Build, BuildTopology and the scaling sweep all come through
// here. opts.CPUWork, GPUWork and AccelWorkGB fill the cpu, gpu and sha
// pools (only Build sets them); topo.SizingDur, when set, sizes every
// compute chiplet at the fixed 0.95 V point instead.
func assemble(cfg config.SystemConfig, topo Topology, opts BuildOptions) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(topo.Chiplets) == 0 {
		return nil, fmt.Errorf("experiment: empty topology")
	}
	dynamic := opts.Scheme.Kind != config.FixedVoltage
	localCtl := (dynamic || opts.ForceLocalControl) && !opts.DisableLocalControl

	// Voltage delivery.
	gvrCfg := cfg.GlobalVR
	if !dynamic {
		if opts.Scheme.FixedV == 0 {
			return nil, fmt.Errorf("experiment: fixed scheme needs a voltage")
		}
		gvrCfg.VInit = opts.Scheme.FixedV
	}
	gvr, err := vr.NewRegulator(gvrCfg)
	if err != nil {
		return nil, err
	}
	sensor, err := vr.NewSensor(cfg.Sensor, cfg.TimeStep)
	if err != nil {
		return nil, err
	}
	line, err := psn.NewDelayLine(cfg.PSNDelay, cfg.TimeStep, gvrCfg.VInit)
	if err != nil {
		return nil, err
	}

	// Level-1 controller.
	var global *core.Global
	if dynamic {
		pcfg := DefaultPIDFor(opts.Scheme, gvrCfg)
		if opts.PID != nil {
			pcfg = *opts.PID
		}
		if opts.TargetPower <= 0 {
			return nil, fmt.Errorf("experiment: dynamic scheme %s needs a power target", opts.Scheme.Kind)
		}
		global, err = core.NewGlobal(core.GlobalConfig{
			Period:      opts.Scheme.ControlPeriod,
			TargetPower: opts.TargetPower,
			PID:         pcfg,
			Holdover:    opts.Holdover,
		})
		if err != nil {
			return nil, err
		}
	}

	// Chiplets and their level-2 controllers. Energy-ledger slots are
	// index-aligned with the engine slots, as ObserveSteps samples are.
	var th *thermal.Config
	if opts.EnableThermal {
		t := thermal.DefaultChiplet()
		th = &t
	}
	var accLocal core.Local
	if opts.AdversarialAccel {
		accLocal = core.Adversarial{}
	}
	sizeSec := sim.Seconds(topo.SizingDur)
	traces := opts.traces
	if traces == nil {
		traces = new(traceSets)
	}
	names := map[string]bool{}
	slots := make([]sched.Slot, len(topo.Chiplets))
	ledgerSlots := make([]energy.SlotConfig, len(topo.Chiplets))
	for i, spec := range topo.Chiplets {
		name := spec.Name
		if name == "" {
			name = spec.Kind
		}
		if names[name] {
			return nil, fmt.Errorf("experiment: duplicate chiplet name %q", name)
		}
		names[name] = true
		seed := spec.Seed
		if seed == 0 {
			seed = cfg.Seed
		}
		workScale := spec.WorkScale
		if workScale == 0 {
			workScale = 1
		}

		var comp sim.Component
		var domCfg config.DomainConfig
		ls := energy.SlotConfig{Domain: name, Benchmark: spec.Benchmark.Name}
		var units []workload.Unit
		if spec.Kind == "cpu" || spec.Kind == "gpu" {
			units, _, err = traces.chiplet(cfg, spec.Kind, spec.Benchmark, seed)
			if err != nil {
				return nil, fmt.Errorf("experiment: chiplet %d: %w", i, err)
			}
		}
		switch spec.Kind {
		case "cpu":
			c, err := cpusim.New(cfg.CPU, cfg.LocalCPU, cpusim.Options{
				Name:          name,
				Benchmark:     spec.Benchmark,
				Units:         units,
				LocalControl:  localCtl,
				TotalWork:     opts.CPUWork,
				Thermal:       th,
				VoltageMargin: opts.VoltageMargin,
			})
			if err != nil {
				return nil, fmt.Errorf("experiment: chiplet %d: %w", i, err)
			}
			if sizeSec > 0 {
				c.SetTotalWork(c.AvgIPSAt(0.95*cfg.CPUDomain.Scale) * sizeSec * workScale)
			}
			if opts.TrackEnergy {
				c.EnableUnitMeter()
			}
			comp, domCfg = c, cfg.CPUDomain
			ls.UnitLabel, ls.Meter = "core", c
		case "gpu":
			g, err := gpusim.New(cfg.GPU, cfg.LocalEpoch, gpusim.Options{
				Name:          name,
				Benchmark:     spec.Benchmark,
				Units:         units,
				LocalControl:  localCtl,
				TotalWork:     opts.GPUWork,
				Controller:    opts.GPUController,
				Thermal:       th,
				VoltageMargin: opts.VoltageMargin,
			})
			if err != nil {
				return nil, fmt.Errorf("experiment: chiplet %d: %w", i, err)
			}
			if sizeSec > 0 {
				g.SetTotalWork(g.AvgIPSAt(0.95*cfg.GPUDomain.Scale) * sizeSec * workScale)
			}
			if opts.TrackEnergy {
				g.EnableUnitMeter()
			}
			comp, domCfg = g, cfg.GPUDomain
			ls.UnitLabel, ls.Meter = "sm", g
		case "sha":
			a, err := accelsim.New(cfg.Accel, accelsim.Options{
				Name:        name,
				TotalWorkGB: opts.AccelWorkGB,
				Local:       accLocal,
			})
			if err != nil {
				return nil, fmt.Errorf("experiment: chiplet %d: %w", i, err)
			}
			if sizeSec > 0 {
				a.SetTotalWork(a.ThroughputAt(0.95*cfg.AccelDomain.Scale) * sizeSec * workScale)
			}
			comp, domCfg = a, cfg.AccelDomain
			ls.Benchmark, ls.Meter = "sha256", a
		case "mem":
			watts := spec.Watts
			if watts == 0 {
				watts = cfg.Mem.Power
			}
			// Mem has no meter: its constant draw is attributed to the
			// static "benchmark" exactly.
			comp, domCfg = chiplet.NewConstant(name, watts), cfg.MemDomain
			ls.Benchmark = "static"
		default:
			return nil, fmt.Errorf("experiment: chiplet %d: unknown kind %q", i, spec.Kind)
		}

		dom, err := core.NewDomain(name, domCfg)
		if err != nil {
			return nil, err
		}
		if p, ok := opts.Priorities[name]; ok {
			dom.SetPriority(p)
		}
		if opts.Watchdog.Timeout > 0 {
			dom.EnableWatchdog(opts.Watchdog)
		}
		slots[i] = sched.Slot{Domain: dom, Comp: comp}
		ledgerSlots[i] = ls
	}

	rec, err := trace.NewRecorder(cfg.TimeStep)
	if err != nil {
		return nil, err
	}
	var clamp *core.Clamp
	if opts.Clamp != nil {
		clamp, err = core.NewClamp(*opts.Clamp)
		if err != nil {
			return nil, err
		}
	}
	obs := opts.Observer
	var ledger *energy.Ledger
	if opts.TrackEnergy {
		ledger = energy.NewLedger(ledgerSlots)
		obs = sched.Observers(ledger, opts.Observer)
	}
	eng, err := sched.New(sched.Config{
		DT:         cfg.TimeStep,
		GlobalVR:   gvr,
		Sensor:     sensor,
		PSN:        line,
		Droop:      psn.Droop{R: cfg.DroopOhms},
		Global:     global,
		Slots:      slots,
		Recorder:   rec,
		Supervisor: opts.Supervisor,
		Observer:   obs,
		Injector:   opts.Injector,
		Clamp:      clamp,
	})
	if err != nil {
		return nil, err
	}
	return &System{Engine: eng, Energy: ledger, Cfg: cfg, Opts: opts}, nil
}

// Sizing holds the work pools that make the fixed-voltage baseline run
// for the target duration — identical across schemes so completion-time
// speedups are comparable.
type Sizing struct {
	CPUWork, GPUWork float64
	AccelGB          float64
}

// SizeWork computes work pools for a combo from the fixed-voltage
// operating point: steady-state instruction/throughput rates at the
// fixed global voltage times the target duration.
func SizeWork(cfg config.SystemConfig, combo Combo, fixedV float64, dur sim.Time) (Sizing, error) {
	return sizeWork(cfg, combo, fixedV, dur, new(traceSets))
}

// sizeWork is SizeWork over the chiplets' trace sets from traces. The
// rates are the ones a fixed-voltage build of combo would report
// (Chiplet.AvgIPSAt and Accel.ThroughputAt at the domain voltages),
// read from the traces and the accelerator's table without assembling
// that system.
func sizeWork(cfg config.SystemConfig, combo Combo, fixedV float64, dur sim.Time, traces *traceSets) (Sizing, error) {
	if err := cfg.Validate(); err != nil {
		return Sizing{}, err
	}
	if fixedV == 0 {
		return Sizing{}, fmt.Errorf("experiment: fixed scheme needs a voltage")
	}
	cpu, cpuDVFS, err := traces.chiplet(cfg, "cpu", combo.CPU, cfg.Seed)
	if err != nil {
		return Sizing{}, err
	}
	gpu, gpuDVFS, err := traces.chiplet(cfg, "gpu", combo.GPU, cfg.Seed)
	if err != nil {
		return Sizing{}, err
	}
	acc, err := accelsim.New(cfg.Accel, accelsim.Options{})
	if err != nil {
		return Sizing{}, err
	}
	sec := sim.Seconds(dur)
	return Sizing{
		CPUWork: avgIPS(cpu, cpuDVFS, fixedV*cfg.CPUDomain.Scale) * sec,
		GPUWork: avgIPS(gpu, gpuDVFS, fixedV*cfg.GPUDomain.Scale) * sec,
		AccelGB: acc.ThroughputAt(fixedV*cfg.AccelDomain.Scale) * sec,
	}, nil
}
