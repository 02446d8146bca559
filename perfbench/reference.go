package main

import (
	"fmt"
	"strings"
	"time"

	"hcapp"
)

// The suite workload: the paper's Fig. 4, 5 and 10 over the eight Table 3
// combos, at a 2 ms simulated horizon so one batch takes seconds, not
// minutes, on two cores.
const (
	suiteExperiments = "fig4,fig5,fig10"
	suiteDurMS       = 2
	suiteWorkers     = 2
)

func suiteArgs(seed int64) []string {
	return []string{"-experiment", suiteExperiments, "-workers", fmt.Sprint(suiteWorkers),
		"-dur", fmt.Sprint(suiteDurMS), "-seed", fmt.Sprint(seed)}
}

// runRecord is one distinct simulation a suite batch performs.
type runRecord struct {
	Spec hcapp.RunSpec
	Res  hcapp.RunResult
}

// suiteRef is the in-process facade computation of a suite batch: the
// exact text hcappsim prints, and the runs behind it.
type suiteRef struct {
	Seed   int64
	Render string
	SimMS  float64 // simulated ms delivered by one batch
	Runs   []runRecord
	Mats   []*hcapp.Matrix // fig4, fig5, fig10
}

// suiteEvaluator is the evaluator hcappsim builds for the suite.
func suiteEvaluator(seed int64) *hcapp.Evaluator {
	ev := hcapp.NewEvaluator().WithTargetDur(suiteDurMS * hcapp.Millisecond).WithRunner(hcapp.NewRunner(suiteWorkers))
	ev.Cfg.Seed = seed
	return ev
}

// figureSpecs are the runs each figure asks its evaluator for: Fig. 4 the
// fixed-voltage baseline and the three HCAPP variants on every combo
// under the package-pin limit, Fig. 5 the baseline and HCAPP again, and
// Fig. 10 HCAPP unprioritised and with each component prioritised.
func figureSpecs(ev *hcapp.Evaluator) [][]hcapp.RunSpec {
	limit := hcapp.PackagePinLimit()
	fixed, hc := hcapp.FixedVoltageScheme(ev.FixedV), hcapp.HCAPPScheme()
	var f4, f5, f10 []hcapp.RunSpec
	for _, c := range hcapp.Suite() {
		for _, s := range []hcapp.Scheme{fixed, hc, hcapp.RAPLLikeScheme(), hcapp.SWLikeScheme()} {
			f4 = append(f4, hcapp.RunSpec{Combo: c, Scheme: s, Limit: limit})
		}
		for _, s := range []hcapp.Scheme{fixed, hc} {
			f5 = append(f5, hcapp.RunSpec{Combo: c, Scheme: s, Limit: limit})
		}
		f10 = append(f10, hcapp.RunSpec{Combo: c, Scheme: hc, Limit: limit})
		for _, comp := range []string{"cpu", "gpu", "sha"} {
			f10 = append(f10, hcapp.RunSpec{Combo: c, Scheme: hc, Limit: limit, Priorities: hcapp.PriorityFor(comp)})
		}
	}
	return [][]hcapp.RunSpec{f4, f5, f10}
}

// distinctSpecs are the suite's runs once each: Fig. 4's four schemes and
// Fig. 10's three prioritised runs per combo cover everything.
func distinctSpecs(ev *hcapp.Evaluator) []hcapp.RunSpec {
	figs := figureSpecs(ev)
	out := append([]hcapp.RunSpec(nil), figs[0]...)
	for _, s := range figs[2] {
		if s.Priorities != nil {
			out = append(out, s)
		}
	}
	return out
}

// figures runs the suite's figures on ev, in hcappsim's order.
func figures(ev *hcapp.Evaluator) ([]*hcapp.Matrix, error) {
	var out []*hcapp.Matrix
	for _, f := range []func() (*hcapp.Matrix, error){ev.Fig4, ev.Fig5, ev.Fig10} {
		m, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// renderFigures is hcappsim's output for the matrices: each rendering
// followed by a blank line.
func renderFigures(ms []*hcapp.Matrix) string {
	var b strings.Builder
	for _, m := range ms {
		b.WriteString(m.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// computeSuiteRef computes the suite batch for seed in process: the
// figures as hcappsim renders them, then each distinct run's result, which
// the evaluator answers from the cache the figures filled.
func computeSuiteRef(seed int64) (*suiteRef, error) {
	ev := suiteEvaluator(seed)
	mats, err := figures(ev)
	if err != nil {
		return nil, fmt.Errorf("facade suite seed %d: %w", seed, err)
	}
	ref := &suiteRef{Seed: seed, Render: renderFigures(mats), Mats: mats}
	for _, spec := range distinctSpecs(ev) {
		res, err := ev.Run(spec)
		if err != nil {
			return nil, fmt.Errorf("facade suite seed %d: %w", seed, err)
		}
		ref.Runs = append(ref.Runs, runRecord{Spec: spec, Res: res})
		ref.SimMS += float64(res.Duration) / float64(hcapp.Millisecond)
	}
	return ref, nil
}

// checkFig4 is the paper's headline claim: HCAPP holds every combo at or
// under the 20 µs package-pin limit.
func (r *suiteRef) checkFig4() error {
	for _, c := range hcapp.Suite() {
		v, ok := r.Mats[0].Get("HCAPP", c.Name)
		if !ok || !(v <= 1.0) {
			return fmt.Errorf("seed %d: Fig. 4 HCAPP %s max power / limit = %v, want <= 1.0", r.Seed, c.Name, v)
		}
	}
	return nil
}

// ref returns the suite reference for seed, computed once per process.
func (e *env) ref(seed int64) (*suiteRef, error) {
	if r, ok := e.refs[seed]; ok {
		return r, nil
	}
	r, err := computeSuiteRef(seed)
	if err != nil {
		return nil, err
	}
	if err := r.checkFig4(); err != nil {
		return nil, err
	}
	e.refs[seed] = r
	return r, nil
}

// phaseTimes is one facade run split into the Evaluator's phases.
type phaseTimes struct {
	Sizing, Build, Run, Reduce time.Duration
	Steps, Strided, Cycles     int64
	Res                        hcapp.Result
	MaxWindow                  float64
}

// facadeRun performs one Evaluator run by hand through the facade —
// SizeWork, Build, Engine.Run, then the recorder reductions a RunResult
// is made of — timing each phase. It attaches no observer.
func facadeRun(tr *tracer, parent int, trace string, seed int64, dur hcapp.Time, spec hcapp.RunSpec) (phaseTimes, error) {
	var pt phaseTimes
	defaults := hcapp.NewEvaluator()
	cfg := hcapp.DefaultConfig()
	cfg.Seed = seed

	t0 := time.Now()
	sz, err := hcapp.SizeWork(cfg, spec.Combo, defaults.FixedV, dur)
	t1 := time.Now()
	if err != nil {
		return pt, err
	}
	opts := hcapp.BuildOptions{
		Scheme:           spec.Scheme,
		Priorities:       spec.Priorities,
		CPUWork:          sz.CPUWork,
		GPUWork:          sz.GPUWork,
		AccelWorkGB:      sz.AccelGB,
		AdversarialAccel: spec.AdversarialAccel,
	}
	if spec.Scheme.Kind != hcapp.FixedVoltage {
		opts.TargetPower = hcapp.TargetPowerFor(spec.Limit)
	}
	sys, err := hcapp.Build(cfg, spec.Combo, opts)
	t2 := time.Now()
	if err != nil {
		return pt, err
	}
	res := sys.Engine.Run(hcapp.Time(float64(dur) * defaults.MaxDurFactor))
	t3 := time.Now()
	rec := sys.Engine.Recorder()
	pt.MaxWindow = rec.MaxWindowAvg(spec.Limit.Window)
	_ = rec.AvgPower()
	_ = rec.PPE(spec.Limit.Watts)
	t4 := time.Now()

	pt.Sizing, pt.Build, pt.Run, pt.Reduce = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	pt.Steps, pt.Strided, pt.Cycles = sys.Engine.Steps(), sys.Engine.StridedSteps(), res.ControlCycles
	pt.Res = res
	if tr != nil {
		id := tr.add(parent, trace, "experiment.eval", t0, t4)
		tr.add(id, trace, "experiment.sizing", t0, t1)
		tr.add(id, trace, "experiment.build", t1, t2)
		tr.add(id, trace, "sched.run", t2, t3)
		tr.add(id, trace, "experiment.reduce", t3, t4)
	}
	return pt, nil
}

// matches reports whether a facade run reproduced the Evaluator's result.
func (pt phaseTimes) matches(r hcapp.RunResult) bool {
	return pt.Res.Duration == r.Duration && pt.Res.ControlCycles == r.ControlCycles &&
		pt.Res.Completed == r.Completed && pt.MaxWindow == r.MaxWindowPower
}
