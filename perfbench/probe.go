package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hcapp"
)

// layerProbe measures the in-process layers through the public facade on
// the suite batch of the run's seed: sched and experiment from a by-hand
// Evaluator run of every distinct spec (SizeWork, Build, Engine.Run,
// reductions), runner from fanning those runs over a Runner of the
// suite's width, and the Evaluator's cache sharing and rendering from
// its figure methods.
func layerProbe(e *env, tr *tracer) *report {
	r := newReport()
	ref, err := e.ref(e.seed)
	if err != nil {
		r.fail("%v", err)
		return r
	}
	dur := hcapp.Time(suiteDurMS * hcapp.Millisecond)

	// Every distinct run of the batch, by hand, over the suite's runner.
	n := len(ref.Runs)
	pts := make([]phaseTimes, n)
	starts := make([]time.Time, n)
	ends := make([]time.Time, n)
	runner := hcapp.NewRunner(suiteWorkers)
	called := time.Now()
	root := tr.add(0, "probe", "runner.tasks", called, called) // end set below
	var mu sync.Mutex
	var errs []error
	err = runner.Tasks(context.Background(), n, func(_ context.Context, i int) error {
		starts[i] = time.Now()
		pt, err := facadeRun(tr, root, "probe", ref.Seed, dur, ref.Runs[i].Spec)
		ends[i] = time.Now()
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			errs = append(errs, err)
		case !pt.matches(ref.Runs[i].Res):
			errs = append(errs, fmt.Errorf("facade run of %s differs from the Evaluator's result", specName(ref.Runs[i].Spec)))
		}
		pts[i] = pt
		return nil
	})
	done := time.Now()
	if err != nil {
		errs = append(errs, err)
	}
	for _, err := range errs {
		r.fail("layer probe: %v", err)
	}
	if len(errs) > 0 {
		return r
	}
	r.ok()
	tr.setSpan(root, called, done)

	var sizing, build, run, reduce, waits []float64
	var steps, strided, cycles int64
	var runNS, busy float64
	lastEnd, prevEnd := time.Time{}, time.Time{}
	for i, pt := range pts {
		sizing = append(sizing, pt.Sizing.Seconds())
		build = append(build, pt.Build.Seconds())
		run = append(run, pt.Run.Seconds())
		reduce = append(reduce, pt.Reduce.Seconds())
		waits = append(waits, starts[i].Sub(called).Seconds())
		steps += pt.Steps
		strided += pt.Strided
		cycles += pt.Cycles
		runNS += float64(pt.Run.Nanoseconds())
		busy += ends[i].Sub(starts[i]).Seconds()
		switch {
		case ends[i].After(lastEnd):
			prevEnd, lastEnd = lastEnd, ends[i]
		case ends[i].After(prevEnd):
			prevEnd = ends[i]
		}
	}
	r.set("sched.ns_per_step", runNS/float64(steps), fmt.Sprintf("Engine.Run time / Steps() over %d runs", n))
	r.set("sched.strided_frac", float64(strided)/float64(steps), "StridedSteps() / Steps() at default settings")
	r.set("sched.steps", float64(steps), fmt.Sprintf("seed %d suite batch", ref.Seed))
	r.set("sched.control_cycles", float64(cycles), fmt.Sprintf("seed %d suite batch", ref.Seed))
	r.set("experiment.sizing_s", median(sizing), "SizeWork per run, median")
	r.set("experiment.build_s", median(build), "Build per run, median")
	r.set("experiment.run_s", median(run), "Engine.Run per run, median")
	r.set("experiment.reduce_s", median(reduce), "recorder reductions per run, median")
	wall := done.Sub(called).Seconds()
	r.set("runner.busy_frac", busy/(float64(runner.Workers())*wall), fmt.Sprintf("%d tasks on %d workers in %.3f s", n, runner.Workers(), wall))
	r.set("runner.wait_p50_s", median(waits), "Tasks call to task start, median")
	r.set("runner.tail_s", lastEnd.Sub(prevEnd).Seconds(), "time the last task ran alone")

	// Cache sharing: ask one fresh evaluator for each figure's runs in
	// hcappsim's order and count the calls its cache answers. A cached
	// answer takes microseconds; a simulated one at least tens of ms.
	ev := hcapp.NewEvaluator().WithTargetDur(dur)
	ev.Cfg.Seed = ref.Seed
	calls, hits := 0, 0
	for _, specs := range figureSpecs(ev) {
		for _, spec := range specs {
			t0 := time.Now()
			if _, err := ev.Run(spec); err != nil {
				r.fail("cache probe %s: %v", specName(spec), err)
				return r
			}
			calls++
			if time.Since(t0) < cachedRunMax {
				hits++
			}
		}
	}
	r.set("experiment.cache_hit_frac", float64(hits)/float64(calls),
		fmt.Sprintf("%d of %d Evaluator.Run calls for fig4, fig5, fig10 answered from cache", hits, calls))

	// Rendering is microseconds: time many and take the median.
	var render []float64
	for i := 0; i < 201; i++ {
		t0 := time.Now()
		out := renderFigures(ref.Mats)
		render = append(render, time.Since(t0).Seconds())
		if len(out) != len(ref.Render) {
			r.fail("render length changed")
			return r
		}
	}
	t0 := time.Now()
	renderFigures(ref.Mats)
	tr.add(0, "probe-render", "experiment.render", t0, time.Now())
	r.set("experiment.render_s", median(render), "Matrix.Render of fig4, fig5 and fig10, median of 201")
	return r
}

// cachedRunMax separates an Evaluator.Run answered from the cache (a map
// lookup) from one that simulates (tens of ms or more at the suite's
// horizon).
const cachedRunMax = 5 * time.Millisecond

func specName(s hcapp.RunSpec) string {
	return fmt.Sprintf("%s/%s/%v", s.Combo.Name, s.Scheme.Kind, s.Priorities)
}
