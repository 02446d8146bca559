// Command perfbench is the repository's end-to-end benchmark. It drives
// the hcappsim and hcapp-serve binaries over their CLI flags and HTTP API
// as child processes, checks every output, and prints each metric with
// its unit; the last line of stdout is one JSON result object.
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
//
// Workloads: suite (closed batches of the paper's figures), serve (an
// open loop of short jobs into hcapp-serve) and fleet (a coordinator and
// two workers answering cold and cached suite batches); "all" runs the
// three in turn. --trace 1 runs the traced variant, which reports the
// per-layer metrics instead. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// budget bounds one workload's run; past it the benchmark kills every
// child and exits.
const budget = 170 * time.Second

var passes = map[string]func(*env, time.Duration, *tracer) *report{
	"suite": suitePass,
	"serve": servePass,
	"fleet": fleetPass,
}

// workloadOrder is the order "all" runs them in.
var workloadOrder = []string{"suite", "serve", "fleet"}

// primary is each workload's metric for trace_overhead_frac. On fleet it
// is the cold batch wall time, because only cold batches reach the
// workers through the timing proxies, the one piece of tracing inside
// the system's path; hot batches are answered from the coordinator's
// cache. On suite and serve tracing adds only benchmark-side
// bookkeeping, so their figure is a noise floor.
var primary = map[string]string{
	"suite": "latency_p50_s",
	"serve": "latency_p50_s",
	"fleet": "cluster.batch_cold_s",
}

// Short traced passes of the workloads a traced run is not named for, so
// every per-layer metric is measured on every traced run.
var shortTraced = map[string]time.Duration{
	"serve": 5 * time.Second,
	"fleet": 4 * time.Second, // of hot batches, after about 8 s of cold ones
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		spinChild()
	}
	workload := flag.String("workload", "all", "suite, serve, fleet or all")
	seed := flag.Int64("seed", goldenSeed, "workload seed: the generated inputs are a function of it")
	seconds := flag.Int("seconds", 20, "measured seconds per workload")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built hcappsim and hcapp-serve")
	out := flag.String("out", ".bench_build/perfbench", "directory for span files and layer tables")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if passes[*workload] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: suite, serve, fleet, all)\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	e := &env{bin: *bin, out: *out, seed: *seed, procs: newProcs(), refs: map[int64]*suiteRef{}, goldenDone: map[string]bool{}}
	abort := func(why string) {
		e.procs.killAll()
		fmt.Fprintf(os.Stderr, "perfbench: %s; children killed\n", why)
		os.Exit(1)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() { abort(fmt.Sprintf("signal %v", <-sigs)) }()
	timer := time.AfterFunc(budget*time.Duration(len(names)), func() { abort("time budget exceeded") })

	total := newReport()
	metrics := map[string]metric{}
	var errs []error
	for _, name := range names {
		d := time.Duration(*seconds) * time.Second
		if err := e.startSpinners(); err != nil {
			abort(fmt.Sprintf("start spinners: %v", err))
		}
		var r *report
		var defs []metricDef
		if *traceFlag == 1 {
			r, defs = tracedRun(e, name, d), perLayer
		} else {
			r, defs = passes[name](e, d, nil), endToEnd
		}
		e.procs.killAll()
		ms, text, err := r.result(defs)
		fmt.Printf("== %s (seed %d, %ds, trace %d)\n%s", name, *seed, *seconds, *traceFlag, text)
		fmt.Printf("%-30s %16.9g %-6s %d failed of %d attempted\n", "error_frac", frac(r.failed, r.attempted), "ratio", r.failed, r.attempted)
		for _, msg := range r.errs {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, msg)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
		total.absorb(r, false)
		for k, v := range ms {
			if len(names) > 1 {
				k = name + "." + k
			}
			metrics[k] = v
		}
	}
	timer.Stop()

	res := result{Correct: total.failed == 0 && len(errs) == 0, Attempted: total.attempted, Failed: total.failed, Metrics: metrics}
	if res.Attempted == 0 {
		errs = append(errs, fmt.Errorf("no operation was attempted"))
		res.Correct = false
	}
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		abort(err.Error())
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tracedRun measures workload name untraced and traced for half the
// time each (the ratio of their primary metric is the tracing
// overhead), runs short traced passes of the other workloads whose
// layers it does not reach, and the in-process layer probe, then writes
// the spans.
func tracedRun(e *env, name string, d time.Duration) *report {
	out := newReport()
	base := passes[name](e, d/2, nil)
	out.absorb(base, false)

	tr := newTracer()
	own := passes[name](e, d/2, tr)
	out.absorb(own, true)
	for _, other := range workloadOrder {
		if other == name || shortTraced[other] == 0 {
			continue
		}
		out.absorb(passes[other](e, shortTraced[other], tr), true)
	}
	out.absorb(layerProbe(e, tr), true)

	m := primary[name]
	if b, t := base.values[m], own.values[m]; b > 0 && t > 0 {
		out.set("trace_overhead_frac", t/b-1, fmt.Sprintf("%s %s traced %.6g s / untraced %.6g s - 1", name, m, t, b))
	}
	stem := filepath.Join(e.out, fmt.Sprintf("%s-seed%d", name, e.seed))
	table, err := writeTrace(tr, stem)
	if err != nil {
		out.fail("write trace: %v", err)
		return out
	}
	fmt.Printf("== per-layer self time (%s.spans.json)\n%s", stem, table)
	return out
}
