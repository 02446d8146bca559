package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// env is what every workload pass shares.
type env struct {
	bin   string // directory holding hcappsim and hcapp-serve
	out   string // directory for span files
	seed  int64
	procs *procs
	refs  map[int64]*suiteRef // by seed
	// goldenDone records which golden checks already ran in this process.
	goldenDone map[string]bool
}

func (e *env) hcappsim() string { return filepath.Join(e.bin, "hcappsim") }
func (e *env) serve() string    { return filepath.Join(e.bin, "hcapp-serve") }

// batch is one hcappsim process run to completion.
type batch struct {
	Seed   int64
	Due    time.Time // when the closed loop wanted it to start
	Sent   time.Time // when the process had been started
	End    time.Time
	Out    string
	CPUS   float64
	RSSMB  float64
	Err    error
	Trace  string // the batch's trace id
	SpanID int    // the batch's span, 0 when untraced
}

func (b *batch) latency() float64 { return b.End.Sub(b.Due).Seconds() }

// runBatch runs one hcappsim process from due to exit and records it as
// a span named name when tr is set.
func (e *env) runBatch(tr *tracer, name, trace string, due time.Time, seed int64, args ...string) *batch {
	b := &batch{Seed: seed, Due: due, Trace: trace}
	c, err := e.procs.start("hcappsim", true, e.hcappsim(), args...)
	b.Sent = time.Now()
	if err != nil {
		b.Err, b.End = err, b.Sent
		return b
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	b.Err = c.wait(ctx)
	b.End = time.Now()
	b.Out = c.stdout.String()
	if b.Err == nil {
		b.CPUS, b.RSSMB = c.usage()
	}
	b.SpanID = tr.add(0, trace, name, due, b.End)
	return b
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// suiteSetupRuns is how many times set-up is repeated per run; its
// median is reported.
const suiteSetupRuns = 21

// suitePass runs closed-loop suite batches for d and reports the
// end-to-end metrics.
func suitePass(e *env, d time.Duration, tr *tracer) *report {
	r := newReport()
	if _, err := binaryVersion(e.hcappsim()); err != nil {
		r.fail("%v", err)
		return r
	}

	// Set-up: hcappsim's non-simulating tables, so process start, flag
	// parsing and evaluator construction show without any simulation.
	var setups []float64
	for i := 0; i < suiteSetupRuns; i++ {
		b := e.runBatch(nil, "", "", time.Now(), 0, "-experiment", "table1,table2,table3")
		if b.Err == nil && !strings.Contains(b.Out, "Table 3") {
			b.Err = fmt.Errorf("hcappsim tables: output lacks Table 3")
		}
		r.check(b.Err)
		setups = append(setups, b.End.Sub(b.Sent).Seconds())
	}
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d hcappsim table1,table2,table3 runs", suiteSetupRuns))

	if !e.goldenDone["suite"] {
		b := e.runBatch(nil, "", "", time.Now(), goldenSeed, suiteArgs(goldenSeed)...)
		switch {
		case b.Err != nil:
			r.fail("golden suite batch: %v", b.Err)
		case sha(b.Out) != goldenSuite:
			r.fail("suite output for seed %d: sha256 %s, golden %s", goldenSeed, sha(b.Out), goldenSuite)
		default:
			r.ok()
		}
		e.goldenDone["suite"] = true
	}

	// The timed closed loop: each batch starts when the last one ends.
	seed := e.seed
	var batches []*batch
	start := time.Now()
	due := start
	for time.Since(start) < d || len(batches) < 3 {
		b := e.runBatch(tr, "experiment.batch", fmt.Sprintf("batch-%d", len(batches)), due, seed, suiteArgs(seed)...)
		batches = append(batches, b)
		if b.Err != nil {
			break
		}
		due = b.End
	}

	ref, err := e.ref(seed)
	if err != nil {
		r.fail("%v", err)
		return r
	}
	var lat, cpu, rss []float64
	for _, b := range batches {
		switch {
		case b.Err != nil:
			r.fail("suite batch: %v", b.Err)
			continue
		case b.Out != ref.Render:
			r.fail("suite batch seed %d: hcappsim output differs from the facade's rendering", seed)
			continue
		}
		r.ok()
		lat = append(lat, b.latency())
		cpu = append(cpu, b.CPUS)
		rss = append(rss, b.RSSMB)
	}
	if len(lat) == 0 {
		return r
	}
	wall := batches[len(batches)-1].End.Sub(start).Seconds()
	r.set("sim_ms_per_s", float64(len(lat))*ref.SimMS/wall,
		fmt.Sprintf("%d batches x %.3f simulated ms in %.3f s", len(lat), ref.SimMS, wall))
	r.set("latency_p50_s", median(lat), fmt.Sprintf("batch wall time, n=%d", len(lat)))
	r.setTail("latency_tail_s", windowTail(lat))
	r.set("cpu_s", median(cpu), "hcappsim user+sys CPU per batch (rusage), median")
	r.set("peak_rss_mb", median(rss), "hcappsim peak RSS per batch (rusage), median")
	return r
}
