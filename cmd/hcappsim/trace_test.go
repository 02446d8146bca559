package main

import (
	"io"
	"runtime"
	"testing"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/sim"
)

// TestFig3AllocsGrowWithTotalSeriesOnly is the horizon guard on
// `hcappsim trace -fig 3`: going from a 2 ms to an 8 ms run, the bytes
// it allocates may grow by no more than the same run with no observer
// grows, plus a budget per extra output sample. Every column, the
// package total's among them, must cost per bucket, not per step: seven
// per-step columns grow it by about 26 MB, one by about 3 MB.
func TestFig3AllocsGrowWithTotalSeriesOnly(t *testing.T) {
	hcapp, err := config.SchemeByKind(config.HCAPP)
	if err != nil {
		t.Fatal(err)
	}
	combo, err := experiment.ComboByName("Burst-Burst")
	if err != nil {
		t.Fatal(err)
	}
	spec := experiment.RunSpec{Combo: combo, Scheme: hcapp, Limit: config.PackagePinLimit()}
	const sample = 20 * sim.Microsecond
	allocated := func(dur sim.Time, run func(ev *experiment.Evaluator)) uint64 {
		ev := experiment.NewEvaluator().WithTargetDur(dur)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run(ev)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	fig3 := func(ev *experiment.Evaluator) {
		if err := voltageTrace(io.Discard, ev, spec, sample); err != nil {
			t.Fatal(err)
		}
	}
	bare := func(ev *experiment.Evaluator) {
		eng, err := tracedEngine(ev, spec)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunFor(ev.TargetDur)
	}
	const short, long = 2 * sim.Millisecond, 8 * sim.Millisecond
	growth := int64(allocated(long, fig3)) - int64(allocated(short, fig3))
	run := int64(allocated(long, bare)) - int64(allocated(short, bare))
	// Each extra bucket closes nine sampler series (the rail, and power
	// and voltage of four slots), three energy columns, one total-series
	// point and one CSV row: 2 KiB covers them with append slack.
	const perSample = 2 << 10
	bound := run + int64((long-short)/sample)*perSample
	t.Logf("2 → 8 ms: fig 3 allocates %d more bytes; the bare run %d, bound %d", growth, run, bound)
	if growth > bound {
		t.Fatalf("fig 3 allocates %d more bytes at 8 ms than at 2 ms, over the bare run's %d plus %d per extra sample (%d)",
			growth, run, perSample, bound)
	}
}
