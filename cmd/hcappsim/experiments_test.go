package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"hcapp/internal/experiment"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
)

// runIDs runs hcappsim's default mode on args in process and returns
// its stdout and error.
func runIDs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	_, o, err := parse(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = writeExperiments(&out, o)
	return out.String(), err
}

// TestConcurrentExperimentsMatchSequential: ids started together print
// byte for byte what each id prints run alone, one after another.
func TestConcurrentExperimentsMatchSequential(t *testing.T) {
	ids := []string{"table1", "fig4", "fig5", "fig10", "checks"}
	together, errTogether := runIDs(t, "-experiment", strings.Join(ids, ","), "-dur", "1")
	var alone strings.Builder
	var errAlone error
	for _, id := range ids {
		out, err := runIDs(t, "-experiment", id, "-dur", "1")
		alone.WriteString(out)
		if err != nil {
			errAlone = err
			break
		}
	}
	if together != alone.String() {
		t.Fatalf("ids together printed\n%s\neach alone printed\n%s", together, alone.String())
	}
	if fmt.Sprint(errTogether) != fmt.Sprint(errAlone) {
		t.Fatalf("ids together: error %v; each alone: %v", errTogether, errAlone)
	}
	if !strings.Contains(together, "Fig 10:") {
		t.Fatalf("output lacks Fig. 10:\n%s", together)
	}
}

// TestPrintInOrderStopsAtFirstFailure: the ids before a failing one
// print whole, the failing one prints its partial output and names
// itself in the error, and nothing of a later id is printed, however
// the ids' finishing order falls.
func TestPrintInOrderStopsAtFirstFailure(t *testing.T) {
	release := make(chan struct{})
	var out bytes.Buffer
	err := printInOrder(&out, []string{"a", "b", "c", "d"}, func(w io.Writer, id string) error {
		switch id {
		case "a":
			<-release // finishes after c, d and b's failure
			fmt.Fprintln(w, "A")
		case "b":
			fmt.Fprintln(w, "B partial")
			close(release)
			return errors.New("boom")
		case "c":
			fmt.Fprintln(w, "C")
		case "d":
			fmt.Fprintln(w, "D partial")
			return errors.New("later failure")
		}
		return nil
	})
	if want := "A\n\nB partial\n"; out.String() != want {
		t.Fatalf("printed %q, want %q", out.String(), want)
	}
	if err == nil || err.Error() != "b: boom" {
		t.Fatalf("error %v, want b: boom", err)
	}
}

// overlapProbe is a StepObserver that tells whether two engines ever
// stepped at once. An engine is known by its reused domain-sample
// slice. The first engine's first step is held open for hold: another
// engine stepping meanwhile ran beside it. After that, an engine that
// steps again after another one stepped, its clock still running on,
// overlapped it; a new engine whose slice landed where a finished one's
// was starts its clock over.
type overlapProbe struct {
	hold     time.Duration
	mu       sync.Mutex
	first    *sched.DomainSample
	company  chan struct{} // closed when a second engine steps
	cur      *sched.DomainSample
	last     map[*sched.DomainSample]sim.Time
	engines  int
	overlaps int
}

func (p *overlapProbe) ObserveSteps(now, _ sim.Time, _ int64, _ float64, domains []sched.DomainSample) {
	id := &domains[0]
	p.mu.Lock()
	wait := p.first == nil
	if wait {
		p.first = id
	} else if id != p.first && p.engines == 1 {
		close(p.company)
	}
	if id != p.cur {
		prev, seen := p.last[id]
		if seen && now > prev {
			p.overlaps++
		} else {
			p.engines++
		}
		p.cur = id
	}
	p.last[id] = now
	p.mu.Unlock()
	if wait {
		select {
		case <-p.company:
			p.mu.Lock()
			p.overlaps++
			p.mu.Unlock()
		case <-time.After(p.hold):
		}
	}
}

// TestWorkersOneRunsOneSimulationAtATime: at -workers 1, fig1's static
// run and fig4's batch started together still simulate one at a time:
// every simulation, inside a runner batch or not, holds a pool slot.
func TestWorkersOneRunsOneSimulationAtATime(t *testing.T) {
	_, o, err := parse([]string{"-experiment", "fig1,fig4", "-dur", "1", "-workers", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	probe := &overlapProbe{hold: 300 * time.Millisecond, company: make(chan struct{}), last: map[*sched.DomainSample]sim.Time{}}
	runner := experiment.NewRunner(o.workers)
	ev := experiment.NewEvaluator().WithTargetDur(durOf(o.dur)).WithRunner(runner)
	ev.Observer = probe
	start := time.Now()
	err = printInOrder(io.Discard, o.ids, func(w io.Writer, id string) error {
		return run(w, ev, runner, experiment.DefaultScalingConfig(), id, o.comboSpec)
	})
	if err != nil {
		t.Fatal(err)
	}
	if probe.engines != 33 {
		t.Fatalf("observed %d simulations, want fig1's 1 and fig4's 32", probe.engines)
	}
	if probe.overlaps != 0 {
		t.Fatalf("%d times a simulation stepped while another was under way at -workers 1 (%s)", probe.overlaps, time.Since(start))
	}
}
