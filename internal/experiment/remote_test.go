package experiment

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hcapp/internal/config"
	"hcapp/internal/sim"
)

// fakeRemote is a RemoteRunner that records every batch it is sent and
// answers each spec with a synthetic result whose AvgPower numbers the
// call and ControlCycles the spec's place in it. A spec whose Policy
// starts with "fail" fails the batch, reported as the lowest-index
// such spec. When gate is set, the first call signals started and then
// waits for the gate to close or its context to end.
type fakeRemote struct {
	mu      sync.Mutex
	calls   [][]RunSpec
	gate    chan struct{}
	started chan struct{}
}

func (f *fakeRemote) RunRemote(ctx context.Context, _ int64, _ sim.Time, _, _ float64, _ bool, specs []RunSpec) ([]RunResult, error) {
	f.mu.Lock()
	f.calls = append(f.calls, append([]RunSpec(nil), specs...))
	call := len(f.calls)
	f.mu.Unlock()
	if call == 1 && f.gate != nil {
		close(f.started)
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out := make([]RunResult, len(specs))
	for i, s := range specs {
		if len(s.Policy) >= 4 && s.Policy[:4] == "fail" {
			return nil, fmt.Errorf("item %d: %s", i, s.Policy)
		}
		out[i] = RunResult{Spec: s, AvgPower: float64(call), ControlCycles: int64(i)}
	}
	return out, nil
}

func (f *fakeRemote) batches() [][]RunSpec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]RunSpec(nil), f.calls...)
}

// remoteSpecs returns n distinct HCAPP specs.
func remoteSpecs(t *testing.T, n int) []RunSpec {
	t.Helper()
	suite := Suite()
	if n > len(suite) {
		t.Fatalf("want %d distinct specs, suite has %d", n, len(suite))
	}
	specs := make([]RunSpec, n)
	for i := range specs {
		specs[i] = RunSpec{Combo: suite[i], Scheme: mustScheme2(t, config.HCAPP), Limit: config.PackagePinLimit()}
	}
	return specs
}

// TestRemoteRunSpecsIsOneBatch: with Remote set, RunSpecs sends every
// spec that is neither cached nor a duplicate as one call, fills the
// results index-aligned (a duplicate shares its first occurrence's
// result), and a later batch or RunContext sends only what the cache
// lacks.
func TestRemoteRunSpecsIsOneBatch(t *testing.T) {
	remote := &fakeRemote{}
	ev := NewEvaluator().WithTargetDur(sim.Millisecond / 2).WithRunner(NewRunner(4))
	ev.Remote = remote
	s := remoteSpecs(t, 4)

	got, err := ev.RunSpecs(context.Background(), []RunSpec{s[0], s[1], s[0], s[2]})
	if err != nil {
		t.Fatal(err)
	}
	calls := remote.batches()
	if len(calls) != 1 || len(calls[0]) != 3 {
		t.Fatalf("first batch sent %d calls (%v), want one of 3 specs", len(calls), calls)
	}
	for i, want := range []int64{0, 1, 0, 2} {
		if got[i].ControlCycles != want || got[i].Spec.Combo.Name != s[want].Combo.Name {
			t.Fatalf("result %d = spec %s at batch place %d, want %s at %d", i, got[i].Spec.Combo.Name, got[i].ControlCycles, s[want].Combo.Name, want)
		}
	}

	if _, err := ev.RunSpecs(context.Background(), []RunSpec{s[1], s[3]}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.RunContext(context.Background(), s[2]); err != nil {
		t.Fatal(err)
	}
	calls = remote.batches()
	if len(calls) != 2 || len(calls[1]) != 1 || calls[1][0].Combo.Name != s[3].Combo.Name {
		t.Fatalf("later requests sent %v, want exactly one call for the one uncached spec", calls[1:])
	}
}

// TestRemoteRunSpecsLowestIndexError: a failing batch reports its
// lowest-index failure, caches nothing and leaves no flight behind, and
// a concurrent caller waiting on one of its good specs retries rather
// than inheriting an error about another spec.
func TestRemoteRunSpecsLowestIndexError(t *testing.T) {
	remote := &fakeRemote{gate: make(chan struct{}), started: make(chan struct{})}
	ev := NewEvaluator().WithTargetDur(sim.Millisecond / 2)
	ev.Remote = remote
	s := remoteSpecs(t, 4)
	s[1].Policy, s[3].Policy = "fail-one", "fail-three"

	batchErr := make(chan error, 1)
	go func() {
		_, err := ev.RunSpecs(context.Background(), s)
		batchErr <- err
	}()
	<-remote.started
	wctx := &parkSignal{Context: context.Background(), parked: make(chan struct{})}
	waiter := make(chan error, 1)
	go func() {
		_, err := ev.RunContext(wctx, s[0])
		waiter <- err
	}()
	<-wctx.parked
	close(remote.gate)

	if err := <-batchErr; err == nil || err.Error() != "item 1: fail-one" {
		t.Fatalf("err = %v, want the lowest-index failure (item 1: fail-one)", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("caller waiting on a good spec of the failed batch: %v", err)
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if len(ev.cache) != 1 || len(ev.runInflight) != 0 {
		t.Fatalf("%d cached results and %d flights, want only the waiter's result", len(ev.cache), len(ev.runInflight))
	}
}

// parkSignal closes parked the first time a waiter selects on Done,
// which runBatch does only once it is parked on another caller's flight.
type parkSignal struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func (p *parkSignal) Done() <-chan struct{} {
	p.once.Do(func() { close(p.parked) })
	return p.Context.Done()
}

// TestRemoteRunSpecsCancelledMidBatch: cancelling a batch while its
// request is in flight returns context.Canceled, caches nothing and
// leaves no flight behind; a concurrent caller waiting on one of its
// specs under a live context retries and leads that spec itself.
func TestRemoteRunSpecsCancelledMidBatch(t *testing.T) {
	remote := &fakeRemote{gate: make(chan struct{}), started: make(chan struct{})}
	ev := NewEvaluator().WithTargetDur(sim.Millisecond / 2)
	ev.Remote = remote
	s := remoteSpecs(t, 3)

	ctx, cancel := context.WithCancel(context.Background())
	batchErr := make(chan error, 1)
	go func() {
		_, err := ev.RunSpecs(ctx, s)
		batchErr <- err
	}()
	<-remote.started

	// The waiter joins the in-flight batch's flight for s[1]; once the
	// batch is cancelled it must lead s[1] on its own, unblocked call.
	type result struct {
		res RunResult
		err error
	}
	waiter := make(chan result, 1)
	wctx := &parkSignal{Context: context.Background(), parked: make(chan struct{})}
	go func() {
		res, err := ev.RunContext(wctx, s[1])
		waiter <- result{res, err}
	}()
	<-wctx.parked
	cancel()

	if err := <-batchErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v, want context.Canceled", err)
	}
	w := <-waiter
	if w.err != nil || w.res.Spec.Combo.Name != s[1].Combo.Name {
		t.Fatalf("waiter: %+v, %v; want its own result", w.res.Spec.Combo.Name, w.err)
	}
	calls := remote.batches()
	if len(calls) != 2 || len(calls[1]) != 1 || calls[1][0].Combo.Name != s[1].Combo.Name {
		t.Fatalf("calls = %d (second %v), want the waiter to lead s[1] alone", len(calls), calls[len(calls)-1])
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if len(ev.runInflight) != 0 || len(ev.cache) != 1 {
		t.Fatalf("after cancellation: %d flights, %d cached results; want 0 and the waiter's 1", len(ev.runInflight), len(ev.cache))
	}
}
