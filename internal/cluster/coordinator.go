package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"hcapp/internal/experiment"
	"hcapp/internal/sim"
	"hcapp/internal/tracing"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrThrottled means the tenant's token bucket could not pay for the
	// batch (HTTP 429).
	ErrThrottled = errors.New("cluster: tenant rate limit exceeded")
	// ErrNoWorkers means no registered worker has a current heartbeat
	// (HTTP 503).
	ErrNoWorkers = errors.New("cluster: no live workers")
	// ErrBadItem wraps malformed batch items (HTTP 400).
	ErrBadItem = errors.New("cluster: invalid item")
	// ErrOverBurst is the throttle no wait can lift: a batch with more
	// items than a tenant's bucket holds (HTTP 413 naming the burst;
	// Client.Run resends such a batch in burst-sized pieces).
	ErrOverBurst = fmt.Errorf("%w: batch exceeds the tenant burst", ErrThrottled)
	// ErrItemFailed wraps an item a worker ran and reported failed: the
	// item is a pure function of its key, so retrying cannot help
	// (HTTP 422).
	ErrItemFailed = errors.New("cluster: item failed")
)

// maxCacheEntries bounds the fleet result cache, oldest out first.
const maxCacheEntries = 4096

// CoordinatorConfig sizes the fleet head.
type CoordinatorConfig struct {
	// HeartbeatEvery is the cadence advertised to workers (default 2 s).
	HeartbeatEvery time.Duration
	// ExpireAfter is how stale a worker's heartbeat may get before the
	// coordinator stops routing to it (default 3 × HeartbeatEvery).
	ExpireAfter time.Duration
	// TenantRate refills each tenant's token bucket, items/second;
	// <= 0 disables rate limiting.
	TenantRate float64
	// TenantBurst is the bucket size (default 256 items).
	TenantBurst int
	// BreakerThreshold is how many consecutive transport failures trip
	// a worker's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker holds the worker
	// out of rotation before half-opening for a probe (default 5 s).
	BreakerCooldown time.Duration
	// NoWorkersPatience is how long a dispatch waits out a transient
	// worker drought — registered workers exist but none is currently
	// routable (tripped breakers, missed heartbeats) — before failing
	// the batch with ErrNoWorkers. Batches against an empty registry
	// still fail fast. Default BreakerCooldown + 2 × HeartbeatEvery;
	// negative disables the patience.
	NoWorkersPatience time.Duration
	// HedgeAfter is the latency after which a slice is hedged onto a
	// second live worker, first result winning. Zero (the default)
	// adapts the threshold to recent slice latencies; negative disables
	// hedging.
	HedgeAfter time.Duration
	// Client dials workers; nil uses a default client with no overall
	// timeout (simulations are long; cancellation flows through the
	// batch context).
	Client *http.Client
	// Logf receives operational events (worker death, re-shards); nil
	// means log.Printf.
	Logf func(format string, args ...any)
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	if c.ExpireAfter <= 0 {
		c.ExpireAfter = 3 * c.HeartbeatEvery
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 256
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.NoWorkersPatience == 0 {
		c.NoWorkersPatience = c.BreakerCooldown + 2*c.HeartbeatEvery
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Coordinator is the fleet head: it tracks registered workers through
// registration and heartbeats, shards batches across the live ones with
// indexed result slots, re-shards slices lost to worker death, and
// fronts everything with a fleet-wide single-flight content-addressed
// result cache.
type Coordinator struct {
	cfg     CoordinatorConfig
	metrics *Metrics
	tracer  *tracing.Tracer
	limiter *Limiter
	sem     *prioSem
	now     func() time.Time

	mu         sync.Mutex
	workers    map[string]*workerState
	cache      map[string]ItemResult
	cacheOrder []string
	inflight   map[string]*flight
}

type workerState struct {
	info     RegisterRequest
	lastSeen time.Time
	// dead marks a worker that failed a dispatch; routing stops
	// immediately (faster than heartbeat expiry) until it heartbeats or
	// re-registers.
	dead bool
	// brk holds the worker's transport circuit breaker; unlike dead, a
	// tripped breaker survives heartbeats until its cooldown expires
	// and a half-open probe succeeds.
	brk breaker
	// slices counts the slices dispatched to the worker and not yet
	// answered, hedges included: dispatch prefers the least loaded.
	slices int
}

// flight is one in-progress batch item; fleet-wide single-flight means
// every concurrent batch wanting the same key blocks here while exactly
// one worker simulates it.
type flight struct {
	done chan struct{}
	res  ItemResult
	err  error
}

// NewCoordinator builds a coordinator with no workers yet.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:      cfg,
		now:      time.Now,
		workers:  make(map[string]*workerState),
		cache:    make(map[string]ItemResult),
		inflight: make(map[string]*flight),
		sem:      newPrioSem(0),
	}
	c.limiter = NewLimiter(cfg.TenantRate, cfg.TenantBurst, func() time.Time { return c.now() })
	return c
}

// WithMetrics attaches the cluster telemetry families.
func (c *Coordinator) WithMetrics(m *Metrics) *Coordinator {
	c.metrics = m
	return c
}

// WithTracer attaches the span store batches record into. Span
// *emission* is driven by the submitting context (a batch whose context
// carries no trace context stays untraced); the tracer is where
// coordinator-side spans and ingested worker spans land.
func (c *Coordinator) WithTracer(t *tracing.Tracer) *Coordinator {
	c.tracer = t
	return c
}

// WithNow injects a clock (tests drive heartbeat expiry and token
// refill deterministically).
func (c *Coordinator) WithNow(now func() time.Time) *Coordinator {
	c.now = now
	return c
}

// Register records (or refreshes — registration is idempotent) a
// worker.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.ID == "" || req.Addr == "" {
		return RegisterResponse{}, fmt.Errorf("%w: register needs id and addr", ErrBadItem)
	}
	if req.Workers < 1 {
		req.Workers = 1
	}
	c.mu.Lock()
	c.workers[req.ID] = &workerState{info: req, lastSeen: c.now()}
	c.refreshLiveLocked()
	c.mu.Unlock()
	return RegisterResponse{
		HeartbeatEveryMS: c.cfg.HeartbeatEvery.Milliseconds(),
		ExpireAfterMS:    c.cfg.ExpireAfter.Milliseconds(),
	}, nil
}

// Heartbeat refreshes a worker's liveness; unknown ids report false and
// the worker must re-register. A heartbeat revives a worker previously
// declared dead (heartbeat flap), since a reachable worker is a usable
// worker.
func (c *Coordinator) Heartbeat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return false
	}
	w.lastSeen = c.now()
	w.dead = false
	c.refreshLiveLocked()
	return true
}

// WorkersLive counts workers the coordinator would route to right now.
func (c *Coordinator) WorkersLive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.liveLocked())
}

// WorkerList snapshots every registered worker (GET /v1/cluster/workers).
func (c *Coordinator) WorkerList() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerInfo{
			ID:         w.info.ID,
			Addr:       w.info.Addr,
			Workers:    w.info.Workers,
			Live:       c.isLiveLocked(w),
			LastSeenMS: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (c *Coordinator) isLiveLocked(w *workerState) bool {
	return !w.dead && c.now().Sub(w.lastSeen) <= c.cfg.ExpireAfter && w.brk.routable(c.now())
}

// liveLocked snapshots live workers, least loaded first: by slices in
// flight, ties broken by id (stable shard assignment within a dispatch
// round), so concurrent batches, one-item ones included, spread over
// the fleet. Callers hold c.mu.
func (c *Coordinator) liveLocked() []*workerState {
	var ws []*workerState
	for _, w := range c.workers {
		if c.isLiveLocked(w) {
			ws = append(ws, w)
		}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].slices != ws[j].slices {
			return ws[i].slices < ws[j].slices
		}
		return ws[i].info.ID < ws[j].info.ID
	})
	return ws
}

// claimLocked books one slice on w: its breaker's probe slot (a
// half-open worker admits exactly one) and its load. Callers hold c.mu
// and pair it with a release.
func (w *workerState) claimLocked() {
	w.brk.take()
	w.slices++
}

// release ends a slice claimLocked booked on the worker id.
func (c *Coordinator) release(id string) {
	c.mu.Lock()
	if w, ok := c.workers[id]; ok && w.slices > 0 {
		w.slices--
	}
	c.mu.Unlock()
}

// refreshLiveLocked republishes the live-worker gauge and retargets the
// dispatch semaphore at one slice per live worker.
func (c *Coordinator) refreshLiveLocked() {
	n := len(c.liveLocked())
	c.metrics.setWorkersLive(n)
	c.sem.setCapacity(n)
}

// markDead stops routing to a worker that failed a dispatch.
func (c *Coordinator) markDead(id string) {
	c.mu.Lock()
	if w, ok := c.workers[id]; ok {
		w.dead = true
	}
	c.refreshLiveLocked()
	c.mu.Unlock()
}

// Allow debits the tenant's token bucket for n items, counting a
// rejection under hcapp_tenant_throttled_total. The job manager calls
// this at admission so 429 backpressure reaches the submitting client
// synchronously.
func (c *Coordinator) Allow(tenant string, n int) bool {
	if c.limiter.Allow(tenant, n) {
		return true
	}
	c.metrics.throttled(tenant)
	return false
}

// RunBatch is the rate-limited entry: Allow + Execute. A batch larger
// than the tenant burst is refused outright with ErrOverBurst, since
// waiting for tokens could never admit it.
func (c *Coordinator) RunBatch(ctx context.Context, req RunRequest) (*RunResponse, error) {
	if !c.limiter.Fits(len(req.Items)) {
		c.metrics.throttled(req.Tenant)
		return nil, fmt.Errorf("%w: %d items, burst %d; split the batch", ErrOverBurst, len(req.Items), c.cfg.TenantBurst)
	}
	if !c.Allow(req.Tenant, len(req.Items)) {
		return nil, ErrThrottled
	}
	return c.Execute(ctx, req)
}

// RunRemote implements experiment.RemoteRunner in process, as one
// interactive batch (a served job's is a batch of one). It debits no
// token: a coordinator-role job server debits its tenant at admission.
func (c *Coordinator) RunRemote(ctx context.Context, seed int64, targetDur sim.Time, maxDurFactor, fixedV float64, trackEnergy bool, specs []experiment.RunSpec) ([]experiment.RunResult, error) {
	return runSpecs(ctx, c.Execute, Params{seed, targetDur, maxDurFactor, fixedV}, trackEnergy, specs)
}

// leaderItem is one item this batch must actually get simulated (cache
// miss, no other flight in progress).
type leaderItem struct {
	idx   int
	key   string
	item  Item
	f     *flight
	trace *itemTrace
}

// itemTrace is the tracing state of one batch item: the item span plus
// an attempt counter, so retries and hedges land as sibling attempt[n]
// spans under one parent instead of orphans. A nil *itemTrace no-ops,
// which is how untraced batches skip all span work.
type itemTrace struct {
	tr   *tracing.Tracer
	span *tracing.ActiveSpan

	mu       sync.Mutex
	attempts int
	done     bool
}

// newAttempt opens the next attempt[n] span; kind is "primary" or
// "hedge". The returned context travels to the worker inside the item.
func (it *itemTrace) newAttempt(worker, kind string) (*tracing.ActiveSpan, *tracing.SpanContext) {
	if it == nil {
		return nil, nil
	}
	it.mu.Lock()
	n := it.attempts
	it.attempts++
	it.mu.Unlock()
	sp := it.tr.StartSpan(it.span.Context(), fmt.Sprintf("attempt[%d]", n))
	sp.SetAttr("worker", worker).SetAttr("kind", kind)
	sc := sp.Context()
	if !sc.Valid() {
		return sp, nil
	}
	return sp, &sc
}

// finish ends the item span once; later outcomes are ignored.
func (it *itemTrace) finish(outcome string) {
	if it == nil {
		return
	}
	it.mu.Lock()
	already := it.done
	it.done = true
	it.mu.Unlock()
	if !already {
		it.span.SetAttr("outcome", outcome).End()
	}
}

// Execute runs a batch to completion: resolve every item against the
// fleet cache and in-flight table, shard the remainder across live
// workers, and assemble results into index-aligned slots so the
// response is byte-identical to a single-node run regardless of fleet
// width, worker deaths, or scheduling. Results carry their energy
// summary only when req.Energy asks for it. Rate limiting is the
// caller's concern (RunBatch applies it; hcapp-serve debits at job
// admission).
func (c *Coordinator) Execute(ctx context.Context, req RunRequest) (*RunResponse, error) {
	if !ValidPriority(req.Priority) {
		return nil, fmt.Errorf("%w: unknown priority %q", ErrBadItem, req.Priority)
	}
	interactive := req.Priority == PriorityInteractive

	keys := make([]string, len(req.Items))
	for i, it := range req.Items {
		k, err := it.key(req.Params)
		if err != nil {
			return nil, fmt.Errorf("%w: item %d: %v", ErrBadItem, i, err)
		}
		keys[i] = k
	}
	c.metrics.addItems(len(req.Items))

	// Item spans exist only when the submitting context is traced. Slice
	// assignment and worker identity are span attributes, never tree
	// nodes, so the span-tree structure is identical at every fleet
	// width.
	var itemTraces []*itemTrace
	if tr, parent, ok := tracing.FromContext(ctx); ok {
		itemTraces = make([]*itemTrace, len(req.Items))
		for i := range req.Items {
			sp := tr.StartSpan(parent, fmt.Sprintf("item[%d]", i))
			itemTraces[i] = &itemTrace{tr: tr, span: sp}
		}
		defer func() {
			// Anything still open on the way out was cut short by
			// cancellation or a sibling item's failure.
			for _, it := range itemTraces {
				it.finish("cancelled")
			}
		}()
	}
	itemTraceAt := func(i int) *itemTrace {
		if itemTraces == nil {
			return nil
		}
		return itemTraces[i]
	}

	resp := &RunResponse{Results: make([]ItemResult, len(req.Items))}
	type idxErr struct {
		idx int
		err error
	}
	var firstErr *idxErr
	record := func(i int, err error) {
		if firstErr == nil || i < firstErr.idx {
			firstErr = &idxErr{i, err}
		}
	}

	pending := make([]int, len(req.Items))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		var leaders []leaderItem
		var waiters []leaderItem
		hitsBefore := resp.CacheHits
		c.mu.Lock()
		for _, i := range pending {
			key := keys[i]
			if r, ok := c.cache[key]; ok {
				resp.Results[i] = r
				resp.CacheHits++
				itemTraceAt(i).finish("cache-hit")
				continue
			}
			if f, ok := c.inflight[key]; ok {
				if it := itemTraceAt(i); it != nil {
					it.span.SetAttr("coalesced", "true")
				}
				waiters = append(waiters, leaderItem{idx: i, key: key, f: f, trace: itemTraceAt(i)})
				continue
			}
			f := &flight{done: make(chan struct{})}
			c.inflight[key] = f
			leaders = append(leaders, leaderItem{idx: i, key: key, item: req.Items[i], f: f, trace: itemTraceAt(i)})
		}
		c.mu.Unlock()
		c.metrics.addCacheHits(resp.CacheHits - hitsBefore)

		if len(leaders) > 0 {
			c.dispatch(ctx, req.Params, interactive, leaders)
		}

		pending = pending[:0]
		for _, li := range append(leaders, waiters...) {
			select {
			case <-li.f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			switch {
			case li.f.err == nil:
				resp.Results[li.idx] = li.f.res
				li.trace.finish("ok")
			case errors.Is(li.f.err, context.Canceled) || errors.Is(li.f.err, context.DeadlineExceeded):
				// Another batch's cancellation, not a verdict on the
				// item; retry unless our own context died too.
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				pending = append(pending, li.idx)
			default:
				li.trace.finish("error")
				record(li.idx, li.f.err)
			}
		}
		if firstErr != nil {
			return nil, fmt.Errorf("item %d: %w", firstErr.idx, firstErr.err)
		}
	}
	if !req.Energy {
		for i, ir := range resp.Results {
			resp.Results[i] = ir.withoutEnergy()
		}
	}
	return resp, nil
}

// dispatch shards the leaders across live workers and resolves every
// flight. Items are striped round-robin over the live set, least loaded
// worker first (liveLocked);
// a slice whose worker fails is re-striped over the survivors in the
// next round — idempotent, because each item is a pure function of its
// content hash, and deterministic, because results land in index slots.
func (c *Coordinator) dispatch(ctx context.Context, params Params, interactive bool, leaders []leaderItem) {
	remaining := leaders
	var droughtStart time.Time
	for len(remaining) > 0 {
		if err := ctx.Err(); err != nil {
			c.resolveAll(remaining, ItemResult{}, err)
			return
		}
		c.mu.Lock()
		ws := c.liveLocked()
		registered := len(c.workers)
		c.refreshLiveLocked()
		nslices := len(ws)
		if len(remaining) < nslices {
			nslices = len(remaining)
		}
		// Claim the selected workers before releasing the lock: a
		// half-open worker admits exactly one probe slice, and a
		// concurrent dispatch must see the load.
		for si := 0; si < nslices; si++ {
			ws[si].claimLocked()
		}
		c.mu.Unlock()
		if len(ws) == 0 {
			// A drought with registered workers is usually transient:
			// breakers cooling down, or every worker between heartbeats.
			// Wait it out (bounded by NoWorkersPatience) instead of
			// failing a batch a breaker half-open would rescue in a few
			// hundred milliseconds. An empty registry still fails fast.
			if registered > 0 && c.cfg.NoWorkersPatience > 0 {
				if droughtStart.IsZero() {
					droughtStart = time.Now()
				}
				if time.Since(droughtStart) < c.cfg.NoWorkersPatience {
					select {
					case <-ctx.Done():
						c.resolveAll(remaining, ItemResult{}, ctx.Err())
						return
					case <-time.After(150 * time.Millisecond):
					}
					continue
				}
			}
			c.resolveAll(remaining, ItemResult{}, ErrNoWorkers)
			return
		}
		droughtStart = time.Time{}

		slices := make([][]leaderItem, nslices)
		for j, li := range remaining {
			slices[j%nslices] = append(slices[j%nslices], li)
		}

		var (
			wg     sync.WaitGroup
			mu     sync.Mutex
			failed []leaderItem
		)
		for si := range slices {
			w, slice := ws[si].info, slices[si]
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.release(w.ID)
				waitStart := time.Now()
				if err := c.sem.acquire(ctx, interactive); err != nil {
					c.breakerAbort(w.ID)
					mu.Lock()
					failed = append(failed, slice...)
					mu.Unlock()
					return
				}
				c.metrics.observeQueueWait(interactive, time.Since(waitStart))
				defer c.sem.release()
				results, err := c.hedgedPost(ctx, w, params, slice)
				if err != nil {
					mu.Lock()
					failed = append(failed, slice...)
					mu.Unlock()
					if ctx.Err() == nil {
						c.metrics.addResharded(len(slice))
					}
					return
				}
				for k, li := range slice {
					ir := results[k]
					if ir.Error != "" {
						c.resolve(li, ItemResult{}, fmt.Errorf("%w: %s", ErrItemFailed, ir.Error))
					} else {
						c.resolve(li, ir, nil)
					}
				}
			}()
		}
		wg.Wait()
		remaining = failed
	}
}

// hedgedPost ships one slice to its primary worker and, if the primary
// has not answered within the hedge threshold, re-issues it to a
// second live worker — first successful response wins. Re-issuing is
// safe because every item is content-addressed: both workers compute
// the identical result, and the loser's response is discarded (its
// in-flight request is cancelled). Worker failures are recorded on the
// per-worker circuit breaker and mark the worker dead; an error return
// means every attempted worker failed and the caller should re-shard.
// Every return cancels and drains the posts still in flight, so each
// attempt span the slice opened has ended by the time it returns.
func (c *Coordinator) hedgedPost(ctx context.Context, primary RegisterRequest, params Params, slice []leaderItem) ([]ItemResult, error) {
	postCtx, cancel := context.WithCancel(ctx)
	type outcome struct {
		w     RegisterRequest
		resp  *RunResponse
		err   error
		hedge bool
	}
	ch := make(chan outcome, 2)
	post := func(w RegisterRequest, hedge bool) {
		kind := "primary"
		if hedge {
			kind = "hedge"
		}
		attempts := make([]*tracing.ActiveSpan, len(slice))
		refs := make([]*tracing.SpanContext, len(slice))
		for i, li := range slice {
			attempts[i], refs[i] = li.trace.newAttempt(w.ID, kind)
		}
		start := time.Now()
		resp, err := c.postSlice(postCtx, w, params, slice, refs)
		var spanOutcome string
		switch {
		case err == nil:
			spanOutcome = "ok"
			c.noteWorkerResult(w.ID, true)
			c.observeSliceLatency(time.Since(start))
		case postCtx.Err() != nil:
			// Our own cancellation (the batch died or the other post
			// already won), not a verdict on the worker — but release the
			// probe slot a half-open breaker may be holding for us.
			spanOutcome = "cancelled"
			c.breakerAbort(w.ID)
			c.metrics.observeSlice("cancelled", time.Since(start))
		default:
			spanOutcome = "error"
			c.cfg.Logf("cluster: worker %s (%s) failed a slice (%d items): %v",
				w.ID, w.Addr, len(slice), err)
			c.noteWorkerResult(w.ID, false)
			c.markDead(w.ID)
			c.metrics.observeSlice("error", time.Since(start))
		}
		for _, a := range attempts {
			a.SetAttr("outcome", spanOutcome)
			a.End()
		}
		ch <- outcome{w: w, resp: resp, err: err, hedge: hedge}
	}
	go post(primary, false)

	var hedgeC <-chan time.Time
	if d := c.hedgeDelay(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}
	outstanding := 1
	defer func() {
		cancel()
		for ; outstanding > 0; outstanding-- {
			<-ch
		}
	}()
	var firstErr error
	for {
		select {
		case out := <-ch:
			outstanding--
			if out.err == nil {
				if out.hedge {
					c.metrics.addHedgeWins()
				}
				// Only the winner's worker spans are ingested; a hedge
				// loser's engine spans (if any completed) are discarded
				// with its results.
				c.ingestSpans(slice, out.resp.Spans)
				return out.resp.Results, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if outstanding == 0 {
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if h, ok := c.pickHedge(primary.ID); ok {
				c.metrics.addHedged(len(slice))
				outstanding++
				go func() {
					defer c.release(h.ID)
					post(h, true)
				}()
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// pickHedge claims the least loaded live worker other than the
// primary as a hedge target.
func (c *Coordinator) pickHedge(primaryID string) (RegisterRequest, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.liveLocked() {
		if w.info.ID != primaryID {
			w.claimLocked()
			return w.info, true
		}
	}
	return RegisterRequest{}, false
}

// noteWorkerResult records a slice outcome on the worker's breaker,
// tripping it after BreakerThreshold consecutive failures (or one
// failed half-open probe).
func (c *Coordinator) noteWorkerResult(id string, ok bool) {
	c.mu.Lock()
	w, exists := c.workers[id]
	if !exists {
		c.mu.Unlock()
		return
	}
	wasOpen := w.brk.state == brkOpen
	tripped := w.brk.result(ok, c.cfg.BreakerThreshold, c.now(), c.cfg.BreakerCooldown)
	fails := w.brk.consecFails
	c.metrics.setBreakerState(id, w.brk.state)
	c.refreshLiveLocked()
	c.mu.Unlock()
	if tripped && !wasOpen {
		c.metrics.addBreakerTrip()
		c.cfg.Logf("cluster: worker %s breaker tripped after %d consecutive failures (cooldown %s)",
			id, fails, c.cfg.BreakerCooldown)
	}
}

// breakerAbort releases a claimed probe slot without an outcome.
func (c *Coordinator) breakerAbort(id string) {
	c.mu.Lock()
	if w, ok := c.workers[id]; ok {
		w.brk.abort()
	}
	c.refreshLiveLocked()
	c.mu.Unlock()
}

// observeSliceLatency records one successful slice round-trip into the
// shared slice-duration histogram — the same series /metrics exports,
// so the adaptive hedge threshold and the dashboards read one dataset.
func (c *Coordinator) observeSliceLatency(d time.Duration) {
	c.metrics.observeSlice("ok", d)
}

// hedgeDelay resolves the hedge threshold: the configured HedgeAfter
// when set, 0 (disabled) when negative, otherwise adaptively 2× the
// p90 of successful slice latencies — hedging targets stragglers, not
// the ordinary tail. With no metrics attached or too few observations
// there is no signal, so the threshold stays conservative.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter
	}
	if c.cfg.HedgeAfter < 0 {
		return 0
	}
	count, p90 := c.metrics.sliceOKStats()
	if count < 8 {
		// Too little signal to call anything a straggler yet.
		return 2 * time.Second
	}
	d := time.Duration(2 * p90 * float64(time.Second))
	if min := 500 * time.Millisecond; d < min {
		d = min
	}
	return d
}

// ingestSpans lands a worker's engine spans in the tracer. The spans
// arrive already parented to this coordinator's attempt spans, so no
// reconciliation is needed; ingestion does not re-feed the stage
// histogram (the worker observed them on its own node).
func (c *Coordinator) ingestSpans(slice []leaderItem, spans []tracing.Span) {
	if len(spans) == 0 {
		return
	}
	t := c.tracer
	if t == nil {
		for _, li := range slice {
			if li.trace != nil {
				t = li.trace.tr
				break
			}
		}
	}
	t.Ingest(spans)
}

// postSlice ships one slice to one worker and returns its reply. refs
// (when tracing) carries each item's attempt span context to the
// worker; the batch's trace identity additionally rides a traceparent
// header, so any HTTP hop in between can follow the trace.
func (c *Coordinator) postSlice(ctx context.Context, w RegisterRequest, params Params, slice []leaderItem, refs []*tracing.SpanContext) (*RunResponse, error) {
	items := make([]Item, len(slice))
	for i, li := range slice {
		items[i] = li.item
		if refs[i] != nil {
			items[i].Trace = refs[i]
		}
	}
	body, err := json.Marshal(RunRequest{Params: params, Items: items})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Addr+"/v1/worker/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if _, sc, ok := tracing.FromContext(ctx); ok {
		tracing.Inject(req.Header, sc)
	}
	hr, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker %s: status %d", w.ID, hr.StatusCode)
	}
	var resp RunResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(slice) {
		return nil, fmt.Errorf("worker %s: %d results for %d items", w.ID, len(resp.Results), len(slice))
	}
	return &resp, nil
}

// resolve finishes one flight: successful results enter the fleet cache
// before waiters wake, so a spec simulated by any worker is never
// simulated again.
func (c *Coordinator) resolve(li leaderItem, res ItemResult, err error) {
	c.mu.Lock()
	li.f.res, li.f.err = res, err
	delete(c.inflight, li.key)
	if err == nil {
		if _, ok := c.cache[li.key]; !ok {
			c.cache[li.key] = res
			c.cacheOrder = append(c.cacheOrder, li.key)
			for len(c.cacheOrder) > maxCacheEntries {
				delete(c.cache, c.cacheOrder[0])
				c.cacheOrder = c.cacheOrder[1:]
			}
		}
	}
	c.mu.Unlock()
	close(li.f.done)
}

func (c *Coordinator) resolveAll(lis []leaderItem, res ItemResult, err error) {
	for _, li := range lis {
		c.resolve(li, res, err)
	}
}

// CacheLen reports fleet-cache occupancy (tests, introspection).
func (c *Coordinator) CacheLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

// Handler mounts the coordinator's HTTP surface:
//
//	POST /v1/cluster/register   worker announces itself
//	POST /v1/cluster/heartbeat  worker liveness
//	POST /v1/cluster/run        execute a batch on the fleet
//	GET  /v1/cluster/workers    registered workers + liveness
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/register", c.handleRegister)
	mux.HandleFunc("/v1/cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/cluster/run", c.handleRun)
	mux.HandleFunc("/v1/cluster/workers", c.handleWorkers)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
	// Burst is the tenant burst an over-burst refusal (413) names, so
	// a client can resend the batch in pieces that fit.
	Burst int `json:"burst,omitempty"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid register request: %v", err)
		return
	}
	resp, err := c.Register(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid heartbeat: %v", err)
		return
	}
	if !c.Heartbeat(req.ID) {
		writeError(w, http.StatusNotFound, "unknown worker %q: re-register", req.ID)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid run request: %v", err)
		return
	}
	// A caller that already opened a trace propagates it via the
	// traceparent header; otherwise
	// the batch gets its own root span so direct API batches are traced
	// too.
	ctx := r.Context()
	var root *tracing.ActiveSpan
	if c.tracer != nil {
		if sc, ok := tracing.Extract(r.Header); ok {
			ctx = tracing.ContextWith(ctx, c.tracer, sc)
		} else {
			root = c.tracer.StartRoot("batch", "", randomID())
			root.SetAttr("tenant", req.Tenant).SetAttr("items", fmt.Sprintf("%d", len(req.Items)))
			ctx = tracing.ContextWith(ctx, c.tracer, root.Context())
		}
	}
	resp, err := c.RunBatch(ctx, req)
	root.SetAttr("outcome", tracing.Outcome(err)).End()
	switch {
	case errors.Is(err, ErrOverBurst):
		writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: err.Error(), Burst: c.cfg.TenantBurst})
	case errors.Is(err, ErrThrottled):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrNoWorkers):
		// A worker may register or heartbeat back within one cadence.
		w.Header().Set("Retry-After", retryAfterSeconds(c.cfg.HeartbeatEvery))
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrBadItem):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, ErrItemFailed):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Workers []WorkerInfo `json:"workers"`
	}{c.WorkerList()})
}
