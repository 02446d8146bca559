package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"hcapp/internal/cluster"
	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/sim"
	"hcapp/internal/tracing"
)

// ErrQueueFull is returned by Submit when the job queue is at capacity —
// the service sheds load instead of buffering unboundedly.
var ErrQueueFull = fmt.Errorf("server: job queue full")

// ErrShuttingDown is returned by Submit after Shutdown begins.
var ErrShuttingDown = fmt.Errorf("server: shutting down")

// ErrTenantThrottled is returned by Submit when the coordinator's
// per-tenant token bucket rejects the job (cluster mode only); the HTTP
// layer maps it to 429 so backpressure reaches the submitting client
// synchronously.
var ErrTenantThrottled = fmt.Errorf("server: tenant rate limit exceeded")

// Manager owns the job table and the bounded worker pool: its worker
// goroutines are the pool, each running one job at a time. Every job
// runs on its own evaluator — the concurrency test in
// internal/experiment proves independent evaluators share no mutable
// state — so workers scale across cores without locking the engine.
type Manager struct {
	cfg     Config
	metrics *metrics
	// cluster, when non-nil, puts the manager in coordinator role
	// (hcapp-serve -role coordinator): it gates readiness and admission.
	cluster *cluster.Coordinator
	// remote is every job evaluator's Remote: cluster in coordinator
	// role, whose fleet then runs the engine, and nil (run locally)
	// otherwise. It is set only from a non-nil cluster, because a nil
	// *Coordinator in the interface would read as a remote runner.
	remote experiment.RemoteRunner
	// tracer records every job's span tree (nil disables tracing).
	tracer *tracing.Tracer
	logf   func(format string, args ...any)

	queue chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // insertion order, for listing and retention
	draining bool
	// ready flips once the worker pool is running; /readyz reports 503
	// until then (and again while draining).
	ready bool

	wg sync.WaitGroup
}

// NewManager builds a manager and starts its workers.
func NewManager(cfg Config, m *metrics) *Manager {
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	mgr := &Manager{
		cfg:     cfg,
		metrics: m,
		cluster: cfg.Cluster,
		tracer:  cfg.Tracer,
		logf:    logf,
		queue:   make(chan *Job, cfg.QueueDepth),
		jobs:    make(map[string]*Job),
	}
	if cfg.Cluster != nil {
		mgr.remote = cfg.Cluster
	}
	for i := 0; i < cfg.Workers; i++ {
		mgr.wg.Add(1)
		go mgr.worker()
	}
	mgr.mu.Lock()
	mgr.ready = true
	mgr.mu.Unlock()
	return mgr
}

// Ready reports whether this node should receive traffic: pool up, not
// draining, and — in coordinator role — at least one live fleet worker
// to execute on.
func (mgr *Manager) Ready() bool {
	mgr.mu.Lock()
	ready := mgr.ready && !mgr.draining
	mgr.mu.Unlock()
	if ready && mgr.cluster != nil {
		ready = mgr.cluster.WorkersLive() > 0
	}
	return ready
}

// Submit validates, registers and enqueues a job.
func (mgr *Manager) Submit(req JobRequest) (*Job, error) {
	spec, dur, err := compile(req, mgr.cfg.MaxDur)
	if err != nil {
		mgr.metrics.jobsRejected.Inc()
		return nil, err
	}
	seed := int64(42) // the paper's seed
	if req.Seed != nil {
		seed = *req.Seed
	}

	j := &Job{
		id:      newJobID(),
		req:     req,
		spec:    spec,
		dur:     dur,
		seed:    seed,
		state:   StateQueued,
		created: time.Now(),
		// Served jobs run on config.Default(), so its step sizes the
		// buckets.
		trace: newTraceBuffer(int(traceSampleEvery/config.Default().TimeStep), maxTraceSamples),
	}
	// Spans exist before the queue send: the worker goroutine that
	// dequeues the job ends them, and the channel send is the
	// happens-before edge. The trace id derives from the job id, so
	// GET /v1/traces?job={id} finds the tree without an index.
	j.span = mgr.tracer.StartRoot("job", j.id, j.id)
	j.span.SetAttr("combo", req.Combo).SetAttr("tenant", req.Tenant)
	j.qspan = mgr.tracer.StartSpan(j.span.Context(), "queue-wait")

	// Admission is one ordered decision under mgr.mu: draining, then
	// queue capacity, then — in coordinator role — the tenant's token
	// bucket, then the send. Holding the lock makes it atomic with
	// respect to Shutdown's close(mgr.queue), so a Submit that passed
	// the draining check cannot send on a closed channel. Only Submit
	// sends, so a slot seen free here stays free, and a job refused for
	// either earlier reason spends no token. The bucket is debited at
	// submit time, so an over-limit tenant sees 429 synchronously
	// instead of a queued job that fails later.
	mgr.mu.Lock()
	var refused error
	switch {
	case mgr.draining:
		refused = ErrShuttingDown
	case len(mgr.queue) == cap(mgr.queue):
		refused = ErrQueueFull
	case mgr.cluster != nil && !mgr.cluster.Allow(req.Tenant, 1):
		refused = ErrTenantThrottled
	}
	if refused != nil {
		mgr.mu.Unlock()
		mgr.metrics.jobsRejected.Inc()
		j.qspan.End()
		j.span.SetAttr("outcome", "rejected").End()
		return nil, refused
	}
	mgr.queue <- j
	mgr.jobs[j.id] = j
	mgr.order = append(mgr.order, j.id)
	mgr.evictLocked()
	mgr.mu.Unlock()

	mgr.metrics.jobsSubmitted.Inc()
	return j, nil
}

// evictLocked drops the oldest finished jobs beyond the retention cap,
// deleting each evicted job's metric series so both the job table and
// /metrics cardinality stay bounded over a long serving life. Callers
// hold mgr.mu.
func (mgr *Manager) evictLocked() {
	for len(mgr.order) > mgr.cfg.MaxJobs {
		evicted := false
		for i, id := range mgr.order {
			j := mgr.jobs[id]
			j.mu.Lock()
			terminal := j.state == StateDone || j.state == StateFailed
			j.mu.Unlock()
			if terminal {
				delete(mgr.jobs, id)
				mgr.order = append(mgr.order[:i], mgr.order[i+1:]...)
				mgr.metrics.dropJob(id)
				evicted = true
				break
			}
		}
		if !evicted {
			// Everything retained is still queued or running; the
			// queue bound keeps this transient.
			return
		}
	}
}

// Get returns the job by id.
func (mgr *Manager) Get(id string) (*Job, bool) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	j, ok := mgr.jobs[id]
	return j, ok
}

// List snapshots all retained jobs, newest first.
func (mgr *Manager) List() []JobStatus {
	mgr.mu.Lock()
	ids := append([]string(nil), mgr.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, mgr.jobs[id])
	}
	mgr.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	sort.SliceStable(out, func(i, k int) bool { return out[i].CreatedAt.After(out[k].CreatedAt) })
	return out
}

// worker drains the queue until Shutdown closes it.
func (mgr *Manager) worker() {
	defer mgr.wg.Done()
	for j := range mgr.queue {
		mgr.runJob(j)
	}
}

// runJob executes one simulation end to end. Failures are classified
// for hcapp_jobs_failed_total: "timeout" (the JobTimeout bound expired
// and cancelled the engine), "panic" (the simulation panicked — caught
// here so one bad job cannot take down the worker pool), or "error"
// (everything else, e.g. an invalid spec surviving to build time).
func (mgr *Manager) runJob(j *Job) {
	start := time.Now()
	j.mu.Lock()
	j.state = StateRunning
	j.started = start
	j.mu.Unlock()
	mgr.metrics.jobsRunning.Inc()

	// The queue wait ends the moment a worker picks the job up; server
	// jobs are always the interactive class (fleet batch sweeps enter
	// through the coordinator API instead).
	j.qspan.SetAttr("class", "interactive").End()
	run := mgr.tracer.StartSpan(j.span.Context(), "run")

	ctx := context.Background()
	if mgr.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, mgr.cfg.JobTimeout)
		defer cancel()
	}
	if run != nil {
		ctx = tracing.ContextWith(ctx, mgr.tracer, run.Context())
	}

	// One evaluator per job: it carries the run cache we do not want
	// shared and isolates all mutable simulation state. It is not free:
	// a local build first generates every unit's workload trace, most of
	// the time a 0.2 ms job spends building. It keeps those traces only
	// for this job, so the server's memory does not grow with the seeds
	// it has served. In coordinator role the fleet runs the engine
	// (ev.Remote), so no per-step stream reaches the observer and only
	// the static spec gauges publish.
	ev := cluster.DefaultParams(j.seed, j.dur).Evaluator()
	// Attribute energy on every job, so chargeback bills a job the same
	// in either role.
	ev.TrackEnergy = true
	ev.Remote = mgr.remote
	info := jobSpecInfo{limit: j.spec.Limit}
	if !isFixed(j.spec) {
		info.target = experiment.TargetPowerFor(j.spec.Limit)
	}
	obs := mgr.metrics.newJobObserver(j, info)
	ev.Observer = obs

	res, err := mgr.simulate(ctx, ev, j.spec, j.id)
	obs.flush()
	if err == nil {
		// A remote run streams no steps, so take the final progress from
		// the result; a local run's observer has already reached it.
		j.trace.setProgress(res.Duration, int64(res.Duration/ev.Cfg.TimeStep))
	}

	reason := ""
	if err != nil {
		reason, err = mgr.failureReason(err)
	}

	// The pool gauges settle before the job reads as finished, so a
	// client that sees it done scrapes them settled too.
	end := time.Now()
	mgr.metrics.jobsRunning.Dec()
	mgr.metrics.jobSeconds.Observe(end.Sub(start).Seconds())
	j.mu.Lock()
	j.ended = end
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
	} else {
		j.state = StateDone
		j.result = resultFromRun(res)
	}
	state := j.state
	j.mu.Unlock()

	run.SetAttr("outcome", tracing.Outcome(err)).End()
	j.span.SetAttr("state", string(state)).SetAttr("outcome", tracing.Outcome(err)).End()

	if err != nil {
		mgr.metrics.jobsCompleted.With(string(StateFailed)).Inc()
		mgr.metrics.jobsFailed.With(reason).Inc()
		return
	}
	mgr.metrics.jobsCompleted.With(string(StateDone)).Inc()
	if res.Violated {
		mgr.metrics.jobsViolated.Inc()
	}
	// Chargeback: both roles attach a ledger to every run (standalone
	// evaluators above, fleet workers remotely — including fleet-cache
	// hits, which replay the cached wire result with its summary), so
	// standalone and coordinator bill identically for the same jobs.
	mgr.metrics.energy.Record(j.req.Tenant, res.Energy)
}

// failureReason classifies a job failure for hcapp_jobs_failed_total
// and rewrites a context deadline into a user-facing timeout message.
func (mgr *Manager) failureReason(err error) (string, error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout", fmt.Errorf("timeout after %s", mgr.cfg.JobTimeout)
	case errors.As(err, new(experiment.PanicError)):
		return "panic", err
	default:
		return "error", err
	}
}

// simulate runs spec on ev under ctx through experiment.RunContained,
// so a panicking simulation fails its own job instead of killing a pool
// goroutine (which would silently shrink the pool for the life of the
// process). The recover installs before anything dereferences ev, and
// the stack is logged exactly once, tagged with the job id —
// hcapp_jobs_failed_total{reason="panic"} counts the event, but only
// the log carries enough to debug it.
//
// A local run opens the item[0], attempt[0] and engine spans under the
// run span that a remote run gets from Coordinator.Execute and the
// fleet worker, so the job's span tree has one shape in either role,
// and both stamp the engine span through experiment.EndEngineSpan.
func (mgr *Manager) simulate(ctx context.Context, ev *experiment.Evaluator, spec experiment.RunSpec, jobID string) (experiment.RunResult, error) {
	var item, attempt *tracing.ActiveSpan
	open := func() *tracing.ActiveSpan {
		tr, parent, ok := tracing.FromContext(ctx)
		if !ok || ev.Remote != nil {
			return nil
		}
		item = tr.StartSpan(parent, "item[0]")
		attempt = tr.StartSpan(item.Context(), "attempt[0]")
		attempt.SetAttr("worker", "local").SetAttr("kind", "primary")
		return tr.StartSpan(attempt.Context(), "engine")
	}
	var res experiment.RunResult
	_, err := experiment.RunContained(mgr.logf, "hcapp-serve: job "+jobID, "local", open, func() (*experiment.RunResult, sim.Time, error) {
		var err error
		res, err = ev.RunContext(ctx, spec)
		return &res, ev.Cfg.TimeStep, err
	})
	attempt.SetAttr("outcome", tracing.Outcome(err)).End()
	item.SetAttr("outcome", tracing.Outcome(err)).End()
	return res, err
}

func isFixed(spec experiment.RunSpec) bool {
	return spec.Scheme.Kind == config.FixedVoltage
}

// QueueLen reports jobs waiting for a worker.
func (mgr *Manager) QueueLen() int { return len(mgr.queue) }

// Shutdown stops accepting jobs, then waits for in-flight and queued
// jobs to finish, or for ctx to expire (workers cannot be preempted
// mid-simulation; an expired ctx abandons them to the process exit).
func (mgr *Manager) Shutdown(ctx context.Context) error {
	mgr.mu.Lock()
	if !mgr.draining {
		mgr.draining = true
		close(mgr.queue)
	}
	mgr.mu.Unlock()

	done := make(chan struct{})
	go func() {
		mgr.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
