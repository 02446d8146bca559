package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
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

// Manager owns the job table and the bounded worker pool. Every job
// simulates on its own evaluator — the concurrency test in
// internal/experiment proves independent evaluators share no mutable
// state — so workers scale across cores without locking the engine.
type Manager struct {
	cfg     Config
	metrics *metrics
	// runner is the shared experiment scheduler all jobs execute on; its
	// width matches the worker count, so routing every simulation through
	// it adds no queuing while publishing per-run telemetry.
	runner *experiment.Runner
	// cluster, when non-nil, is the coordinator jobs delegate to instead
	// of simulating on the local runner (hcapp-serve -role coordinator).
	cluster *cluster.Coordinator
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
		runner:  experiment.NewRunner(cfg.Workers).WithMetrics(m.runner),
		cluster: cfg.Cluster,
		tracer:  cfg.Tracer,
		logf:    logf,
		queue:   make(chan *Job, cfg.QueueDepth),
		jobs:    make(map[string]*Job),
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

	// In coordinator role the per-tenant token bucket gates admission, so
	// an over-limit tenant sees 429 at submit time instead of a queued
	// job that fails later.
	if mgr.cluster != nil && !mgr.cluster.Allow(req.Tenant, 1) {
		mgr.metrics.jobsRejected.Inc()
		return nil, ErrTenantThrottled
	}

	// Served jobs run on config.Default(), so its step sizes the buckets.
	stepsPerSample := int(mgr.cfg.TraceSampleEvery / config.Default().TimeStep)
	j := &Job{
		id:      newJobID(),
		req:     req,
		spec:    spec,
		dur:     dur,
		seed:    seed,
		state:   StateQueued,
		created: time.Now(),
		trace:   newTraceBuffer(stepsPerSample, mgr.cfg.MaxTraceSamples),
	}
	// Spans exist before the queue send: the worker goroutine that
	// dequeues the job ends them, and the channel send is the
	// happens-before edge. The trace id derives from the job id, so
	// GET /v1/traces?job={id} finds the tree without an index.
	j.span = mgr.tracer.StartRoot("job", j.id, j.id)
	j.span.SetAttr("combo", req.Combo).SetAttr("tenant", req.Tenant)
	j.qspan = mgr.tracer.StartSpan(j.span.Context(), "queue-wait")

	// The whole admission — draining check, capacity check, table insert
	// — happens under mgr.mu, making it atomic with respect to
	// Shutdown's close(mgr.queue): a Submit that passed the draining
	// check cannot race the close and send on a closed channel, and a
	// full queue is detected before the job touches the table, so there
	// is no rollback to get wrong. The send never blocks (it is a
	// non-blocking select), so holding the lock across it is cheap.
	mgr.mu.Lock()
	if mgr.draining {
		mgr.mu.Unlock()
		mgr.metrics.jobsRejected.Inc()
		j.qspan.End()
		j.span.SetAttr("outcome", "rejected").End()
		return nil, ErrShuttingDown
	}
	select {
	case mgr.queue <- j:
	default:
		mgr.mu.Unlock()
		mgr.metrics.jobsRejected.Inc()
		j.qspan.End()
		j.span.SetAttr("outcome", "rejected").End()
		return nil, ErrQueueFull
	}
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
	defer func() {
		mgr.metrics.jobsRunning.Dec()
		mgr.metrics.jobSeconds.Observe(time.Since(start).Seconds())
	}()

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

	var res experiment.RunResult
	var err error
	if mgr.cluster != nil {
		// Coordinator role: the fleet simulates. No per-step stream comes
		// back over the wire, so the live trace stays empty; the static
		// spec gauges still publish.
		info := jobSpecInfo{limit: j.spec.Limit}
		if !isFixed(j.spec) {
			info.target = experiment.TargetPowerFor(j.spec.Limit)
		}
		mgr.metrics.newJobObserver(j, info)
		res, err = mgr.delegate(ctx, j)
		if err == nil {
			j.trace.setProgress(res.Duration, int64(res.Duration/config.Default().TimeStep))
		}
	} else {
		// One evaluator per job: it carries the run cache we do not want
		// shared and isolates all mutable simulation state. It is not
		// free: its first build generates every unit's workload trace,
		// most of the time a 0.2 ms job spends building. It keeps those
		// traces only for this job, so the server's memory does not
		// grow with the seeds it has served.
		ev := experiment.NewEvaluator().WithTargetDur(j.dur)
		ev.Cfg.Seed = j.seed
		// Attribute energy on every job so chargeback works in standalone
		// role exactly as it does behind a coordinator (whose fleet
		// workers always track energy).
		ev.TrackEnergy = true
		info := jobSpecInfo{limit: j.spec.Limit}
		if !isFixed(j.spec) {
			info.target = experiment.TargetPowerFor(j.spec.Limit)
		}
		obs := mgr.metrics.newJobObserver(j, info)

		res, err = mgr.simulate(ctx, ev, j.spec, j.id, obs)
		obs.flush()
	}

	reason := ""
	if err != nil {
		reason, err = mgr.failureReason(err)
	}

	end := time.Now()
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
	case errors.As(err, new(panicError)):
		return "panic", err
	default:
		return "error", err
	}
}

// panicError wraps a recovered simulation panic so runJob can classify
// it separately from ordinary run errors.
type panicError struct{ val any }

func (p panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// simulate runs the spec on the shared runner under ctx with panic
// containment: a panicking simulation fails its own job instead of
// killing a pool goroutine (which would silently shrink the pool for
// the life of the process). The recover lives inside the task closure
// because the task executes on the runner's goroutine, not this one.
// The stack is logged exactly once here, tagged with the job id —
// hcapp_jobs_failed_total{reason="panic"} counts the event, but only
// the log carries enough to debug it.
func (mgr *Manager) simulate(ctx context.Context, ev *experiment.Evaluator, spec experiment.RunSpec, jobID string, obs *jobObserver) (experiment.RunResult, error) {
	var res experiment.RunResult
	err := mgr.runner.Tasks(ctx, 1, func(ctx context.Context, _ int) (err error) {
		// The runner already opened item[0] under the run span; this task
		// adds attempt[0] and the engine span, so a standalone tree is
		// shape-identical to a fleet tree where a worker executed the
		// engine stage. Both roles stamp the engine span from the run's
		// result (experiment.EndEngineSpan).
		var attempt, eng *tracing.ActiveSpan
		var dt sim.Time
		// The recover installs before anything dereferences ev: a nil
		// evaluator must fail as a contained panic, not unwind the pool.
		defer func() {
			if r := recover(); r != nil {
				mgr.logf("hcapp-serve: job %s panicked: %v\n%s", jobID, r, debug.Stack())
				err = panicError{val: r}
			}
			var run *experiment.RunResult
			if err == nil {
				run = &res
			}
			experiment.EndEngineSpan(eng, "local", dt, run, err)
			attempt.SetAttr("outcome", tracing.Outcome(err)).End()
		}()
		if tr, parent, ok := tracing.FromContext(ctx); ok {
			attempt = tr.StartSpan(parent, "attempt[0]")
			attempt.SetAttr("worker", "local").SetAttr("kind", "primary")
			eng = tr.StartSpan(attempt.Context(), "engine")
		}
		dt = ev.Cfg.TimeStep
		if obs != nil {
			ev.Observer = obs
		}
		res, err = ev.RunContext(ctx, spec)
		return err
	})
	return res, err
}

// delegate ships one job to the fleet as a single-item interactive
// batch. The tenant bucket was already debited at Submit, so this calls
// Execute (not RunBatch) to avoid charging twice.
func (mgr *Manager) delegate(ctx context.Context, j *Job) (experiment.RunResult, error) {
	params := cluster.DefaultParams(j.seed, j.dur)
	wire, err := cluster.SpecOf(j.spec)
	if err != nil {
		return experiment.RunResult{}, err
	}
	resp, err := mgr.cluster.Execute(ctx, cluster.RunRequest{
		Tenant:   j.req.Tenant,
		Priority: cluster.PriorityInteractive,
		Params:   params,
		Items:    []cluster.Item{{Spec: &wire}},
	})
	if err != nil {
		return experiment.RunResult{}, err
	}
	ir := resp.Results[0]
	if ir.Error != "" {
		return experiment.RunResult{}, fmt.Errorf("cluster: %s", ir.Error)
	}
	if ir.Result == nil {
		return experiment.RunResult{}, fmt.Errorf("cluster: fleet returned no result")
	}
	return ir.Result.RunResult(j.spec), nil
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
