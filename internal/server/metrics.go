package server

import (
	"hcapp/internal/buildinfo"
	"hcapp/internal/config"
	"hcapp/internal/energy"
	"hcapp/internal/experiment"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
	"hcapp/internal/telemetry"
)

// metrics bundles every family hcapp-serve exports. The full catalogue,
// with meanings and label schemas, is documented in docs/METRICS.md —
// keep the two in sync.
type metrics struct {
	reg *telemetry.Registry

	jobsSubmitted *telemetry.Counter
	jobsRejected  *telemetry.Counter
	jobsCompleted *telemetry.CounterVec // state
	jobsFailed    *telemetry.CounterVec // reason
	jobsViolated  *telemetry.Counter
	queueDepth    *telemetry.Gauge
	jobsRunning   *telemetry.Gauge
	jobSeconds    *telemetry.Histogram

	simSteps *telemetry.CounterVec // job
	simTime  *telemetry.GaugeVec   // job
	pkgPower *telemetry.GaugeVec   // job
	domPower *telemetry.GaugeVec   // job, domain
	domVolt  *telemetry.GaugeVec   // job, domain
	limit    *telemetry.GaugeVec   // job, limit
	target   *telemetry.GaugeVec   // job

	httpRequests *telemetry.CounterVec // handler

	// stageSeconds is the request-pipeline latency histogram the tracer
	// feeds: every locally finished span observes its duration under its
	// stage name (job, queue-wait, run, item, attempt, engine, batch).
	stageSeconds *telemetry.HistogramVec // stage
	// rt republishes Go runtime health (goroutines, heap, GC) at scrape
	// time.
	rt *telemetry.RuntimeMetrics

	// runner is the experiment scheduler's family set (per-run duration
	// histogram, in-flight and queue-depth gauges), shared by the job
	// workers' runner so /metrics reports suite progress.
	runner *experiment.RunnerMetrics

	// energy rolls per-job ledger summaries into the bounded-cardinality
	// hcapp_energy_joules_total / hcapp_tenant_energy_joules_total
	// counters and the /v1/energy chargeback table.
	energy *energy.Collector
}

func newMetrics() *metrics {
	reg := telemetry.NewRegistry()
	reg.Gauge("hcapp_build_info",
		"Build metadata carried in labels; the value is always 1.",
		"version").With(buildinfo.Version()).Set(1)
	return &metrics{
		reg: reg,
		jobsSubmitted: reg.Counter("hcapp_jobs_submitted_total",
			"Jobs accepted by POST /v1/jobs.").With(),
		jobsRejected: reg.Counter("hcapp_jobs_rejected_total",
			"Job submissions rejected (invalid request or full queue).").With(),
		jobsCompleted: reg.Counter("hcapp_jobs_completed_total",
			"Jobs finished, by terminal state.", "state"),
		jobsFailed: reg.Counter("hcapp_jobs_failed_total",
			"Failed jobs, by failure reason (error, timeout, panic).", "reason"),
		jobsViolated: reg.Counter("hcapp_jobs_violated_total",
			"Finished jobs whose run exceeded its power limit.").With(),
		// queueDepth is not touched on the submit/dequeue paths —
		// Server.handleMetrics derives it from the live channel length
		// at scrape time, so the exported value is exact at every
		// scrape instead of drifting between racy update points.
		queueDepth: reg.Gauge("hcapp_jobs_queue_depth",
			"Jobs waiting for a worker.").With(),
		jobsRunning: reg.Gauge("hcapp_jobs_running",
			"Jobs currently simulating.").With(),
		jobSeconds: reg.Histogram("hcapp_job_duration_seconds",
			"Wall-clock job duration.", telemetry.ExpBuckets(0.01, 2, 12)).With(),
		simSteps: reg.Counter("hcapp_sim_steps_total",
			"Engine steps executed (rate() gives steps/sec).", "job"),
		simTime: reg.Gauge("hcapp_sim_time_seconds",
			"Simulated time reached by the job.", "job"),
		pkgPower: reg.Gauge("hcapp_package_power_watts",
			"Live total package power.", "job"),
		domPower: reg.Gauge("hcapp_domain_power_watts",
			"Live per-chiplet (voltage domain) power.", "job", "domain"),
		domVolt: reg.Gauge("hcapp_domain_voltage_volts",
			"Live per-domain output voltage (controller state).", "job", "domain"),
		limit: reg.Gauge("hcapp_power_limit_watts",
			"The job's power limit.", "job", "limit"),
		target: reg.Gauge("hcapp_power_target_watts",
			"The global controller's power target (PSPEC).", "job"),
		httpRequests: reg.Counter("hcapp_http_requests_total",
			"API requests served.", "handler"),
		stageSeconds: reg.Histogram("hcapp_stage_duration_seconds",
			"Wall-clock duration of each request-pipeline stage (job, queue-wait, run, item, attempt, engine, batch), fed by the tracer's locally finished spans.",
			telemetry.DefBuckets(), "stage"),
		rt:     telemetry.NewRuntimeMetrics(reg),
		runner: experiment.NewRunnerMetrics(reg),
		energy: energy.NewCollector(reg, energy.CollectorConfig{}),
	}
}

// dropJob deletes every per-job series when the manager evicts a job,
// so the retention cap genuinely bounds /metrics cardinality instead of
// leaking one series set per job over a long serving life. The evicted
// job is terminal, so no observer will resurrect its series.
func (m *metrics) dropJob(jobID string) {
	match := map[string]string{"job": jobID}
	m.simSteps.DeletePartialMatch(match)
	m.simTime.DeletePartialMatch(match)
	m.pkgPower.DeletePartialMatch(match)
	m.domPower.DeletePartialMatch(match)
	m.domVolt.DeletePartialMatch(match)
	m.limit.DeletePartialMatch(match)
	m.target.DeletePartialMatch(match)
}

// metricsFlushEvery is how many engine steps a job observer batches
// before publishing gauges (a stride may carry it past the mark).
// Scrapes are seconds apart while steps are 100 ns of simulated time,
// so publishing every step would be pure overhead; at 64 the telemetry
// cost vanishes into the step noise while /metrics lags the simulation
// by under 7 µs of simulated time, or by one stride.
const metricsFlushEvery = 64

// jobObserver implements sched.StepObserver for one running job: it
// feeds the job's live trace buffer every step and publishes telemetry
// gauges every metricsFlushEvery steps through label-cached handles.
type jobObserver struct {
	trace *traceBuffer

	steps    *telemetry.Counter
	simTime  *telemetry.Gauge
	pkgPower *telemetry.Gauge
	// domPower/domVolt are resolved lazily on the first step, in the
	// engine's slot order, from the domain names the engine reports.
	jobID    string
	m        *metrics
	domPower []*telemetry.Gauge
	domVolt  []*telemetry.Gauge

	pending int64
}

func (m *metrics) newJobObserver(j *Job, spec jobSpecInfo) *jobObserver {
	o := &jobObserver{
		trace:    j.trace,
		steps:    m.simSteps.With(j.id),
		simTime:  m.simTime.With(j.id),
		pkgPower: m.pkgPower.With(j.id),
		jobID:    j.id,
		m:        m,
	}
	m.limit.With(j.id, spec.limit.Name).Set(spec.limit.Watts)
	if spec.target > 0 {
		m.target.With(j.id).Set(spec.target)
	}
	return o
}

// jobSpecInfo carries the static per-job values published once.
type jobSpecInfo struct {
	limit  config.PowerLimit
	target float64
}

func (o *jobObserver) ObserveSteps(now, dt sim.Time, n int64, total float64, domains []sched.DomainSample) {
	o.trace.observe(now, dt, n, total)
	if o.domPower == nil {
		for _, d := range domains {
			o.domPower = append(o.domPower, o.m.domPower.With(o.jobID, d.Domain))
			o.domVolt = append(o.domVolt, o.m.domVolt.With(o.jobID, d.Domain))
		}
	}
	o.pending += n
	if o.pending < metricsFlushEvery {
		return
	}
	o.steps.Add(float64(o.pending))
	o.pending = 0
	o.simTime.Set(sim.Seconds(now + sim.Time(n-1)*dt))
	o.pkgPower.Set(total)
	for i := range domains {
		o.domPower[i].Set(domains[i].Power)
		o.domVolt[i].Set(domains[i].Voltage)
	}
}

// flush publishes whatever a finished run left un-batched.
func (o *jobObserver) flush() {
	if o.pending > 0 {
		o.steps.Add(float64(o.pending))
		o.pending = 0
	}
	if now, _ := o.trace.Progress(); now > 0 {
		o.simTime.Set(sim.Seconds(now))
	}
}
