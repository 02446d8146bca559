package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hcapp/internal/chaos"
	"hcapp/internal/cluster"
	"hcapp/internal/sim"
	"hcapp/internal/tracing"
)

// Config sizes the service.
type Config struct {
	// Workers is the simulation worker-pool size (default 2).
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 32); beyond
	// it, POST /v1/jobs returns 429.
	QueueDepth int
	// MaxDur caps a single job's target duration (default 64 ms of
	// simulated time — ~30 s of wall clock on one core).
	MaxDur sim.Time
	// MaxJobs bounds the retained job table (default 256; oldest
	// finished jobs evicted first). Evicting a job also deletes its
	// per-job metric series, so this bounds /metrics cardinality too.
	MaxJobs int
	// MaxTraces bounds the span store behind GET /v1/traces (default
	// 256 traces, FIFO eviction; see docs/TRACING.md).
	MaxTraces int
	// Tracer overrides the span store (tests); nil builds one sized by
	// MaxTraces and wired to the hcapp_stage_duration_seconds histogram.
	Tracer *tracing.Tracer
	// JobTimeout bounds one job's wall-clock simulation time. A job that
	// exceeds it is cancelled cooperatively (the engine polls every few
	// thousand steps) and fails with a timeout reason. Zero disables the
	// bound — MaxDur already limits simulated time; this guards against
	// simulations that are slow in wall clock (a hung or mis-sized run
	// must not pin a worker forever).
	JobTimeout time.Duration
	// Cluster, when non-nil, puts the server in coordinator role: every
	// job's evaluator runs its engine on the fleet (Evaluator.Remote),
	// the cluster control-plane endpoints mount under /v1/cluster/, and
	// /readyz requires at least one live fleet worker.
	Cluster *cluster.Coordinator
	// Chaos, when non-nil, is the fault injector wrapped around this
	// node's transport (hcapp-serve -chaos-seed). The server only
	// attaches its injection counters to the registry so
	// hcapp_chaos_faults_injected_total lands in the same scrape.
	Chaos *chaos.Injector
	// Logf receives operational events (panic stacks, fleet churn); nil
	// means log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.MaxDur <= 0 {
		c.MaxDur = 64 * sim.Millisecond
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	return c
}

// Server is the HTTP face over a Manager: job submission and status,
// live trace paging, health and Prometheus metrics.
type Server struct {
	cfg     Config
	manager *Manager
	metrics *metrics
	mux     *http.ServeMux
}

// New builds a started server (workers running, handler ready to
// mount). Call Shutdown to drain.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := newMetrics()
	if cfg.Tracer == nil {
		cfg.Tracer = tracing.New(tracing.Config{MaxTraces: cfg.MaxTraces, Stages: m.stageSeconds})
	}
	s := &Server{
		cfg:     cfg,
		manager: NewManager(cfg, m),
		metrics: m,
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/jobs", s.counted("jobs", s.handleJobs))
	s.mux.HandleFunc("/v1/jobs/", s.counted("job", s.handleJob))
	s.mux.HandleFunc("/v1/energy", s.counted("energy", s.handleEnergy))
	s.mux.HandleFunc("/healthz", s.counted("healthz", s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.counted("readyz", s.handleReadyz))
	s.mux.Handle("/metrics", s.countedHandler("metrics", s.metricsHandler()))
	s.mux.Handle("/v1/traces", s.countedHandler("traces", tracing.Handler(cfg.Tracer)))
	if cfg.Cluster != nil {
		// The coordinator's telemetry families join the server registry so
		// one /metrics scrape covers jobs and fleet alike — and its spans
		// land in the same store, so a delegated job reads as one tree.
		cfg.Cluster.WithMetrics(cluster.NewMetrics(m.reg)).WithTracer(cfg.Tracer)
		s.mux.Handle("/v1/cluster/", s.countedHandler("cluster", cfg.Cluster.Handler()))
	}
	if cfg.Chaos != nil {
		cfg.Chaos.WithMetrics(chaos.NewMetrics(m.reg))
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Manager exposes the job manager (tests, embedding).
func (s *Server) Manager() *Manager { return s.manager }

// Shutdown drains the worker pool; see Manager.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error { return s.manager.Shutdown(ctx) }

func (s *Server) counted(name string, h http.HandlerFunc) http.HandlerFunc {
	c := s.metrics.httpRequests.With(name)
	return func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		h(w, r)
	}
}

// metricsHandler refreshes scrape-derived gauges before rendering the
// registry. Queue depth is read from the live channel here rather than
// maintained on the enqueue/dequeue paths, where updates race each
// other (and the rejection path) and let the gauge drift; the Go
// runtime gauges are read here for the same reason (ReadMemStats costs
// a brief stop-the-world, so it runs exactly once per scrape).
func (s *Server) metricsHandler() http.Handler {
	render := s.metrics.reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.queueDepth.Set(float64(s.manager.QueueLen()))
		s.metrics.rt.Refresh()
		render.ServeHTTP(w, r)
	})
}

func (s *Server) countedHandler(name string, h http.Handler) http.Handler {
	c := s.metrics.httpRequests.With(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		h.ServeHTTP(w, r)
	})
}

// apiError is every non-2xx body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleEnergy serves GET /v1/energy: the per-tenant chargeback table
// accumulated from every completed job's energy ledger. In coordinator
// role the table covers the whole fleet — every delegated job's summary
// comes back over the wire and is recorded here, so one endpoint bills
// all tenants regardless of which worker simulated what.
func (s *Server) handleEnergy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.energy.Chargeback())
}

// handleJobs serves POST /v1/jobs (submit) and GET /v1/jobs (list).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req JobRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.metrics.jobsRejected.Inc()
			writeError(w, http.StatusBadRequest, "invalid job request: %v", err)
			return
		}
		j, err := s.manager.Submit(req)
		switch {
		case err == ErrQueueFull:
			// Queue pressure and token buckets both clear quickly; tell
			// well-behaved clients when to come back instead of letting
			// them guess.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case err == ErrTenantThrottled:
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case err == ErrShuttingDown:
			// A drain is terminal for this process: point clients at the
			// replacement's spin-up time, not the bucket refill.
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case err != nil:
			writeError(w, http.StatusBadRequest, "%v", err)
		default:
			w.Header().Set("Location", "/v1/jobs/"+j.id)
			writeJSON(w, http.StatusAccepted, j.Status())
		}
	case http.MethodGet:
		writeJSON(w, http.StatusOK, struct {
			Jobs []JobStatus `json:"jobs"`
		}{s.manager.List()})
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// handleJob serves GET /v1/jobs/{id} and GET /v1/jobs/{id}/trace.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	j, ok := s.manager.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	switch sub {
	case "":
		writeJSON(w, http.StatusOK, j.Status())
	case "trace":
		s.handleTrace(w, r, j)
	default:
		writeError(w, http.StatusNotFound, "no resource %q under job %q", sub, id)
	}
}

// traceResponse is the GET /v1/jobs/{id}/trace body: one page of the
// live down-sampled power trace. Clients follow a running job by
// re-requesting with offset=next_offset until state is terminal.
type traceResponse struct {
	ID         string        `json:"id"`
	State      JobState      `json:"state"`
	Samples    []TraceSample `json:"samples"`
	NextOffset int           `json:"next_offset"`
	// Dropped counts samples lost after the buffer cap; nonzero means
	// the job outran maxTraceSamples.
	Dropped int64 `json:"dropped,omitempty"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, j *Job) {
	q := r.URL.Query()
	offset := 0
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad offset %q", v)
			return
		}
		offset = n
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	samples, next, dropped := j.trace.Page(offset, limit)
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, traceResponse{
		ID: j.id, State: state, Samples: samples, NextOffset: next, Dropped: dropped,
	})
}

// healthzResponse is the GET /healthz body.
type healthzResponse struct {
	Status    string `json:"status"`
	Workers   int    `json:"workers"`
	QueueLen  int    `json:"queue_len"`
	QueueCap  int    `json:"queue_cap"`
	JobsKnown int    `json:"jobs_known"`
}

// handleHealthz is pure liveness: always 200 while the process can
// serve HTTP, even mid-drain — restarting a draining process loses the
// jobs it is trying to finish. Routability lives on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.manager.mu.Lock()
	known := len(s.manager.jobs)
	draining := s.manager.draining
	s.manager.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:    status,
		Workers:   s.cfg.Workers,
		QueueLen:  s.manager.QueueLen(),
		QueueCap:  s.cfg.QueueDepth,
		JobsKnown: known,
	})
}

// readyzResponse is the GET /readyz body.
type readyzResponse struct {
	Status string `json:"status"`
	// FleetWorkers is the live fleet width (coordinator role only).
	FleetWorkers *int `json:"fleet_workers,omitempty"`
}

// handleReadyz reports routability: 503 before the worker pool is up,
// while draining, and — in coordinator role — while no fleet worker is
// live to execute on. Load balancers poll this; /healthz stays 200
// through all of it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var fleet *int
	if s.cfg.Cluster != nil {
		n := s.cfg.Cluster.WorkersLive()
		fleet = &n
	}
	if !s.manager.Ready() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Status: "unready", FleetWorkers: fleet})
		return
	}
	writeJSON(w, http.StatusOK, readyzResponse{Status: "ready", FleetWorkers: fleet})
}
