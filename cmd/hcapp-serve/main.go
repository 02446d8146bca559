// Command hcapp-serve runs the HCAPP reproduction as a long-lived
// simulation service: experiment jobs go in over HTTP, live telemetry
// comes out as Prometheus metrics.
//
//	hcapp-serve -addr :8080 -workers 4
//
// Endpoints:
//
//	POST /v1/jobs             submit a simulation job (JSON body)
//	GET  /v1/jobs             list retained jobs
//	GET  /v1/jobs/{id}        job status + result
//	GET  /v1/jobs/{id}/trace  page through the live power trace
//	GET  /v1/traces           distributed span trees (docs/TRACING.md)
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             process liveness (always 200 once serving)
//	GET  /readyz              routability (503 while draining/unready)
//
// Passing -pprof additionally mounts Go's profiling endpoints under
// /debug/pprof/ (all roles; opt-in because a profile can stall the
// process for its whole sampling window).
//
// The process can also run as one node of a distributed fleet
// (docs/CLUSTER.md):
//
//	hcapp-serve -role coordinator -addr :8080
//	hcapp-serve -role worker -addr :8081 -coordinator http://host:8080
//
// A coordinator additionally mounts POST /v1/cluster/{register,
// heartbeat,run} and GET /v1/cluster/workers, shards job batches across
// registered workers, and dedups identical work fleet-wide. The default
// role, standalone, is bit-compatible with every previous release:
// jobs simulate on the local pool with no cluster machinery involved.
//
// For robustness testing, coordinator and worker roles accept
// -chaos-seed (with -chaos-profile): a deterministic fault injector
// that perturbs the cluster transport while output must stay
// byte-identical (docs/CLUSTER.md).
//
// The process drains gracefully on SIGTERM/SIGINT: in-flight
// simulations finish (bounded by -drain-timeout), new submissions get
// 503.
// See docs/METRICS.md for the metric catalogue and README.md for curl
// examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hcapp/internal/buildinfo"
	"hcapp/internal/chaos"
	"hcapp/internal/cluster"
	"hcapp/internal/server"
	"hcapp/internal/sim"
	"hcapp/internal/telemetry"
	"hcapp/internal/tracing"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "simulation worker pool size")
	queue := flag.Int("queue", 32, "job queue depth (back-pressure bound)")
	maxDurMS := flag.Float64("max-dur", 64, "maximum per-job target duration, simulated ms")
	maxJobs := flag.Int("max-jobs", 256, "retained job table size")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock budget; exceeding it fails the job with a timeout reason (0 disables)")
	drain := flag.Duration("drain-timeout", 2*time.Minute, "graceful shutdown drain budget")
	role := flag.String("role", "standalone", "node role: standalone, coordinator or worker")
	coordinator := flag.String("coordinator", "", "coordinator base URL (worker role)")
	advertise := flag.String("advertise", "", "base URL the coordinator dials this worker back on (worker role; default derived from -addr on loopback)")
	workerID := flag.String("worker-id", "", "stable fleet identity (worker role; default random)")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "fleet heartbeat interval (coordinator role)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admitted items/sec, 0 = unlimited (coordinator role)")
	tenantBurst := flag.Int("tenant-burst", 256, "per-tenant token-bucket burst (coordinator role)")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge straggler slices onto a second worker after this latency; 0 adapts to recent latencies, negative disables (coordinator role)")
	chaosSeed := flag.Int64("chaos-seed", 0, "deterministic fault-injection seed for the cluster transport, 0 = chaos off (coordinator/worker roles; testing only)")
	chaosProfile := flag.String("chaos-profile", "soak", "fault-injection intensity: light, soak or heavy (with -chaos-seed)")
	maxTraces := flag.Int("max-traces", 0, "retained span-tree table size behind GET /v1/traces, 0 = default 256")
	pprofOn := flag.Bool("pprof", false, "mount Go profiling endpoints under /debug/pprof/ (CPU/heap/goroutine profiles; off by default)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "hcapp-serve")
		return
	}

	// Chaos is opt-in and scoped to the cluster transport: the injector
	// only exists when -chaos-seed is set, and standalone nodes have no
	// transport to perturb.
	var inj *chaos.Injector
	if *chaosSeed != 0 {
		if *role == "standalone" {
			fmt.Fprintln(os.Stderr, "hcapp-serve: -chaos-seed needs -role coordinator or worker (standalone has no cluster transport)")
			os.Exit(2)
		}
		profile, err := chaos.ProfileByName(*chaosProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hcapp-serve: %v\n", err)
			os.Exit(2)
		}
		inj = chaos.New(*chaosSeed, profile)
	}

	switch *role {
	case "standalone", "coordinator":
	case "worker":
		if *coordinator == "" {
			fmt.Fprintln(os.Stderr, "hcapp-serve: -role worker requires -coordinator URL")
			os.Exit(2)
		}
		runWorker(*addr, *coordinator, *advertise, *workerID, *workers, *drain, inj, *maxTraces, *pprofOn)
		return
	default:
		fmt.Fprintf(os.Stderr, "hcapp-serve: unknown -role %q (valid: standalone, coordinator, worker)\n", *role)
		os.Exit(2)
	}

	cfg := server.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		MaxDur:     sim.Time(*maxDurMS * float64(sim.Millisecond)),
		MaxJobs:    *maxJobs,
		JobTimeout: *jobTimeout,
		MaxTraces:  *maxTraces,
	}
	if *role == "coordinator" {
		ccfg := cluster.CoordinatorConfig{
			HeartbeatEvery: *heartbeat,
			TenantRate:     *tenantRate,
			TenantBurst:    *tenantBurst,
			HedgeAfter:     *hedgeAfter,
		}
		if inj != nil {
			// Outbound slices to workers go through the fault-injecting
			// transport; each node draws its own schedule from the seed.
			inj = inj.ForNode("coordinator")
			ccfg.Client = &http.Client{Transport: inj.RoundTripper(nil)}
			log.Printf("hcapp-serve: chaos enabled (seed %d, profile %s) — testing only", *chaosSeed, *chaosProfile)
		}
		cfg.Cluster = cluster.NewCoordinator(ccfg)
		cfg.Chaos = inj
	}
	srv := server.New(cfg)

	var handler http.Handler = srv
	if inj != nil {
		// Inbound registrations, heartbeats and batch submissions take
		// faults too; health probes and /metrics stay exempt.
		handler = inj.Middleware(handler)
	}
	// Profiling mounts outside the chaos middleware: profiling a
	// fault-injected node must not itself take faults.
	handler = withPprof(handler, *pprofOn)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("hcapp-serve: %s listening on %s (%d workers, queue %d)", *role, *addr, *workers, *queue)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		log.Printf("hcapp-serve: signal received, draining (budget %s)", *drain)
	case err := <-errCh:
		log.Printf("hcapp-serve: listener failed: %v", err)
		os.Exit(1)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting HTTP first, then let queued/running jobs finish.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("hcapp-serve: http shutdown: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "hcapp-serve: jobs still running at drain deadline: %v\n", err)
		os.Exit(1)
	}
	log.Printf("hcapp-serve: drained cleanly")
}

// withPprof mounts Go's /debug/pprof/ endpoints in front of h when
// enabled. Opt-in (-pprof) because a CPU profile or execution trace
// stalls its target for the whole sampling window — not something to
// leave open on a node serving a fleet.
func withPprof(h http.Handler, enabled bool) http.Handler {
	if !enabled {
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// runWorker serves the worker role: a slice-execution HTTP surface plus
// a register/heartbeat loop against the coordinator. It blocks until
// SIGTERM/SIGINT and then drains the listener.
func runWorker(addr, coordinator, advertise, id string, workers int, drain time.Duration, inj *chaos.Injector, maxTraces int, pprofOn bool) {
	if advertise == "" {
		// A bare ":8081" listen address reaches itself on loopback; a
		// worker on another host must advertise explicitly.
		host := addr
		if strings.HasPrefix(host, ":") {
			host = "127.0.0.1" + host
		}
		advertise = "http://" + host
	}

	// Workers carry their own observability surface: a registry with the
	// engine-stage latency histogram and Go runtime gauges, plus a span
	// store so the node's partial view of each distributed trace is
	// inspectable in place (the coordinator holds the assembled trees).
	reg := telemetry.NewRegistry()
	reg.Gauge("hcapp_build_info",
		"Build metadata carried in labels; the value is always 1.",
		"version").With(buildinfo.Version()).Set(1)
	rt := telemetry.NewRuntimeMetrics(reg)
	stage := reg.Histogram("hcapp_stage_duration_seconds",
		"Wall-clock duration of each request-pipeline stage executed on this node.",
		telemetry.DefBuckets(), "stage")
	tracer := tracing.New(tracing.Config{MaxTraces: maxTraces, Stages: stage})

	wcfg := cluster.WorkerConfig{
		ID:            id,
		Coordinator:   coordinator,
		AdvertiseAddr: advertise,
		Workers:       workers,
		Tracer:        tracer,
	}
	if inj != nil {
		// Give every worker its own schedule keyed by its stable fleet
		// identity; pass -worker-id for a reproducible run.
		node := id
		if node == "" {
			node = advertise
		}
		inj = inj.ForNode(node)
		inj.WithMetrics(chaos.NewMetrics(reg))
		wcfg.Client = &http.Client{Timeout: 10 * time.Second, Transport: inj.RoundTripper(nil)}
		log.Printf("hcapp-serve: chaos enabled on worker %s — testing only", node)
	}
	w := cluster.NewWorker(wcfg)

	var handler http.Handler = w.Handler()
	if inj != nil {
		handler = inj.Middleware(handler)
	}
	// Observability endpoints mount outside the chaos middleware, like
	// the coordinator's: scrapes and trace reads must stay clean while
	// the transport under test is being perturbed.
	render := reg.Handler()
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.Handle("/v1/traces", tracing.Handler(tracer))
	mux.Handle("/metrics", http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rt.Refresh()
		render.ServeHTTP(rw, r)
	}))
	handler = withPprof(mux, pprofOn)
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("hcapp-serve: worker %s listening on %s (advertising %s, %d local workers)",
			w.ID(), addr, advertise, workers)
		errCh <- httpSrv.ListenAndServe()
	}()
	go func() {
		if err := w.Run(ctx); err != nil && ctx.Err() == nil {
			log.Printf("hcapp-serve: worker loop: %v", err)
		}
	}()

	select {
	case <-ctx.Done():
		log.Printf("hcapp-serve: worker %s draining (budget %s)", w.ID(), drain)
	case err := <-errCh:
		log.Printf("hcapp-serve: listener failed: %v", err)
		os.Exit(1)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("hcapp-serve: http shutdown: %v", err)
	}
	log.Printf("hcapp-serve: worker %s drained", w.ID())
}
