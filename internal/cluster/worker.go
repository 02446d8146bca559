package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/sim"
	"hcapp/internal/tracing"
)

// WorkerConfig parameterizes one fleet worker.
type WorkerConfig struct {
	// ID names the worker; empty generates a random id.
	ID string
	// Coordinator is the coordinator's base URL ("http://host:port").
	Coordinator string
	// AdvertiseAddr is the base URL the coordinator dials back for
	// slices; it must be reachable from the coordinator.
	AdvertiseAddr string
	// Workers sizes the local simulation pool (default 2).
	Workers int
	// Client talks to the coordinator; nil uses a 10 s-timeout client
	// (register/heartbeat are small control messages).
	Client *http.Client
	// Backoff paces registration retries and jitters the heartbeat
	// phase; the zero value uses the shared defaults. Tests inject a
	// recording Sleep here so retry loops run instantly.
	Backoff Backoff
	// Logf receives operational events; nil means log.Printf.
	Logf func(format string, args ...any)
	// Tracer records engine spans for items that arrive with trace
	// context. Spans both land in this worker's local store (its own
	// /v1/traces shows what it executed) and travel back to the
	// coordinator in the slice response. Nil disables worker-side spans.
	Tracer *tracing.Tracer
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ID == "" {
		c.ID = "w-" + randomID()
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Worker executes batch slices the coordinator ships over. It holds one
// bounded Runner so slices parallelize across local cores, and runs a
// slice on an evaluator built from the wire Params — identical to the
// evaluator a standalone run would use, which is what makes fleet output
// byte-identical to single-node output. Consecutive slices under the
// same Params share that evaluator.
type Worker struct {
	cfg    WorkerConfig
	runner *experiment.Runner
	// heartbeatEvery is learned from the register response.
	heartbeatEvery time.Duration
	registered     atomic.Bool

	// last is the evaluator of the latest slice and the Params it was
	// built from. A slice under the same Params reuses it, and with it
	// the trace sets its builds generated: a client's figure batches
	// arrive as one slice per figure, all under one seed. Its result
	// cache comes along (answering a hedge's duplicate item), holding
	// one Params' results at most: a slice under other Params replaces
	// the evaluator.
	lastMu     sync.Mutex
	lastParams Params
	last       *experiment.Evaluator
}

// NewWorker builds a worker (not yet registered).
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	return &Worker{
		cfg:            cfg,
		runner:         experiment.NewRunner(cfg.Workers),
		heartbeatEvery: 2 * time.Second,
	}
}

// ID reports the worker's fleet identity.
func (w *Worker) ID() string { return w.cfg.ID }

// Ready reports whether the worker has successfully registered — the
// /readyz criterion: an unregistered worker receives no traffic, so a
// load balancer should not route to it either.
func (w *Worker) Ready() bool { return w.registered.Load() }

// Register announces the worker to the coordinator and adopts the
// advertised heartbeat cadence.
func (w *Worker) Register(ctx context.Context) error {
	body, err := json.Marshal(RegisterRequest{
		ID:      w.cfg.ID,
		Addr:    w.cfg.AdvertiseAddr,
		Workers: w.cfg.Workers,
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.cfg.Coordinator+"/v1/cluster/register", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: register: coordinator returned %d", resp.StatusCode)
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return err
	}
	if rr.HeartbeatEveryMS > 0 {
		w.heartbeatEvery = time.Duration(rr.HeartbeatEveryMS) * time.Millisecond
	}
	w.registered.Store(true)
	return nil
}

// heartbeat sends one liveness ping; a 404 means the coordinator forgot
// us (restart, expiry), so re-register.
func (w *Worker) heartbeat(ctx context.Context) error {
	body, _ := json.Marshal(HeartbeatRequest{ID: w.cfg.ID})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.cfg.Coordinator+"/v1/cluster/heartbeat", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		w.registered.Store(false)
		return w.Register(ctx)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: heartbeat: coordinator returned %d", resp.StatusCode)
	}
	return nil
}

// Run registers (retrying with capped jittered backoff until ctx dies)
// and then heartbeats until ctx dies. The heartbeat loop starts at a
// random phase inside the first interval and keeps ±10% jitter on every
// tick, so a fleet of workers restarted together — or reconnecting
// after a coordinator restart — spreads its control traffic instead of
// arriving as a thundering herd. It returns nil on a clean context
// cancellation.
func (w *Worker) Run(ctx context.Context) error {
	for attempt := 0; ; attempt++ {
		if err := w.Register(ctx); err == nil {
			break
		} else {
			w.cfg.Logf("cluster: worker %s: register with %s failed: %v (retrying)",
				w.cfg.ID, w.cfg.Coordinator, err)
		}
		if err := w.cfg.Backoff.Wait(ctx, attempt); err != nil {
			return err
		}
	}
	w.cfg.Logf("cluster: worker %s registered with %s (heartbeat every %s)",
		w.cfg.ID, w.cfg.Coordinator, w.heartbeatEvery)
	// Random phase first, jittered interval thereafter.
	next := w.cfg.Backoff.JitterPhase(w.heartbeatEvery)
	for {
		t := time.NewTimer(next)
		select {
		case <-t.C:
			if err := w.heartbeat(ctx); err != nil && ctx.Err() == nil {
				w.cfg.Logf("cluster: worker %s: heartbeat failed: %v", w.cfg.ID, err)
			}
			next = w.cfg.Backoff.JitterAround(w.heartbeatEvery, 0.1)
		case <-ctx.Done():
			t.Stop()
			return nil
		}
	}
}

// Handler mounts the worker's HTTP surface:
//
//	POST /v1/worker/run  execute a batch slice
//	GET  /healthz        process liveness
//	GET  /readyz         registered with the coordinator
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/worker/run", w.handleRun)
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, r *http.Request) {
		if !w.Ready() {
			writeError(rw, http.StatusServiceUnavailable, "not registered with coordinator")
			return
		}
		writeJSON(rw, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 8<<20)).Decode(&req); err != nil {
		writeError(rw, http.StatusBadRequest, "invalid slice request: %v", err)
		return
	}
	resp, err := w.RunSlice(r.Context(), req.Params, req.Items)
	if err != nil {
		writeError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	writeSliceResponse(rw, resp)
}

// writeSliceResponse writes resp as writeJSON does, one result at a
// time: the encoder's buffer then holds one item's JSON, energy ledger
// included, instead of growing to the whole slice's (about 130 KB for
// a 32-item figure slice, allocated at every doubling on the way).
func writeSliceResponse(rw http.ResponseWriter, resp *RunResponse) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(rw)
	io.WriteString(rw, `{"results":[`)
	for i := range resp.Results {
		if i > 0 {
			io.WriteString(rw, ",")
		}
		enc.Encode(&resp.Results[i])
	}
	fmt.Fprintf(rw, `],"cache_hits":%d`, resp.CacheHits)
	if len(resp.Spans) > 0 {
		io.WriteString(rw, `,"spans":`)
		enc.Encode(resp.Spans)
	}
	io.WriteString(rw, "}\n")
}

// RunSlice executes the items on the local pool and returns
// index-aligned results. A panicking simulation fails only its own item
// (experiment.RunContained), its stack logged once with the item index.
func (w *Worker) RunSlice(ctx context.Context, params Params, items []Item) (*RunResponse, error) {
	resp := &RunResponse{Results: make([]ItemResult, len(items))}
	ev := w.evaluator(params)
	var spanMu sync.Mutex
	err := w.runner.Tasks(ctx, len(items), func(ctx context.Context, i int) error {
		res, span := w.runItem(ctx, ev, items[i], i)
		resp.Results[i] = res
		if span.SpanID != "" {
			spanMu.Lock()
			resp.Spans = append(resp.Spans, span)
			spanMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Stable order regardless of pool scheduling: responses stay
	// byte-comparable across runs.
	sort.Slice(resp.Spans, func(a, b int) bool { return resp.Spans[a].Path < resp.Spans[b].Path })
	return resp, nil
}

// evaluator returns the evaluator for params: the last slice's when it
// ran under the same params, else a fresh one that becomes the last.
func (w *Worker) evaluator(params Params) *experiment.Evaluator {
	w.lastMu.Lock()
	defer w.lastMu.Unlock()
	if w.last != nil && w.lastParams == params {
		return w.last
	}
	// The evaluator stays runner-less: items fan out through the pool
	// in RunSlice, and nesting RunSpecs batches inside pool tasks would
	// deadlock the shared runner.
	ev := params.Evaluator()
	// Workers always carry the energy ledger: it is passive (identical
	// simulated metrics), and it makes every fleet result — and every
	// fleet-cache hit — usable for coordinator-side chargeback no matter
	// which client's request populated the cache.
	ev.TrackEnergy = true
	w.last, w.lastParams = ev, params
	return ev
}

func (w *Worker) runItem(ctx context.Context, ev *experiment.Evaluator, it Item, idx int) (ItemResult, tracing.Span) {
	var out ItemResult
	open := func() *tracing.ActiveSpan {
		if w.cfg.Tracer == nil || it.Trace == nil || !it.Trace.Valid() {
			return nil
		}
		return w.cfg.Tracer.StartSpan(*it.Trace, "engine")
	}
	who := fmt.Sprintf("cluster: worker %s: item %d", w.cfg.ID, idx)
	span, err := experiment.RunContained(w.cfg.Logf, who, w.cfg.ID, open, func() (*experiment.RunResult, sim.Time, error) {
		if (it.Spec == nil) == (it.Scaling == nil) {
			return nil, 0, errors.New("item must set exactly one of spec, scaling")
		}
		if it.Scaling != nil {
			var err error
			out.Scaling, err = runScalingItem(ctx, *it.Scaling)
			return nil, 0, err
		}
		spec, err := it.Spec.RunSpec()
		if err != nil {
			return nil, 0, err
		}
		res, err := ev.RunContext(ctx, spec)
		if err != nil {
			return nil, 0, err
		}
		r := ResultOf(res)
		out.Result = &r
		return &res, ev.Cfg.TimeStep, nil
	})
	if err != nil {
		out = ItemResult{Error: err.Error()}
	}
	return out, span
}

// runScalingItem rebuilds the sweep-cell inputs and simulates it.
func runScalingItem(ctx context.Context, cell ScalingCell) (*ScalingCellResult, error) {
	combo, err := experiment.ComboByName(cell.Combo)
	if err != nil {
		return nil, err
	}
	cfg := config.Default()
	cfg.Seed = cell.Seed
	sc := experiment.ScalingConfig{
		Network:        cell.Network,
		CentralFloor:   cell.CentralFloorNS,
		LimitPerTriple: cell.LimitPerTriple,
		Window:         cell.WindowNS,
		Combo:          combo,
		Dur:            cell.DurNS,
	}
	maxOver, ppe, err := experiment.RunScalingCell(ctx, cfg, sc, cell.Triples, cell.PeriodNS, cell.LimitW)
	if err != nil {
		return nil, err
	}
	return &ScalingCellResult{MaxOverLimit: maxOver, PPE: ppe}, nil
}
