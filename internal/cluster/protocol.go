// Package cluster turns hcapp-serve from a single process into a job
// fleet: N workers register with one coordinator over HTTP and
// heartbeat; the coordinator shards simulation batches across the live
// workers with the same indexed-slot assembly internal/experiment.Runner
// uses, so results — and everything rendered from them — are
// byte-identical to a single-node run at any fleet width.
//
// The coordinator also owns the fleet-wide single-flight result cache
// (content-addressed by the Evaluator cache key), job priority classes
// (interactive ahead of batch), per-tenant token-bucket rate limits with
// 429 backpressure, and retry-on-worker-loss: a batch slice whose worker
// dies is re-sharded across the survivors, idempotent because the work
// items are pure functions of their hashed spec.
//
// Topology, protocol and failure semantics are documented in
// docs/CLUSTER.md.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"hcapp/internal/config"
	"hcapp/internal/energy"
	"hcapp/internal/experiment"
	"hcapp/internal/noc"
	"hcapp/internal/sim"
	"hcapp/internal/tracing"
)

// Priority classes. Interactive work (hcapp-serve jobs submitted by a
// waiting client) is dispatched ahead of batch work (CLI suite sweeps)
// whenever the fleet is contended.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// ValidPriority reports whether p names a priority class ("" means
// batch).
func ValidPriority(p string) bool {
	return p == "" || p == PriorityInteractive || p == PriorityBatch
}

// Params are the evaluator parameters a batch executes under — exactly
// the values the Evaluator folds into its result-cache key, so a
// (Params, Spec) pair content-addresses one deterministic simulation.
// The fleet simulates the default target system; only the workload seed
// varies, matching the local Evaluator whose cache key folds Cfg.Seed
// alone.
type Params struct {
	Seed         int64    `json:"seed"`
	TargetDurNS  sim.Time `json:"target_dur_ns"`
	MaxDurFactor float64  `json:"max_dur_factor"`
	FixedV       float64  `json:"fixed_v"`
}

// DefaultParams returns the parameters an hcapp-serve job runs under
// for the given seed and horizon, in either role.
func DefaultParams(seed int64, targetDur sim.Time) Params {
	return Params{
		Seed:         seed,
		TargetDurNS:  targetDur,
		MaxDurFactor: experiment.DefaultMaxDurFactor,
		FixedV:       experiment.DefaultFixedV,
	}
}

// Evaluator builds a fresh local evaluator configured with the params:
// a served job's evaluator, a fleet worker's execution context, and the
// key generator the coordinator and workers share.
func (p Params) Evaluator() *experiment.Evaluator {
	ev := experiment.NewEvaluator().WithTargetDur(p.TargetDurNS)
	ev.Cfg.Seed = p.Seed
	ev.MaxDurFactor = p.MaxDurFactor
	ev.FixedV = p.FixedV
	return ev
}

// cacheKey is the evaluator cache key of rs under the params: what
// p.Evaluator().CacheKey(rs) returns, without building the evaluator.
func (p Params) cacheKey(rs experiment.RunSpec) string {
	return experiment.RunKey(p.Seed, p.TargetDurNS, p.MaxDurFactor, p.FixedV, false, rs)
}

// Spec is the wire form of experiment.RunSpec: the combo travels by
// name (benchmarks carry unexported builders), scheme and limit are
// pure data and travel whole.
type Spec struct {
	Combo            string             `json:"combo"`
	Scheme           config.Scheme      `json:"scheme"`
	Limit            config.PowerLimit  `json:"limit"`
	Priorities       map[string]float64 `json:"priorities,omitempty"`
	AdversarialAccel bool               `json:"adversarial_accel,omitempty"`
	Policy           string             `json:"policy,omitempty"`
}

// builtinName returns the name a combo travels under. A worker resolves
// the name to the built-in combo of that name, and Item.key addresses
// the item by it, so a combo defined otherwise is refused here rather
// than run as (and cached as) the built-in.
func builtinName(c experiment.Combo) (string, error) {
	builtin, err := experiment.ComboByName(c.Name)
	if err != nil {
		return "", fmt.Errorf("cluster: %w", err)
	}
	if builtin.CPU.Key() != c.CPU.Key() || builtin.GPU.Key() != c.GPU.Key() {
		return "", fmt.Errorf("cluster: combo %q differs from the built-in of that name; only built-in combos run on the fleet", c.Name)
	}
	return c.Name, nil
}

// SpecOf projects a RunSpec onto the wire; only built-in combos travel
// (builtinName).
func SpecOf(s experiment.RunSpec) (Spec, error) {
	combo, err := builtinName(s.Combo)
	if err != nil {
		return Spec{}, err
	}
	return Spec{
		Combo:            combo,
		Scheme:           s.Scheme,
		Limit:            s.Limit,
		Priorities:       s.Priorities,
		AdversarialAccel: s.AdversarialAccel,
		Policy:           s.Policy,
	}, nil
}

// RunSpec resolves the wire spec back to an executable one.
func (s Spec) RunSpec() (experiment.RunSpec, error) {
	combo, err := experiment.ComboByName(s.Combo)
	if err != nil {
		return experiment.RunSpec{}, err
	}
	return experiment.RunSpec{
		Combo:            combo,
		Scheme:           s.Scheme,
		Limit:            s.Limit,
		Priorities:       s.Priorities,
		AdversarialAccel: s.AdversarialAccel,
		Policy:           s.Policy,
	}, nil
}

// ScalingCell is the wire form of one chiplet-count sweep cell
// (experiment.RunScalingCell's serializable inputs).
type ScalingCell struct {
	Combo          string     `json:"combo"`
	Network        noc.Config `json:"network"`
	Triples        int        `json:"triples"`
	PeriodNS       sim.Time   `json:"period_ns"`
	LimitW         float64    `json:"limit_w"`
	WindowNS       sim.Time   `json:"window_ns"`
	DurNS          sim.Time   `json:"dur_ns"`
	CentralFloorNS sim.Time   `json:"central_floor_ns"`
	LimitPerTriple float64    `json:"limit_per_triple"`
	Seed           int64      `json:"seed"`
}

// Item is one unit of batch work: exactly one of Spec or Scaling is
// set.
type Item struct {
	Spec    *Spec        `json:"spec,omitempty"`
	Scaling *ScalingCell `json:"scaling,omitempty"`
	// Trace is the coordinator-side attempt span this item executes
	// under; the worker derives its engine span's id from it, so the
	// span tree assembles across processes without reconciliation.
	// Deliberately excluded from the item's content-address (key):
	// tracing identity must never change what counts as the same work.
	Trace *tracing.SpanContext `json:"trace,omitempty"`
}

// ItemResult is one slot of a batch response: exactly one of Result or
// Scaling is set on success; Error carries a worker-side failure.
type ItemResult struct {
	Result  *Result            `json:"result,omitempty"`
	Scaling *ScalingCellResult `json:"scaling,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// Result is the wire form of experiment.RunResult minus the spec echo
// (the submitting side reattaches the spec it asked about, avoiding
// round-tripping benchmark builders).
type Result struct {
	MaxWindowPower float64             `json:"max_window_power"`
	MaxOverLimit   float64             `json:"max_over_limit"`
	Violated       bool                `json:"violated"`
	AvgPower       float64             `json:"avg_power"`
	PPE            float64             `json:"ppe"`
	Completion     map[string]sim.Time `json:"completion,omitempty"`
	Finished       map[string]bool     `json:"finished,omitempty"`
	Completed      bool                `json:"completed"`
	DurationNS     sim.Time            `json:"duration_ns"`
	ControlCycles  int64               `json:"control_cycles"`
	// Energy is the worker's attribution ledger summary. Workers always
	// track energy (the ledger is passive, so the metrics above are
	// unaffected), which keeps every fleet-cached result usable for
	// chargeback no matter which client asked first. The coordinator
	// returns it only to a RunRequest that sets Energy.
	Energy *energy.Summary `json:"energy,omitempty"`
}

// withoutEnergy returns ir with its result's energy summary dropped. It
// copies the Result rather than clearing the shared one, which the
// fleet cache and other batches' flights still hold.
func (ir ItemResult) withoutEnergy() ItemResult {
	if ir.Result != nil && ir.Result.Energy != nil {
		r := *ir.Result
		r.Energy = nil
		ir.Result = &r
	}
	return ir
}

// ResultOf projects a RunResult onto the wire.
func ResultOf(r experiment.RunResult) Result {
	return Result{
		MaxWindowPower: r.MaxWindowPower,
		MaxOverLimit:   r.MaxOverLimit,
		Violated:       r.Violated,
		AvgPower:       r.AvgPower,
		PPE:            r.PPE,
		Completion:     r.Completion,
		Finished:       r.Finished,
		Completed:      r.Completed,
		DurationNS:     r.Duration,
		ControlCycles:  r.ControlCycles,
		Energy:         r.Energy,
	}
}

// RunResult rebuilds a local-shaped RunResult around the given spec.
func (r Result) RunResult(spec experiment.RunSpec) experiment.RunResult {
	return experiment.RunResult{
		Spec:           spec,
		MaxWindowPower: r.MaxWindowPower,
		MaxOverLimit:   r.MaxOverLimit,
		Violated:       r.Violated,
		AvgPower:       r.AvgPower,
		PPE:            r.PPE,
		Completion:     r.Completion,
		Finished:       r.Finished,
		Completed:      r.Completed,
		Duration:       r.DurationNS,
		ControlCycles:  r.ControlCycles,
		Energy:         r.Energy,
	}
}

// ScalingCellResult is the two numbers a sweep cell reduces to.
type ScalingCellResult struct {
	MaxOverLimit float64 `json:"max_over_limit"`
	PPE          float64 `json:"ppe"`
}

// key content-addresses an item: the Evaluator cache key for specs (so
// the fleet cache and every local cache agree on identity), a canonical
// field dump for scaling cells. The sha256 makes the key a fixed-size
// handle, safe to log and index no matter how long priority maps get.
func (it Item) key(p Params) (string, error) {
	switch {
	case it.Spec != nil && it.Scaling == nil:
		rs, err := it.Spec.RunSpec()
		if err != nil {
			return "", err
		}
		return hashKey("spec|" + p.cacheKey(rs)), nil
	case it.Scaling != nil && it.Spec == nil:
		c := *it.Scaling
		return hashKey(fmt.Sprintf("scaling|combo=%s|net=%+v|n=%d|period=%d|limit=%g|win=%d|dur=%d|floor=%d|lpt=%g|seed=%d",
			c.Combo, c.Network, c.Triples, c.PeriodNS, c.LimitW, c.WindowNS, c.DurNS, c.CentralFloorNS, c.LimitPerTriple, c.Seed)), nil
	default:
		return "", fmt.Errorf("cluster: item must set exactly one of spec, scaling")
	}
}

func hashKey(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// RegisterRequest is the POST /v1/cluster/register body: a worker
// announcing itself. Addr is the base URL the coordinator dials back
// ("http://host:port"). Registration is idempotent — re-registering an
// id refreshes its record instead of duplicating it.
type RegisterRequest struct {
	ID      string `json:"id"`
	Addr    string `json:"addr"`
	Workers int    `json:"workers"`
}

// RegisterResponse tells the worker the heartbeat cadence the
// coordinator expects.
type RegisterResponse struct {
	HeartbeatEveryMS int64 `json:"heartbeat_every_ms"`
	ExpireAfterMS    int64 `json:"expire_after_ms"`
}

// HeartbeatRequest is the POST /v1/cluster/heartbeat body. An unknown
// id gets 404: the worker must re-register.
type HeartbeatRequest struct {
	ID string `json:"id"`
}

// RunRequest is the POST /v1/cluster/run body, and what Execute takes
// in process.
type RunRequest struct {
	// Tenant buckets the request for rate limiting; empty means "anon".
	Tenant string `json:"tenant,omitempty"`
	// Priority is "interactive" or "batch" (default).
	Priority string `json:"priority,omitempty"`
	Params   Params `json:"params"`
	Items    []Item `json:"items"`
	// Energy asks for each result's energy summary. It projects the
	// reply and is not part of any item's identity: workers always
	// compute the ledger and the fleet cache always keeps it, so a lean
	// request and an energy request for the same item share one entry.
	// A worker ignores it and always returns the ledger.
	Energy bool `json:"energy,omitempty"`
}

// RunResponse is the coordinator's (and worker's) batch reply; Results
// is index-aligned with the request's Items.
type RunResponse struct {
	Results []ItemResult `json:"results"`
	// CacheHits counts items served from the fleet cache (coordinator
	// responses only).
	CacheHits int `json:"cache_hits"`
	// Spans carries the worker's engine spans back to the coordinator
	// (worker responses only; already parented under the request's
	// per-item attempt contexts).
	Spans []tracing.Span `json:"spans,omitempty"`
}

// WorkerInfo is one row of GET /v1/cluster/workers.
type WorkerInfo struct {
	ID         string `json:"id"`
	Addr       string `json:"addr"`
	Workers    int    `json:"workers"`
	Live       bool   `json:"live"`
	LastSeenMS int64  `json:"last_seen_ms_ago"`
}
