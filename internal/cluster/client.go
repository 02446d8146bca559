package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/sim"
	"hcapp/internal/tracing"
)

// randomID returns a 12-hex-digit random id (worker identities).
func randomID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Client submits batches to a coordinator. It implements
// experiment.RemoteRunner, so pointing Evaluator.Remote at a Client
// routes every uncached simulation of a CLI suite through the fleet
// while local caching, single-flight, and rendering stay untouched.
//
// Transport failures are retried: dropped connections, 5xx responses,
// 429 throttles, and truncated or malformed bodies all back off with
// capped exponential delays plus full jitter (Backoff) until
// MaxAttempts runs out. Retrying a batch is always safe — every item is
// a pure function of its content-addressed key, and the coordinator's
// fleet cache dedups re-submitted work. A Retry-After header on a 429
// or 503 response floors the next delay, so server-directed pacing wins
// over the client's own schedule.
type Client struct {
	base string
	http *http.Client
	// Tenant buckets this client's requests for rate limiting.
	Tenant string
	// Priority is the client's class: PriorityBatch (default for CLI
	// suites) or PriorityInteractive.
	Priority string
	// MaxAttempts bounds transport-level attempts per call (default
	// 10). 1 means fail on the first error, restoring pre-retry
	// behavior.
	MaxAttempts int
	// Backoff paces the retries; the zero value uses the shared
	// defaults (100 ms base, 5 s cap, full jitter).
	Backoff Backoff
}

// NewClient builds a client for the coordinator at base
// ("http://host:port", trailing slash tolerated).
func NewClient(base string) (*Client, error) {
	base = strings.TrimRight(base, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return nil, fmt.Errorf("cluster: coordinator URL %q must start with http:// or https://", base)
	}
	return &Client{base: base, http: &http.Client{}, Priority: PriorityBatch}, nil
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 10
}

// Ping waits until the coordinator answers /readyz (workers registered,
// not draining), retrying connection failures and 503s with jittered
// backoff until the deadline. A Retry-After header on the 503 floors
// the next probe delay. It returns an error when the coordinator stays
// unreachable or unready — hcappsim exits 1 on that.
func (c *Client) Ping(ctx context.Context, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	var last error
	probe := &http.Client{Timeout: 2 * time.Second}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
		if err != nil {
			return err
		}
		var floor time.Duration
		resp, err := probe.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			floor = parseRetryAfter(resp.Header)
			last = fmt.Errorf("coordinator %s not ready: /readyz status %d", c.base, resp.StatusCode)
		} else {
			last = fmt.Errorf("coordinator %s unreachable: %w", c.base, err)
		}
		if time.Now().After(deadline) {
			return last
		}
		if err := c.Backoff.WaitAtLeast(ctx, attempt, floor); err != nil {
			return err
		}
	}
}

// Run submits one batch under the client's Tenant and Priority (they
// replace req's) and returns its index-aligned results, retrying
// transport-level failures per the client's backoff policy. A batch the
// coordinator refuses as larger than the tenant burst is resent in
// pieces of at most the burst, one after another, and their replies
// joined in order.
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	req.Tenant, req.Priority = c.Tenant, c.Priority
	resp, err := c.run(ctx, req)
	var ob *overBurstError
	if !errors.As(err, &ob) || ob.burst < 1 || ob.burst >= len(req.Items) {
		return resp, err
	}
	all := &RunResponse{Results: make([]ItemResult, 0, len(req.Items))}
	for lo := 0; lo < len(req.Items); lo += ob.burst {
		piece := req
		piece.Items = req.Items[lo:min(lo+ob.burst, len(req.Items))]
		resp, err := c.run(ctx, piece)
		if err != nil {
			return nil, err
		}
		all.Results = append(all.Results, resp.Results...)
		all.CacheHits += resp.CacheHits
		all.Spans = append(all.Spans, resp.Spans...)
	}
	return all, nil
}

// overBurstError is a 413 refusal and the tenant burst it names.
type overBurstError struct {
	burst int
	msg   string
}

func (e *overBurstError) Error() string { return "cluster: run: " + e.msg }
func (e *overBurstError) Unwrap() error { return ErrOverBurst }

// run submits req as one request, retrying as Run describes.
func (c *Client) run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	attempts := c.maxAttempts()
	var last error
	var floor time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.Backoff.WaitAtLeast(ctx, attempt-1, floor); err != nil {
				return nil, err
			}
		}
		resp, retryable, ra, err := c.runOnce(ctx, body, len(req.Items))
		if err == nil {
			return resp, nil
		}
		if !retryable || ctx.Err() != nil {
			return nil, err
		}
		last, floor = err, ra
	}
	return nil, last
}

// runOnce performs one wire attempt. retryable classifies the failure:
// transport errors, 5xx, 429, and truncated/short bodies are transient
// (the batch is idempotent); 4xx verdicts about the request itself are
// permanent.
func (c *Client) runOnce(ctx context.Context, body []byte, n int) (_ *RunResponse, retryable bool, retryAfter time.Duration, _ error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/cluster/run", bytes.NewReader(body))
	if err != nil {
		return nil, false, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	// A traced submitting context rides the wire, so the coordinator
	// parents its batch under the caller's span instead of opening a
	// fresh root.
	if _, sc, ok := tracing.FromContext(ctx); ok {
		tracing.Inject(req.Header, sc)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, true, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var ae apiError
		json.NewDecoder(resp.Body).Decode(&ae)
		if ae.Error == "" {
			ae.Error = fmt.Sprintf("status %d", resp.StatusCode)
		}
		ra := parseRetryAfter(resp.Header)
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			return nil, true, ra, fmt.Errorf("%w: %s", ErrThrottled, ae.Error)
		case resp.StatusCode == http.StatusRequestEntityTooLarge:
			return nil, false, 0, &overBurstError{burst: ae.Burst, msg: ae.Error}
		case resp.StatusCode >= 500:
			return nil, true, ra, fmt.Errorf("cluster: run: %s", ae.Error)
		default:
			return nil, false, 0, fmt.Errorf("cluster: run: %s", ae.Error)
		}
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		// A truncated or garbled body is a transport failure, not a
		// verdict: retry the whole batch rather than assembling a
		// partial response.
		return nil, true, 0, fmt.Errorf("cluster: run: reading response: %w", err)
	}
	if len(rr.Results) != n {
		return nil, true, 0, fmt.Errorf("cluster: run: %d results for %d items", len(rr.Results), n)
	}
	return &rr, false, 0, nil
}

// RunRemote implements experiment.RemoteRunner: the uncached specs of
// one evaluator batch become one fleet request (runSpecs).
func (c *Client) RunRemote(ctx context.Context, seed int64, targetDur sim.Time, maxDurFactor, fixedV float64, trackEnergy bool, specs []experiment.RunSpec) ([]experiment.RunResult, error) {
	return runSpecs(ctx, c.Run, Params{seed, targetDur, maxDurFactor, fixedV}, trackEnergy, specs)
}

// runSpecs is the fleet call of both RemoteRunners: it sends specs to
// exec (Client.Run, which sets its own priority, or
// Coordinator.Execute) as one interactive request, asking for the
// energy summary when energy is set, and decodes the index-aligned
// results. Of several failing items the lowest-index one is reported.
func runSpecs(ctx context.Context, exec func(context.Context, RunRequest) (*RunResponse, error), params Params, energy bool, specs []experiment.RunSpec) ([]experiment.RunResult, error) {
	items := make([]Item, len(specs))
	for i, spec := range specs {
		wire, err := SpecOf(spec)
		if err != nil {
			return nil, err
		}
		items[i] = Item{Spec: &wire}
	}
	resp, err := exec(ctx, RunRequest{Priority: PriorityInteractive, Params: params, Items: items, Energy: energy})
	if err != nil {
		return nil, err
	}
	out := make([]experiment.RunResult, len(specs))
	for i, ir := range resp.Results {
		if ir.Error != "" {
			return nil, fmt.Errorf("cluster: remote run: item %d: %s", i, ir.Error)
		}
		if ir.Result == nil {
			return nil, fmt.Errorf("cluster: remote run: item %d returned no result", i)
		}
		out[i] = ir.Result.RunResult(specs[i])
	}
	return out, nil
}

// ScalingCellFunc adapts the client to experiment.ScalingConfig.Cell so
// hcappsim's chiplet-count scaling sweep executes cell-by-cell on the
// fleet. Like SpecOf, it refuses a combo that is not a built-in.
func (c *Client) ScalingCellFunc() func(ctx context.Context, cfg config.SystemConfig, sc experiment.ScalingConfig, triples int, period sim.Time, limit float64) (float64, float64, error) {
	return func(ctx context.Context, cfg config.SystemConfig, sc experiment.ScalingConfig, triples int, period sim.Time, limit float64) (float64, float64, error) {
		combo, err := builtinName(sc.Combo)
		if err != nil {
			return 0, 0, err
		}
		cell := ScalingCell{
			Combo:          combo,
			Network:        sc.Network,
			Triples:        triples,
			PeriodNS:       period,
			LimitW:         limit,
			WindowNS:       sc.Window,
			DurNS:          sc.Dur,
			CentralFloorNS: sc.CentralFloor,
			LimitPerTriple: sc.LimitPerTriple,
			Seed:           cfg.Seed,
		}
		resp, err := c.Run(ctx, RunRequest{Params: Params{Seed: cfg.Seed}, Items: []Item{{Scaling: &cell}}})
		if err != nil {
			return 0, 0, err
		}
		ir := resp.Results[0]
		if ir.Error != "" {
			return 0, 0, fmt.Errorf("cluster: scaling cell: %s", ir.Error)
		}
		if ir.Scaling == nil {
			return 0, 0, fmt.Errorf("cluster: scaling cell returned no result")
		}
		return ir.Scaling.MaxOverLimit, ir.Scaling.PPE, nil
	}
}
