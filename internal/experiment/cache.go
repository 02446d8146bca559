package experiment

import (
	"context"
	"errors"
	"sync"
)

// maxCacheEntries bounds every ResultCache, oldest result out first.
const maxCacheEntries = 4096

// ResultCache is the content-addressed single-flight run-result cache:
// the Evaluator keeps its RunResults in one (keyed by CacheKey) and the
// fleet coordinator its wire results (by the same key's hash). Results
// enter a FIFO of maxCacheEntries; neither a hit nor a second
// resolution moves an entry. The zero value is ready to use, and a
// ResultCache is safe for concurrent use.
type ResultCache[V any] struct {
	mu       sync.Mutex
	vals     map[string]V
	order    []string
	inflight map[string]*flight[V]
}

// flight is one result in progress; its waiters block on done. retry
// marks err as no verdict on the key, so waiters claim it again.
type flight[V any] struct {
	done  chan struct{}
	val   V
	err   error
	retry bool
}

// Settle resolves the flight of batch index i with v, or with err. A
// successful result enters the cache before the flight's waiters wake.
// retry marks err as no verdict on the key (a cancellation always is).
type Settle[V any] func(i int, v V, err error, retry bool)

// CacheEvent is what Resolve reports about one batch index: a hit, a
// join of another caller's flight, or the verdict (err) of the flight it
// led or joined. A flight marked for retry is no verdict.
type CacheEvent int

const (
	CacheHit CacheEvent = iota
	CacheCoalesced
	CacheSettled
)

// Resolve returns the values of keys, index-aligned, in rounds. A round
// claims every pending key: a hit is filled in, a key in flight is
// joined, and the rest become flights this caller leads. lead receives
// those indices and must settle each exactly once, from any goroutine,
// before it returns; its error is returned at once. The caller then
// waits on the round's flights. A flight marked for retry sends its key
// to the next round unless ctx is done; any other failure is final, and
// the lowest-index one is returned with its index. failed is -1 when err
// is ctx's or lead's. note, when non-nil, hears every CacheEvent.
func (c *ResultCache[V]) Resolve(ctx context.Context, keys []string, note func(i int, ev CacheEvent, err error), lead func(idx []int, settle Settle[V]) error) (vals []V, failed int, err error) {
	if note == nil {
		note = func(int, CacheEvent, error) {}
	}
	vals = make([]V, len(keys))
	flights := make([]*flight[V], len(keys))
	settle := func(i int, v V, err error, retry bool) {
		f := flights[i]
		c.mu.Lock()
		delete(c.inflight, keys[i])
		if err == nil {
			c.storeLocked(keys[i], v)
		}
		f.val, f.err = v, err
		f.retry = retry || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		c.mu.Unlock()
		close(f.done)
	}
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		var hits, leads, waits []int
		c.mu.Lock()
		for _, i := range pending {
			if v, ok := c.vals[keys[i]]; ok {
				vals[i] = v
				hits = append(hits, i)
			} else if flights[i], ok = c.inflight[keys[i]]; ok {
				waits = append(waits, i)
			} else {
				if c.inflight == nil {
					c.inflight = make(map[string]*flight[V])
				}
				flights[i] = &flight[V]{done: make(chan struct{})}
				c.inflight[keys[i]] = flights[i]
				leads = append(leads, i)
			}
		}
		c.mu.Unlock()
		for _, i := range hits {
			note(i, CacheHit, nil)
		}
		for _, i := range waits {
			note(i, CacheCoalesced, nil)
		}

		if len(leads) > 0 {
			if err := ctx.Err(); err != nil {
				var zero V
				for _, i := range leads {
					settle(i, zero, err, true)
				}
				return nil, -1, err
			}
			if err := lead(leads, settle); err != nil {
				return nil, -1, err
			}
		}

		pending, failed = pending[:0], -1
		for _, i := range append(leads, waits...) {
			f := flights[i]
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, -1, ctx.Err()
			}
			switch {
			case f.err == nil:
				vals[i] = f.val
				note(i, CacheSettled, nil)
			case f.retry:
				if err := ctx.Err(); err != nil {
					return nil, -1, err
				}
				pending = append(pending, i)
			default:
				note(i, CacheSettled, f.err)
				if failed < 0 || i < failed {
					failed, err = i, f.err
				}
			}
		}
		if err != nil {
			return nil, failed, err
		}
	}
	return vals, -1, nil
}

// storeLocked caches v under key unless key is already cached, evicting
// the oldest entry past maxCacheEntries. Callers hold c.mu.
func (c *ResultCache[V]) storeLocked(key string, v V) {
	if _, ok := c.vals[key]; ok {
		return
	}
	if c.vals == nil {
		c.vals = make(map[string]V)
	}
	c.vals[key] = v
	c.order = append(c.order, key)
	if len(c.order) > maxCacheEntries {
		delete(c.vals, c.order[0])
		c.order = c.order[1:]
	}
}

// Len reports how many results the cache holds.
func (c *ResultCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vals)
}
