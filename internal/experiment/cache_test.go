package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// cacheOutcome is what one Resolve call returned, plus the keys each of
// its lead calls was given.
type cacheOutcome struct {
	vals   []string
	failed int
	err    error
	led    [][]string
}

// resolveWith runs one Resolve over c whose lead records the keys it is
// given and hands them to settle: the default settles each key with
// "v:"+key.
func resolveWith(ctx context.Context, c *ResultCache[string], keys []string, note func(int, CacheEvent, error), settle func(ctx context.Context, idx []int, s Settle[string]) error) cacheOutcome {
	var out cacheOutcome
	if settle == nil {
		settle = func(_ context.Context, idx []int, s Settle[string]) error {
			for _, i := range idx {
				s(i, "v:"+keys[i], nil, false)
			}
			return nil
		}
	}
	out.vals, out.failed, out.err = c.Resolve(ctx, keys, note, func(idx []int, s Settle[string]) error {
		led := make([]string, len(idx))
		for k, i := range idx {
			led[k] = keys[i]
		}
		out.led = append(out.led, led)
		return settle(ctx, idx, s)
	})
	return out
}

// holdFlights starts a caller that leads keys and holds its flights
// until release is closed or ctx ends, then settles them through finish
// (which sees ctx.Err() as held). It returns once the flights are
// claimed; the caller's outcome arrives on done.
func holdFlights(ctx context.Context, c *ResultCache[string], keys []string, finish func(held error, idx []int, s Settle[string]) error) (release chan struct{}, done chan cacheOutcome) {
	claimed := make(chan struct{})
	release = make(chan struct{})
	done = make(chan cacheOutcome, 1)
	go func() {
		done <- resolveWith(ctx, c, keys, nil, func(ctx context.Context, idx []int, s Settle[string]) error {
			close(claimed)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return finish(ctx.Err(), idx, s)
		})
	}()
	<-claimed
	return release, done
}

// joinFlight starts a caller resolving keys and returns once it has
// joined a flight another caller leads. note, when non-nil, also hears
// the caller's events.
func joinFlight(c *ResultCache[string], keys []string, note func(int, CacheEvent, error)) chan cacheOutcome {
	joined := make(chan struct{})
	var once sync.Once
	done := make(chan cacheOutcome, 1)
	go func() {
		done <- resolveWith(context.Background(), c, keys, func(i int, ev CacheEvent, err error) {
			if note != nil {
				note(i, ev, err)
			}
			if ev == CacheCoalesced {
				once.Do(func() { close(joined) })
			}
		}, nil)
	}()
	<-joined
	return done
}

// settleAll settles every index with err, marked retry as given.
func settleAll(err error, retry bool) func(error, []int, Settle[string]) error {
	return func(_ error, idx []int, s Settle[string]) error {
		for _, i := range idx {
			s(i, "", err, retry)
		}
		return err
	}
}

// assertCache checks what c holds once every caller has returned: the
// cached keys in FIFO order, and no flight left behind.
func assertCache(t *testing.T, c *ResultCache[string], want ...string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.inflight) != 0 {
		t.Fatalf("%d flights left behind", len(c.inflight))
	}
	if len(c.vals) != len(want) || (len(want) > 0 && !reflect.DeepEqual(c.order, want)) {
		t.Fatalf("cache holds %v (%d values), want %v", c.order, len(c.vals), want)
	}
}

// TestResultCache is the single-flight contract the Evaluator and the
// fleet coordinator share.
func TestResultCache(t *testing.T) {
	errBoom := errors.New("boom")
	cases := []struct {
		name string
		run  func(t *testing.T, c *ResultCache[string])
	}{{
		// A batch leads every key neither cached nor in flight in one
		// call, a duplicate joins its first occurrence, results enter the
		// cache in index order before waiters wake, a later batch hits,
		// and a concurrent caller coalesces onto a flight it did not
		// lead.
		name: "hit-coalesce-lead",
		run: func(t *testing.T, c *ResultCache[string]) {
			var events []string
			note := func(i int, ev CacheEvent, err error) {
				events = append(events, fmt.Sprintf("%d:%d", i, ev))
			}
			got := resolveWith(context.Background(), c, []string{"a", "b", "a"}, note, nil)
			if got.err != nil || !reflect.DeepEqual(got.vals, []string{"v:a", "v:b", "v:a"}) {
				t.Fatalf("first batch: %v, %v", got.vals, got.err)
			}
			if !reflect.DeepEqual(got.led, [][]string{{"a", "b"}}) {
				t.Fatalf("first batch led %v, want one call for a and b", got.led)
			}
			want := []string{
				fmt.Sprintf("2:%d", CacheCoalesced),
				fmt.Sprintf("0:%d", CacheSettled), fmt.Sprintf("1:%d", CacheSettled), fmt.Sprintf("2:%d", CacheSettled),
			}
			if !reflect.DeepEqual(events, want) {
				t.Fatalf("events %v, want %v", events, want)
			}

			events = nil
			got = resolveWith(context.Background(), c, []string{"a", "c"}, note, nil)
			if got.err != nil || !reflect.DeepEqual(got.led, [][]string{{"c"}}) || got.vals[0] != "v:a" {
				t.Fatalf("second batch: %v led %v, %v; want a hit and c led", got.vals, got.led, got.err)
			}
			if events[0] != fmt.Sprintf("0:%d", CacheHit) {
				t.Fatalf("second batch events %v, want a hit first", events)
			}

			release, leader := holdFlights(context.Background(), c, []string{"d", "e"}, func(_ error, idx []int, s Settle[string]) error {
				for _, i := range idx {
					s(i, fmt.Sprintf("v:%d", i), nil, false)
				}
				return nil
			})
			joiner := joinFlight(c, []string{"e"}, func(i int, ev CacheEvent, err error) {
				if ev != CacheSettled {
					return
				}
				c.mu.Lock()
				_, cached := c.vals["e"]
				c.mu.Unlock()
				if !cached {
					t.Errorf("waiter woke before its result was cached")
				}
			})
			close(release)
			if l := <-leader; l.err != nil {
				t.Fatal(l.err)
			}
			j := <-joiner
			if j.err != nil || len(j.led) != 0 || j.vals[0] != "v:1" {
				t.Fatalf("joiner: %v led %v, %v; want the leader's result", j.vals, j.led, j.err)
			}
			assertCache(t, c, "a", "b", "c", "d", "e")
		},
	}, {
		// A leader cancelled mid-flight returns its cancellation; a
		// waiter with a live context re-claims the key and leads it.
		name: "retry-after-cancelled-leader",
		run: func(t *testing.T, c *ResultCache[string]) {
			ctx, cancel := context.WithCancel(context.Background())
			_, leader := holdFlights(ctx, c, []string{"a", "b"}, func(held error, idx []int, s Settle[string]) error {
				return settleAll(held, false)(held, idx, s)
			})
			joiner := joinFlight(c, []string{"b"}, nil)
			cancel()
			if l := <-leader; !errors.Is(l.err, context.Canceled) || l.failed != -1 {
				t.Fatalf("cancelled leader: failed %d, %v; want -1, context.Canceled", l.failed, l.err)
			}
			j := <-joiner
			if j.err != nil || !reflect.DeepEqual(j.led, [][]string{{"b"}}) || j.vals[0] != "v:b" {
				t.Fatalf("waiter: %v led %v, %v; want it to lead b itself", j.vals, j.led, j.err)
			}
			assertCache(t, c, "b")

			// A caller whose context is already dead leads nothing.
			got := resolveWith(ctx, c, []string{"b", "z"}, nil, nil)
			if !errors.Is(got.err, context.Canceled) || len(got.led) != 0 {
				t.Fatalf("pre-cancelled caller: led %v, %v", got.led, got.err)
			}
			assertCache(t, c, "b")
		},
	}, {
		// A failed batch of several specs marks its flights for retry:
		// the error may be about another spec. The leader reports its
		// own error; a waiter on a good spec leads it again.
		name: "retry-after-failed-batch-of-several",
		run: func(t *testing.T, c *ResultCache[string]) {
			release, leader := holdFlights(context.Background(), c, []string{"a", "b"}, func(_ error, idx []int, s Settle[string]) error {
				return settleAll(errBoom, len(idx) > 1)(nil, idx, s)
			})
			joiner := joinFlight(c, []string{"a"}, nil)
			close(release)
			if l := <-leader; !errors.Is(l.err, errBoom) || l.failed != -1 {
				t.Fatalf("leader: failed %d, %v; want -1, boom", l.failed, l.err)
			}
			j := <-joiner
			if j.err != nil || !reflect.DeepEqual(j.led, [][]string{{"a"}}) {
				t.Fatalf("waiter: led %v, %v; want it to lead a itself", j.led, j.err)
			}
			assertCache(t, c, "a")
		},
	}, {
		// A failed batch of one is a verdict on its key: a waiter shares
		// the error and leads nothing.
		name: "no-retry-after-failed-batch-of-one",
		run: func(t *testing.T, c *ResultCache[string]) {
			release, leader := holdFlights(context.Background(), c, []string{"a"}, func(_ error, idx []int, s Settle[string]) error {
				return settleAll(errBoom, len(idx) > 1)(nil, idx, s)
			})
			joiner := joinFlight(c, []string{"a"}, nil)
			close(release)
			if l := <-leader; !errors.Is(l.err, errBoom) {
				t.Fatalf("leader: %v, want boom", l.err)
			}
			if j := <-joiner; !errors.Is(j.err, errBoom) || j.failed != 0 || len(j.led) != 0 {
				t.Fatalf("waiter: failed %d, led %v, %v; want the shared error at 0", j.failed, j.led, j.err)
			}
			assertCache(t, c)
		},
	}, {
		// Settled failures, led or joined and in any settle order,
		// report the lowest index; every other settled result is kept.
		name: "lowest-index-error",
		run: func(t *testing.T, c *ResultCache[string]) {
			keys := []string{"a", "b", "c", "d"}
			got := resolveWith(context.Background(), c, keys, nil, func(_ context.Context, idx []int, s Settle[string]) error {
				for k := len(idx) - 1; k >= 0; k-- {
					switch i := idx[k]; i {
					case 1, 3:
						s(i, "", fmt.Errorf("item %d failed", i), false)
					default:
						s(i, "v:"+keys[i], nil, false)
					}
				}
				return nil
			})
			if got.failed != 1 || got.err == nil || got.err.Error() != "item 1 failed" {
				t.Fatalf("failed %d, %v; want the lowest-index failure, item 1", got.failed, got.err)
			}
			assertCache(t, c, "c", "a")

			// A joined failure below a led one wins too.
			release, leader := holdFlights(context.Background(), c, []string{"x"}, settleAll(errBoom, false))
			joiner := make(chan cacheOutcome, 1)
			joined := make(chan struct{})
			go func() {
				joiner <- resolveWith(context.Background(), c, []string{"x", "y"}, func(i int, ev CacheEvent, _ error) {
					if ev == CacheCoalesced {
						close(joined)
					}
				}, func(_ context.Context, idx []int, s Settle[string]) error {
					<-joined
					close(release)
					s(idx[0], "", errors.New("y failed"), false)
					return nil
				})
			}()
			<-leader
			if j := <-joiner; j.failed != 0 || !errors.Is(j.err, errBoom) {
				t.Fatalf("failed %d, %v; want the joined failure at 0", j.failed, j.err)
			}
			assertCache(t, c, "c", "a")
		},
	}, {
		// The cache keeps the maxCacheEntries oldest-first survivors:
		// one more result evicts the oldest, and neither a hit nor a
		// second store of a cached key moves it.
		name: "fifo-eviction-without-refresh",
		run: func(t *testing.T, c *ResultCache[string]) {
			keys := make([]string, maxCacheEntries)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
			}
			if got := resolveWith(context.Background(), c, keys, nil, nil); got.err != nil {
				t.Fatal(got.err)
			}
			if got := resolveWith(context.Background(), c, keys[:1], nil, nil); len(got.led) != 0 {
				t.Fatalf("k0 led %v, want a hit", got.led)
			}
			c.mu.Lock()
			c.storeLocked("k0", "again")
			c.mu.Unlock()
			if got := resolveWith(context.Background(), c, []string{"new"}, nil, nil); got.err != nil {
				t.Fatal(got.err)
			}
			if n := c.Len(); n != maxCacheEntries {
				t.Fatalf("cache holds %d entries, want %d", n, maxCacheEntries)
			}
			assertCache(t, c, append(keys[1:], "new")...)
			if v := c.vals["k1"]; v != "v:k1" {
				t.Fatalf("k1 = %q, want its first result", v)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c ResultCache[string] // the zero value is ready to use
			tc.run(t, &c)
		})
	}
}
