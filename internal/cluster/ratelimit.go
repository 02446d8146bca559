package cluster

import (
	"sync"
	"time"
)

// Limiter is a per-tenant token bucket: each tenant owns Burst tokens
// refilled at Rate tokens/second, and every batch item costs one token.
// A request that cannot be paid for in full is rejected whole — partial
// admission would split a deterministic batch — and surfaces as HTTP 429
// backpressure.
type Limiter struct {
	rate  float64 // tokens per second; <= 0 means unlimited
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter builds a limiter; rate <= 0 disables limiting entirely.
func NewLimiter(rate float64, burst int, now func() time.Time) *Limiter {
	if burst < 1 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Limiter{
		rate:    rate,
		burst:   float64(burst),
		now:     now,
		buckets: make(map[string]*bucket),
	}
}

// Allow debits n tokens from the tenant's bucket, reporting whether the
// request is admitted. A burst-sized request against a full bucket is
// admitted exactly (the boundary is inclusive); one more item is not.
func (l *Limiter) Allow(tenant string, n int) bool {
	if l == nil || l.rate <= 0 {
		return true
	}
	if tenant == "" {
		tenant = "anon"
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[tenant]
	if !ok {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	if float64(n) > b.tokens {
		return false
	}
	b.tokens -= float64(n)
	return true
}

// Fits reports whether a request of n items can ever be admitted: with
// limiting on, no refill lifts a bucket above its burst.
func (l *Limiter) Fits(n int) bool {
	return l == nil || l.rate <= 0 || float64(n) <= l.burst
}

// Tenants reports how many tenant buckets exist (tests, introspection).
func (l *Limiter) Tenants() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}
