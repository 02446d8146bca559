package server

import (
	"sync"
	"sync/atomic"

	"hcapp/internal/sim"
)

// TraceSample is one down-sampled point of a job's live power trace.
type TraceSample struct {
	// TNS is simulated time, nanoseconds.
	TNS sim.Time `json:"t_ns"`
	// Power is the package power averaged over the sample bucket, watts.
	Power float64 `json:"power_watts"`
}

// traceBuffer accumulates a bounded, down-sampled power trace while a
// job runs. The per-step path is lock-free: bucket accumulation state
// is owned by the single simulation goroutine, progress counters are
// atomics, and the mutex is taken only once per completed bucket.
// HTTP readers page through with an offset cursor, so a client can
// follow a running job to completion.
type traceBuffer struct {
	every int // engine steps per sample bucket
	max   int

	// sum/n are bucket accumulation state, touched only by the
	// simulation goroutine inside observe.
	sum float64
	n   int

	steps atomic.Int64
	now   atomic.Int64 // sim.Time

	mu      sync.Mutex
	samples []TraceSample
	dropped int64
}

func newTraceBuffer(every, maxSamples int) *traceBuffer {
	if every < 1 {
		every = 1
	}
	if maxSamples < 1 {
		maxSamples = 1
	}
	return &traceBuffer{every: every, max: maxSamples}
}

// observe folds n identical engine steps, at now, now+dt, …, into the
// buffer one step at a time, so buckets close at the same steps with
// the same sums as n single-step calls. Called from the simulation
// goroutine only.
func (b *traceBuffer) observe(now, dt sim.Time, n int64, total float64) {
	b.steps.Add(n)
	b.now.Store(now + sim.Time(n-1)*dt)
	for ; n > 0; n, now = n-1, now+dt {
		b.sum += total
		if b.n++; b.n < b.every {
			continue
		}
		s := TraceSample{TNS: now, Power: b.sum / float64(b.n)}
		b.sum, b.n = 0, 0
		b.mu.Lock()
		if len(b.samples) < b.max {
			b.samples = append(b.samples, s)
		} else {
			b.dropped++
		}
		b.mu.Unlock()
	}
}

// Page returns samples[offset:offset+limit], the next offset, and the
// count of samples dropped after the buffer filled.
func (b *traceBuffer) Page(offset, limit int) (out []TraceSample, next int, dropped int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if offset < 0 {
		offset = 0
	}
	if offset > len(b.samples) {
		offset = len(b.samples)
	}
	end := len(b.samples)
	if limit > 0 && offset+limit < end {
		end = offset + limit
	}
	out = append(out, b.samples[offset:end]...)
	return out, end, b.dropped
}

// Progress reports the live simulated time and step count.
func (b *traceBuffer) Progress() (sim.Time, int64) {
	return b.now.Load(), b.steps.Load()
}

// setProgress backfills the progress counters for a job whose
// simulation ran elsewhere (fleet delegation): no per-step stream ever
// reached this buffer, but the finished record should still report how
// far the simulation got.
func (b *traceBuffer) setProgress(now sim.Time, steps int64) {
	b.now.Store(now)
	b.steps.Store(steps)
}
