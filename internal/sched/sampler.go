package sched

import (
	"slices"

	"hcapp/internal/sim"
	"hcapp/internal/trace"
)

// Sampler is a StepObserver that averages every slot's power and domain
// voltage, and the rail voltage, over consecutive buckets of k steps —
// the per-component view `hcappsim trace -fig 3` draws. It keeps only
// the open bucket's sums and the closed buckets' means, so its memory
// grows with the number of buckets, not with the number of steps.
//
// Each bucket is a running sum of its k per-step values divided by k,
// and a stride's n steps are added one by one, so the means do not
// depend on how the run was strided. Buckets count from the first step
// observed; a trailing partial bucket is never emitted.
type Sampler struct {
	eng  *Engine
	k    int
	seen int // steps observed
	// sum and series share one layout: the rail first, then each slot's
	// power and domain voltage in slot order.
	sum    []float64
	series [][]trace.Point
}

// NewSampler returns a sampler for eng's slots with buckets of every
// (at least one step). Attach it with eng.SetObserver.
func NewSampler(eng *Engine, every sim.Time) *Sampler {
	k := max(int(every/eng.cfg.DT), 1)
	n := 1 + 2*len(eng.cfg.Slots)
	return &Sampler{eng: eng, k: k, sum: make([]float64, n), series: make([][]trace.Point, n)}
}

// Grow reserves room for n more buckets in every series, so a sized run
// closes buckets without allocating.
func (s *Sampler) Grow(n int) {
	for i := range s.series {
		s.series[i] = slices.Grow(s.series[i], n)
	}
}

// ObserveSteps implements StepObserver.
func (s *Sampler) ObserveSteps(now, dt sim.Time, n int64, _ float64, domains []DomainSample) {
	rail := s.eng.LastRail()
	for j := int64(0); j < n; j++ {
		s.sum[0] += rail
		for i, d := range domains {
			s.sum[1+2*i] += d.Power
			s.sum[2+2*i] += d.Voltage
		}
		if s.seen++; s.seen%s.k != 0 {
			continue
		}
		t := now + sim.Time(j)*dt
		for c, v := range s.sum {
			s.series[c] = append(s.series[c], trace.Point{T: t, P: v / float64(s.k)})
			s.sum[c] = 0
		}
	}
}

// Rail returns the rail-voltage bucket means.
func (s *Sampler) Rail() []trace.Point { return s.series[0] }

// Power returns the named component's power bucket means, or nil if no
// slot holds that component.
func (s *Sampler) Power(component string) []trace.Point {
	for i, sl := range s.eng.cfg.Slots {
		if sl.Comp.Name() == component {
			return s.series[1+2*i]
		}
	}
	return nil
}

// Voltage returns the named domain's output-voltage bucket means, or
// nil if no slot has that domain.
func (s *Sampler) Voltage(domain string) []trace.Point {
	for i, sl := range s.eng.cfg.Slots {
		if sl.Domain.Name() == domain {
			return s.series[2+2*i]
		}
	}
	return nil
}

// TotalSeries is a StepObserver that feeds the package total power of
// every step, a stride's steps one by one, into each of its series: the
// Fig. 1 and Fig. 2 traces, computed as the run goes.
type TotalSeries []*trace.Series

// ObserveSteps implements StepObserver.
func (ts TotalSeries) ObserveSteps(_, _ sim.Time, n int64, total float64, _ []DomainSample) {
	for _, s := range ts {
		s.RecordN(total, int(n))
	}
}
