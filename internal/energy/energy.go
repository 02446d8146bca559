// Package energy implements per-workload energy attribution for the
// simulated package: who consumed how many joules, on which chiplet,
// running which benchmark.
//
// The Ledger hangs off the sched.StepObserver hook and integrates each
// power domain's draw every step, strided steps included. Because
// unit-level power is usually not measurable on real silicon (only the
// domain rail is), the ledger splits each domain's energy across its
// execution units by activity share — the GPU-exporter estimator,
//
//	energy = power × interval × (util / Σ util)
//
// — while a parallel ground-truth accumulator integrates the true
// per-unit power the simulator knows, so the attribution error of the
// share-based estimate is measurable. The Collector (collector.go) rolls
// ledger summaries into bounded-cardinality Prometheus counters and
// per-tenant chargeback accounts for hcapp-serve.
package energy

import (
	"fmt"
	"math"

	"hcapp/internal/sched"
	"hcapp/internal/sim"
)

// UnitMeter is the read side of a multi-unit component's per-step
// sampling: one bulk read per domain per step, not a call per unit, so
// the observer path stays under the <5% overhead budget.
// chiplet.Chiplet (after EnableUnitMeter) and accelsim.Accel satisfy it.
type UnitMeter interface {
	Units() int
	// ReadUnitSamples copies each unit's most recent step activity and
	// power into act and watts (len >= Units()).
	ReadUnitSamples(act, watts []float64)
}

// SlotConfig binds one engine slot (in sched slot order) to its meter
// and labels. A nil Meter treats the domain as a single directly-metered
// unit (e.g. the constant memory domain): attribution is trivially exact.
type SlotConfig struct {
	// Domain is the power-domain name ("cpu", "gpu", "sha", "mem").
	Domain string
	// Benchmark labels the workload driving the domain (the Table 3
	// proxy name, "sha256", or "static").
	Benchmark string
	// UnitLabel names units "Domain/UnitLabel<i>" ("core" → "cpu/core0").
	// Empty labels a single-unit domain by its domain name alone.
	UnitLabel string
	Meter     UnitMeter
}

type slotState struct {
	cfg     SlotConfig
	names   []string  // per-unit component labels, fixed at construction
	att     []float64 // attributed joules (share-based split of domain energy)
	gt      []float64 // ground-truth joules (∫ true unit power)
	actBuf  []float64
	pwrBuf  []float64
	domainJ float64 // ∫ domain power — includes uncore the units can't see
}

// Ledger integrates attributed and ground-truth energy per unit. It
// implements sched.StepObserver, runs on the simulation goroutine, and
// is passive: it never touches simulation state, so attaching it cannot
// perturb the bit-exact simulation floats.
type Ledger struct {
	slots  []slotState
	totalJ float64
	steps  int64
}

// NewLedger builds a ledger for the given slots, which must mirror the
// engine's sched slot order (ObserveSteps samples are index-aligned).
func NewLedger(slots []SlotConfig) *Ledger {
	l := &Ledger{slots: make([]slotState, len(slots))}
	for i, sc := range slots {
		n := 1
		if sc.Meter != nil {
			n = sc.Meter.Units()
		}
		st := &l.slots[i]
		st.cfg = sc
		st.names = make([]string, n)
		for u := 0; u < n; u++ {
			if sc.UnitLabel == "" {
				st.names[u] = sc.Domain
				if n > 1 {
					st.names[u] = fmt.Sprintf("%s/%d", sc.Domain, u)
				}
			} else {
				st.names[u] = fmt.Sprintf("%s/%s%d", sc.Domain, sc.UnitLabel, u)
			}
		}
		st.att = make([]float64, n)
		st.gt = make([]float64, n)
		st.actBuf = make([]float64, n)
		st.pwrBuf = make([]float64, n)
	}
	return l
}

// ObserveSteps implements sched.StepObserver. The n steps are
// identical, so the unit meters are read once and the per-step
// integration is then replayed n times in order — never n·x in closed
// form, since floating-point addition is not associative — leaving the
// sums n single-step calls would, bit for bit.
func (l *Ledger) ObserveSteps(_, dt sim.Time, n int64, totalPower float64, domains []sched.DomainSample) {
	if len(domains) > len(l.slots) {
		domains = domains[:len(l.slots)]
	}
	for i := range domains {
		st := &l.slots[i]
		if st.cfg.Meter != nil {
			st.cfg.Meter.ReadUnitSamples(st.actBuf, st.pwrBuf)
		}
	}
	sec := sim.Seconds(dt)
	l.steps += n
	for ; n > 0; n-- {
		l.integrate(sec, totalPower, domains)
	}
}

// integrate folds one step of sec seconds into the accumulators, with
// unit samples already read into each slot's buffers.
func (l *Ledger) integrate(sec, totalPower float64, domains []sched.DomainSample) {
	l.totalJ += totalPower * sec
	for i := range domains {
		st := &l.slots[i]
		ej := domains[i].Power * sec
		st.domainJ += ej
		if st.cfg.Meter == nil {
			st.att[0] += ej
			st.gt[0] += ej
			continue
		}
		act, pwr := st.actBuf, st.pwrBuf
		actSum := 0.0
		for u := range act {
			actSum += act[u]
			st.gt[u] += pwr[u] * sec
		}
		// Split the step's domain energy by activity share (equal split
		// when everything is idle), assigning the remainder to the last
		// unit: each step's shares then sum to ej exactly, so the
		// accumulated per-domain mismatch (Σ attributed vs ∫ domain
		// power) stays at summation-rounding level instead of growing
		// with the share arithmetic.
		last := len(act) - 1
		assigned := 0.0
		if actSum > 0 {
			inv := ej / actSum
			for u := 0; u < last; u++ {
				e := act[u] * inv
				st.att[u] += e
				assigned += e
			}
		} else {
			eq := ej / float64(last+1)
			for u := 0; u < last; u++ {
				st.att[u] += eq
				assigned += eq
			}
		}
		st.att[last] += ej - assigned
	}
}

// ComponentEnergy is one unit's accumulated energy in a Summary.
type ComponentEnergy struct {
	Domain      string  `json:"domain"`
	Component   string  `json:"component"`
	Benchmark   string  `json:"benchmark"`
	AttributedJ float64 `json:"attributed_j"`
	TrueJ       float64 `json:"true_j"`
}

// DomainEnergy is one power domain's accumulated energy in a Summary.
// UncoreJ is the integrated domain energy no unit meter accounts for
// (shared uncore logic) — the irreducible ambiguity attribution faces.
type DomainEnergy struct {
	Domain  string  `json:"domain"`
	EnergyJ float64 `json:"energy_j"`
	UncoreJ float64 `json:"uncore_j"`
	Units   int     `json:"units"`
}

// Summary is a ledger snapshot: plain data with deterministic ordering
// (slot order, then unit index) that marshals to JSON for the cluster
// wire and the chargeback API.
type Summary struct {
	Components []ComponentEnergy `json:"components"`
	Domains    []DomainEnergy    `json:"domains"`
	TotalJ     float64           `json:"total_j"`
	Steps      int64             `json:"steps"`
}

// Summary snapshots the ledger. Call it after the run; it allocates.
func (l *Ledger) Summary() *Summary {
	s := &Summary{
		Components: make([]ComponentEnergy, 0, l.unitCount()),
		Domains:    make([]DomainEnergy, 0, len(l.slots)),
		TotalJ:     l.totalJ,
		Steps:      l.steps,
	}
	for i := range l.slots {
		st := &l.slots[i]
		gtSum := 0.0
		for u := range st.names {
			s.Components = append(s.Components, ComponentEnergy{
				Domain:      st.cfg.Domain,
				Component:   st.names[u],
				Benchmark:   st.cfg.Benchmark,
				AttributedJ: st.att[u],
				TrueJ:       st.gt[u],
			})
			gtSum += st.gt[u]
		}
		s.Domains = append(s.Domains, DomainEnergy{
			Domain:  st.cfg.Domain,
			EnergyJ: st.domainJ,
			UncoreJ: st.domainJ - gtSum,
			Units:   len(st.names),
		})
	}
	return s
}

func (l *Ledger) unitCount() int {
	n := 0
	for i := range l.slots {
		n += len(l.slots[i].names)
	}
	return n
}

// Reset clears the ledger for a fresh run.
func (l *Ledger) Reset() {
	l.totalJ = 0
	l.steps = 0
	for i := range l.slots {
		st := &l.slots[i]
		st.domainJ = 0
		for u := range st.att {
			st.att[u] = 0
			st.gt[u] = 0
		}
	}
}

// ConservationError returns the worst per-domain relative mismatch
// between summed attributed joules and the integrated domain energy.
// The ledger assigns per-step remainders explicitly, so this should sit
// at rounding level (well under 1e-9, test-enforced) — anything larger
// means the accounting leaks energy.
func (s *Summary) ConservationError() float64 {
	worst := 0.0
	for _, d := range s.Domains {
		attSum := 0.0
		for _, c := range s.Components {
			if c.Domain == d.Domain {
				attSum += c.AttributedJ
			}
		}
		if d.EnergyJ == 0 {
			if attSum != 0 {
				return math.Inf(1)
			}
			continue
		}
		if e := math.Abs(attSum-d.EnergyJ) / math.Abs(d.EnergyJ); e > worst {
			worst = e
		}
	}
	return worst
}

// DomainAccuracy grades share-based attribution against the chargeback
// ideal for one domain. The ideal charges each unit its true integrated
// energy plus a pro-rata (by true energy) share of the domain's uncore.
type DomainAccuracy struct {
	Domain  string  `json:"domain"`
	EnergyJ float64 `json:"energy_j"`
	// UncoreFrac is the fraction of domain energy no unit meter covers.
	UncoreFrac float64 `json:"uncore_frac"`
	// MisattrFrac is the fraction of domain energy charged to the wrong
	// unit: Σ|attributed − ideal| / (2 × domain energy). Zero is perfect;
	// the halving counts each misplaced joule once, not at both ends.
	MisattrFrac float64 `json:"misattr_frac"`
	// MaxUnitErr is the worst per-unit relative error vs the ideal.
	MaxUnitErr float64 `json:"max_unit_err"`
}

// Accuracy computes per-domain attribution accuracy, in domain order.
func (s *Summary) Accuracy() []DomainAccuracy {
	out := make([]DomainAccuracy, 0, len(s.Domains))
	for _, d := range s.Domains {
		acc := DomainAccuracy{Domain: d.Domain, EnergyJ: d.EnergyJ}
		if d.EnergyJ <= 0 {
			out = append(out, acc)
			continue
		}
		acc.UncoreFrac = d.UncoreJ / d.EnergyJ
		gtSum := 0.0
		units := 0
		for _, c := range s.Components {
			if c.Domain == d.Domain {
				gtSum += c.TrueJ
				units++
			}
		}
		misattr := 0.0
		for _, c := range s.Components {
			if c.Domain != d.Domain {
				continue
			}
			ideal := c.TrueJ
			if gtSum > 0 {
				ideal += d.UncoreJ * (c.TrueJ / gtSum)
			} else {
				ideal += d.UncoreJ / float64(units)
			}
			diff := math.Abs(c.AttributedJ - ideal)
			misattr += diff
			if ideal > 0 {
				if e := diff / ideal; e > acc.MaxUnitErr {
					acc.MaxUnitErr = e
				}
			}
		}
		acc.MisattrFrac = misattr / (2 * d.EnergyJ)
		out = append(out, acc)
	}
	return out
}
