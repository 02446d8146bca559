// Package hostprobe is the timing guards' yardstick: a fixed workload
// each guard times inside the same paired trials as the code it prices,
// so that a budget can be stated in probes rather than in nanoseconds
// and host speed cancels as it does in a time ratio.
//
// The probe is a frozen copy of the energy ledger's per-step work: read
// 8-, 15- and 1-unit meters through their unit pointers, then integrate
// true power and split the domain energy by activity share, over fixed
// synthetic samples. It is code of the same shape as the engine's step
// loops (loads and dependent float chains), so a host state that slows
// them slows the probe alike, and it never changes with the code under
// test. Changing it rescales every budget stated in probes.
package hostprobe

// Steps is how many ledger steps one Run replays.
const Steps = 1300

// Probe holds the synthetic meters and accumulators Run works over.
type Probe struct {
	slots []slot
	sink  float64
}

type unit struct{ act, watts float64 }

type slot struct {
	units             []*unit
	act, pwr, att, gt []float64
	domainJ, watts    float64
}

// New returns a probe over three domains of 8, 15 and 1 units.
func New() *Probe {
	p := &Probe{}
	for k, n := range []int{8, 15, 1} {
		st := slot{watts: 20 + float64(k)}
		for u := 0; u < n; u++ {
			st.units = append(st.units, &unit{act: 0.1 + 0.05*float64(u%7), watts: 0.5 + 0.1*float64(u%5)})
		}
		st.act, st.pwr = make([]float64, n), make([]float64, n)
		st.att, st.gt = make([]float64, n), make([]float64, n)
		p.slots = append(p.slots, st)
	}
	return p
}

// Run replays Steps ledger steps.
func (p *Probe) Run() {
	const sec = 1e-7
	for step := 0; step < Steps; step++ {
		for k := range p.slots {
			st := &p.slots[k]
			for u, un := range st.units {
				st.act[u] = un.act
				st.pwr[u] = un.watts
			}
		}
		for k := range p.slots {
			st := &p.slots[k]
			ej := st.watts * sec
			st.domainJ += ej
			actSum := 0.0
			for u := range st.act {
				actSum += st.act[u]
				st.gt[u] += st.pwr[u] * sec
			}
			last := len(st.act) - 1
			assigned := 0.0
			inv := ej / actSum
			for u := 0; u < last; u++ {
				e := st.act[u] * inv
				st.att[u] += e
				assigned += e
			}
			st.att[last] += ej - assigned
		}
	}
	p.sink += p.slots[1].att[0]
}
