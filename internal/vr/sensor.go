package vr

import (
	"fmt"
	"math"

	"hcapp/internal/sim"
)

// SensorConfig describes the power sensing circuitry built into the global
// voltage regulator ("sensing circuitry built into the voltage regulator
// to measure the current and voltage, as seen in commercially available
// VRs", paper §3.1).
type SensorConfig struct {
	// Delay is the sensing circuitry latency (Table 1: 50–60 ns).
	Delay sim.Time
	// FilterTau is the time constant of the first-order measurement
	// filter, in simulated time; 0 disables filtering. Real current-sense
	// amplifiers low-pass their output; the filter also models the
	// averaging inherent in sense-resistor ADC sampling.
	FilterTau sim.Time
}

// Validate reports whether the configuration is usable.
func (c SensorConfig) Validate() error {
	if c.Delay < 0 {
		return fmt.Errorf("vr: negative sensor delay %d", c.Delay)
	}
	if c.FilterTau < 0 {
		return fmt.Errorf("vr: negative filter tau %d", c.FilterTau)
	}
	return nil
}

// Fault injects a measurement defect into a sensor — the robustness
// scenarios a power-capping controller must tolerate gracefully, since
// an optimistic sensor turns the limit into a dead letter.
type Fault struct {
	// Gain scales every reading (1 = none). A gain below 1 is an
	// optimistic sensor (under-reports power).
	Gain float64
	// OffsetW adds a constant bias in watts.
	OffsetW float64
	// StuckAt, when StuckEnabled, freezes the reading at a value.
	StuckAt      float64
	StuckEnabled bool
}

// apply transforms a true reading into the faulty one.
func (f Fault) apply(p float64) float64 {
	if f.StuckEnabled {
		return f.StuckAt
	}
	g := f.Gain
	if g == 0 {
		g = 1
	}
	return p*g + f.OffsetW
}

// Sensor measures total package power with a fixed pipeline delay and an
// optional first-order filter. Samples are pushed every engine step; the
// controller reads the delayed, filtered value.
type Sensor struct {
	cfg    SensorConfig
	dt     sim.Time
	ring   []float64
	head   int
	filt   float64
	primed bool
	fault  Fault
}

// NewSensor returns a sensor sampling at engine timestep dt.
func NewSensor(cfg SensorConfig, dt sim.Time) (*Sensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dt <= 0 {
		return nil, fmt.Errorf("vr: non-positive sensor timestep %d", dt)
	}
	// Depth in steps; delay shorter than one step rounds to zero
	// (the value is visible on the next step regardless, because the
	// engine pushes before the controller reads).
	depth := int(cfg.Delay / dt)
	return &Sensor{cfg: cfg, dt: dt, ring: make([]float64, depth+1)}, nil
}

// MustSensor is NewSensor that panics on invalid configuration.
func MustSensor(cfg SensorConfig, dt sim.Time) *Sensor {
	s, err := NewSensor(cfg, dt)
	if err != nil {
		panic(err)
	}
	return s
}

// Push records an instantaneous power sample (one per engine step).
func (s *Sensor) Push(p float64) {
	s.ring[s.head] = p
	s.head = (s.head + 1) % len(s.ring)
	// The oldest sample (now at head) is what emerges from the delay.
	delayed := s.ring[s.head]
	if !s.primed {
		s.filt = delayed
		s.primed = true
		return
	}
	if s.cfg.FilterTau <= 0 {
		s.filt = delayed
		return
	}
	alpha := float64(s.dt) / float64(s.cfg.FilterTau+s.dt)
	s.filt += alpha * (delayed - s.filt)
}

// SteadyAt reports whether pushing the sample p would leave the sensor
// bitwise unchanged: the delay ring is already flat at p and the filter
// state is at its exact floating-point fixed point for input p. While
// this holds, Push(p) is a pure rotation and Read() is constant — the
// condition the striding engine needs when a controller reads the
// sensor during a stride.
func (s *Sensor) SteadyAt(p float64) bool {
	if !s.DelaySteadyAt(p) {
		return false
	}
	if s.cfg.FilterTau <= 0 {
		return s.filt == p
	}
	// The EWMA must have converged bitwise: one more update, computed
	// exactly as Push computes it, rounds back to the same float.
	alpha := float64(s.dt) / float64(s.cfg.FilterTau+s.dt)
	return s.filt+alpha*(p-s.filt) == s.filt
}

// DelaySteadyAt reports whether the delay ring is already flat at p (and
// the pipeline primed), so n pushes of p are exactly reproduced by
// AdvanceN(p, n) — the filter may still be converging. Sufficient for
// striding when nothing reads the sensor mid-stride (no global
// controller); SteadyAt is the stronger condition for when Read() must
// stay constant.
func (s *Sensor) DelaySteadyAt(p float64) bool {
	if !s.primed {
		return false
	}
	for _, v := range s.ring {
		if v != p {
			return false
		}
	}
	return true
}

// AdvanceN replays n pushes of the steady sample p established by a
// true DelaySteadyAt: each push stores the value already present,
// rotates the head, and applies the filter update with the identical
// operations Push performs, so sensor state is bitwise what n real
// pushes would have produced. Once the filter has converged the updates
// round back to the same float and the replay degenerates to a pure
// rotation.
func (s *Sensor) AdvanceN(p float64, n int64) {
	s.head = int((int64(s.head) + n) % int64(len(s.ring)))
	if s.cfg.FilterTau <= 0 {
		s.filt = p
		return
	}
	alpha := float64(s.dt) / float64(s.cfg.FilterTau+s.dt)
	for i := int64(0); i < n; i++ {
		s.filt += alpha * (p - s.filt)
	}
}

// Read returns the current delayed, filtered power measurement, with
// any injected fault applied.
func (s *Sensor) Read() float64 {
	if math.IsNaN(s.filt) {
		return 0
	}
	return s.fault.apply(s.filt)
}

// InjectFault installs a measurement defect (see Fault). A zero Fault
// restores healthy behaviour.
func (s *Sensor) InjectFault(f Fault) { s.fault = f }

// Fault returns the currently injected fault.
func (s *Sensor) Fault() Fault { return s.fault }

// Reset clears the sensor pipeline.
func (s *Sensor) Reset() {
	for i := range s.ring {
		s.ring[i] = 0
	}
	s.head = 0
	s.filt = 0
	s.primed = false
	s.fault = Fault{}
}
