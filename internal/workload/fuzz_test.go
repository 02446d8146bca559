package workload

import (
	"math"
	"strings"
	"testing"

	"hcapp/internal/sim"
)

// FuzzParseBenchmarks checks that arbitrary JSON never panics the
// parser and that anything it accepts builds valid traces.
func FuzzParseBenchmarks(f *testing.F) {
	f.Add(sampleSpecs)
	f.Add(`[]`)
	f.Add(`[{"name":"a","target":"cpu","kind":"constant","phase_dur_us":10,"ipc":1,"activity":0.5}]`)
	f.Add(`[{"name":"","target":"","kind":""}]`)
	f.Add(`not json at all`)
	f.Add(`[{"name":"w","target":"gpu","kind":"wave","phases":3,"wave_period_us":1,"ipc":0.1,"act_lo":0.1,"act_hi":0.2}]`)
	f.Fuzz(func(t *testing.T, input string) {
		bs, err := ParseBenchmarks(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		for _, b := range bs {
			for _, u := range b.Units(1, 2, 1e9) {
				if err := u.Trace.Validate(); err != nil {
					t.Fatalf("accepted spec built invalid trace: %v", err)
				}
			}
		}
	})
}

// FuzzCursorStep checks the execution-model arithmetic: any phase the
// validator accepts must step without NaNs, negative work, or activity
// outside the physical envelope. A twin cursor stepping with InPhase and
// StepWithin must match Step bit for bit whenever StepWithin takes the
// step, and must be left untouched when it declines.
func FuzzCursorStep(f *testing.F) {
	f.Add(1e6, 1.5, 0.3, 0.6, 0.1, int64(1000), 1e9)
	f.Add(10.0, 0.1, 0.0, 1.0, 0.0, int64(100), 1e8)
	f.Add(1e9, 3.0, 0.9, 0.02, 0.02, int64(100000), 2e9)
	f.Fuzz(func(t *testing.T, instr, ipc, mem, act, stall float64, dtRaw int64, freq float64) {
		p := Phase{Instr: instr, IPC: ipc, MemFrac: mem, Activity: act, StallAct: stall}
		if p.Validate() != nil {
			return
		}
		dt := sim.Time(dtRaw)
		if dt <= 0 || dt > sim.Second {
			return
		}
		if freq < 0 || freq > 1e11 || math.IsNaN(freq) {
			return
		}
		tr := &Trace{Name: "fuzz", Phases: []Phase{p}}
		c := NewCursor(tr, 0)
		twin := NewCursor(tr, 0)
		out := c.Step(dt, freq, 2e9)
		ips, done, act := twin.InPhase(dt, freq, 2e9)
		dtSec := sim.Seconds(dt)
		steady := twin.InPhaseSteps(ips, done, dtSec)
		if twin.StepWithin(ips, done, dtSec) {
			if math.Float64bits(out.Instr) != math.Float64bits(done) || math.Float64bits(out.Activity) != math.Float64bits(act) ||
				math.Float64bits(c.Remaining()) != math.Float64bits(twin.Remaining()) {
				t.Fatalf("in-phase step retired %v at activity %v leaving %v; Step %v at %v leaving %v",
					done, act, twin.Remaining(), out.Instr, out.Activity, c.Remaining())
			}
		} else if steady > 0 || twin.Remaining() != p.Instr {
			t.Fatalf("StepWithin declined after InPhaseSteps promised %d steps, leaving %v of %v", steady, twin.Remaining(), p.Instr)
		}
		if math.IsNaN(out.Instr) || out.Instr < 0 {
			t.Fatalf("work = %g", out.Instr)
		}
		if math.IsNaN(out.Activity) {
			t.Fatal("activity NaN")
		}
		lo := math.Min(p.Activity, p.StallAct)
		hi := math.Max(p.Activity, p.StallAct)
		if out.Activity < lo-1e-9 || out.Activity > hi+1e-9 {
			t.Fatalf("activity %g outside [%g,%g]", out.Activity, lo, hi)
		}
	})
}
