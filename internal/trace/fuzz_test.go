package trace

import (
	"fmt"
	"testing"

	"hcapp/internal/sim"
)

// FuzzMaxWindowAvg holds the online reductions to the prefix-sum
// oracle bit for bit on fuzzer-chosen traces: AvgPower, PPE and
// MaxWindowAvg of a recorder, and a sampled window series. Each byte of
// raw is one sample, or, with its top bit set, a RecordN run of it whose
// length is the next byte; kRaw and sRaw pick the window and the
// series' spacing in steps.
func FuzzMaxWindowAvg(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 50}, uint8(2), uint8(1))
	f.Add([]byte{0}, uint8(1), uint8(1))
	f.Add([]byte{255, 0, 255, 0, 255, 0, 255}, uint8(3), uint8(2))
	f.Add([]byte{7, 0x93, 40, 12, 0xff, 63, 1, 0x80, 0, 99}, uint8(17), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw, sRaw uint8) {
		if len(raw) == 0 || len(raw) > 512 {
			return
		}
		const dt = 100
		window := sim.Time(int(kRaw%32)+1) * dt
		every := sim.Time(int(sRaw%8)+1) * dt
		r := MustRecorder(dt, window)
		o := &prefixOracle{dt: dt}
		fig1, fig2 := NewSeries(dt, every, every), NewSeries(dt, window, every)
		for i := 0; i < len(raw); i++ {
			// Fractional and negative values, so sums round.
			p := float64(raw[i]&0x7f)*1.37 - 30
			n := 1
			if raw[i]&0x80 != 0 && i+1 < len(raw) {
				i++
				n = int(raw[i]) % 64
				r.RecordN(p, n)
			} else {
				r.Record(p)
			}
			o.RecordN(p, n)
			fig1.RecordN(p, n)
			fig2.RecordN(p, n)
		}
		what := fmt.Sprintf("%d samples, window %d ns, spacing %d ns", len(o.total), window, every)
		sameBits(t, what+": AvgPower", r.AvgPower(), o.AvgPower())
		sameBits(t, what+": PPE", r.PPE(100), o.AvgPower()/100)
		sameBits(t, what+": MaxWindowAvg", r.MaxWindowAvg(window), o.MaxWindowAvg(window))
		samePoints(t, what+": bucket series", fig1.Points(), o.WindowSeries(every, every))
		samePoints(t, what+": window series", fig2.Points(), o.WindowSeries(window, every))
	})
}
