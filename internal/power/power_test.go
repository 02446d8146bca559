package power

import (
	"math"
	"testing"
	"testing/quick"
)

func testDVFS() DVFS {
	return DVFS{
		FMax: 2e9, FMin: 0.8e9,
		VNom: 1.10, VMin: 0.60, VT: 0.55, Alpha: 2.0,
	}
}

func testModel() Model {
	return Model{
		DVFS: testDVFS(), CEff: 4.6e-9,
		LeakNom: 0.9, LeakExp: 1.5, IdleAct: 0.03,
	}
}

func TestDVFSValidate(t *testing.T) {
	good := testDVFS()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid envelope rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*DVFS)
	}{
		{"zero fmax", func(d *DVFS) { d.FMax = 0 }},
		{"fmin over fmax", func(d *DVFS) { d.FMin = d.FMax * 2 }},
		{"vnom below vt", func(d *DVFS) { d.VNom = d.VT }},
		{"vmin below vt", func(d *DVFS) { d.VMin = d.VT - 0.1 }},
		{"vmin above vnom", func(d *DVFS) { d.VMin = d.VNom + 0.1 }},
		{"zero alpha", func(d *DVFS) { d.Alpha = 0 }},
	}
	for _, c := range cases {
		d := testDVFS()
		c.mut(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// inlineFreq is Freq as it was written before Norm was hoisted out:
// the normalisation recomputed inline on every call.
func inlineFreq(d DVFS, v float64) float64 {
	if v < d.VMin || v <= d.VT {
		return 0
	}
	norm := math.Pow(d.VNom-d.VT, d.Alpha) / d.VNom
	f := d.FMax * (math.Pow(v-d.VT, d.Alpha) / v) / norm
	if f > d.FMax {
		f = d.FMax
	}
	if f < d.FMin {
		f = d.FMin
	}
	return f
}

// TestHoistedNormBitwise holds Freq and FreqNorm with a once-computed
// Norm to the inline expression, bit for bit, over a sweep through the
// threshold, VMin, VNom, above VNom and NaN, for the CPU and GPU
// envelopes' shapes (α = 2 and a fractional α).
func TestHoistedNormBitwise(t *testing.T) {
	for _, d := range []DVFS{testDVFS(), {FMax: 1.4e9, FMin: 0.3e9, VNom: 1.05, VMin: 0.65, VT: 0.35, Alpha: 1.3}} {
		norm := d.Norm()
		vs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.2, d.VT, d.VMin, d.VNom, 1.5 * d.VNom,
			math.Nextafter(d.VMin, 0), math.Nextafter(d.VMin, 2), math.Nextafter(d.VNom, 2)}
		for v := d.VT - 0.05; v < d.VNom+0.3; v += 0.0007 {
			vs = append(vs, v)
		}
		for _, v := range vs {
			want := math.Float64bits(inlineFreq(d, v))
			if got := math.Float64bits(d.Freq(v)); got != want {
				t.Fatalf("α=%g Freq(%v) = %#x, inline expression %#x", d.Alpha, v, got, want)
			}
			if got := math.Float64bits(d.FreqNorm(v, norm)); got != want {
				t.Fatalf("α=%g FreqNorm(%v) = %#x, inline expression %#x", d.Alpha, v, got, want)
			}
		}
	}
}

func TestFreqAtNominalIsFMax(t *testing.T) {
	d := testDVFS()
	if got := d.Freq(d.VNom); math.Abs(got-d.FMax) > 1 {
		t.Fatalf("Freq(VNom) = %g, want FMax %g", got, d.FMax)
	}
}

func TestFreqBelowVMinIsZero(t *testing.T) {
	d := testDVFS()
	if got := d.Freq(d.VMin - 0.01); got != 0 {
		t.Fatalf("Freq below VMin = %g, want 0", got)
	}
	if got := d.Freq(d.VT); got != 0 {
		t.Fatalf("Freq at threshold = %g, want 0", got)
	}
}

func TestFreqClampedToRange(t *testing.T) {
	d := testDVFS()
	if got := d.Freq(5.0); got != d.FMax {
		t.Fatalf("Freq(5V) = %g, want clamp at FMax", got)
	}
	// Just above VMin the alpha-power value is tiny, so FMin clamps.
	if got := d.Freq(d.VMin + 0.001); got != d.FMin {
		t.Fatalf("Freq near VMin = %g, want FMin %g", got, d.FMin)
	}
}

func TestFreqMonotone(t *testing.T) {
	d := testDVFS()
	prev := 0.0
	for v := d.VMin; v <= d.VNom+0.2; v += 0.005 {
		f := d.Freq(v)
		if f < prev-1e-6 {
			t.Fatalf("Freq not monotone at %g: %g < %g", v, f, prev)
		}
		prev = f
	}
}

func TestFreqMonotoneProperty(t *testing.T) {
	d := testDVFS()
	f := func(a, b uint16) bool {
		v1 := d.VMin + float64(a)/65535*(d.VNom-d.VMin)
		v2 := d.VMin + float64(b)/65535*(d.VNom-d.VMin)
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		return d.Freq(v1) <= d.Freq(v2)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVoltageForInverse(t *testing.T) {
	d := testDVFS()
	for _, f := range []float64{0.9e9, 1.2e9, 1.5e9, 1.9e9} {
		v := d.VoltageFor(f)
		got := d.Freq(v)
		if math.Abs(got-f)/f > 1e-6 {
			t.Errorf("Freq(VoltageFor(%g)) = %g", f, got)
		}
	}
}

func TestVoltageForExtremes(t *testing.T) {
	d := testDVFS()
	if got := d.VoltageFor(d.FMax * 2); got != d.VNom {
		t.Fatalf("VoltageFor above FMax = %g, want VNom", got)
	}
	if got := d.VoltageFor(0); got != d.VMin {
		t.Fatalf("VoltageFor(0) = %g, want VMin", got)
	}
}

func TestModelValidate(t *testing.T) {
	m := testModel()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Model)
	}{
		{"zero ceff", func(m *Model) { m.CEff = 0 }},
		{"negative leak", func(m *Model) { m.LeakNom = -1 }},
		{"negative leak exp", func(m *Model) { m.LeakExp = -1 }},
		{"idle out of range", func(m *Model) { m.IdleAct = 1.5 }},
		{"bad dvfs", func(m *Model) { m.DVFS.Alpha = -1 }},
	}
	for _, c := range cases {
		m := testModel()
		c.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestDynamicScalesWithActivity(t *testing.T) {
	m := testModel()
	v, f := 0.95, m.DVFS.Freq(0.95)
	lo := m.Dynamic(v, f, 0.2)
	hi := m.Dynamic(v, f, 0.8)
	if math.Abs(hi/lo-4) > 1e-9 {
		t.Fatalf("dynamic power not linear in activity: %g vs %g", lo, hi)
	}
}

func TestDynamicActivityClamps(t *testing.T) {
	m := testModel()
	v, f := 0.95, m.DVFS.Freq(0.95)
	if got, floor := m.Dynamic(v, f, 0), m.Dynamic(v, f, m.IdleAct); got != floor {
		t.Fatalf("activity 0 should clamp to idle floor: %g vs %g", got, floor)
	}
	if got, cap := m.Dynamic(v, f, 2), m.Dynamic(v, f, 1); got != cap {
		t.Fatalf("activity 2 should clamp to 1: %g vs %g", got, cap)
	}
}

func TestDynamicQuadraticInVoltage(t *testing.T) {
	m := testModel()
	// At fixed frequency, dynamic power must scale exactly with V².
	f := 1e9
	p1 := m.Dynamic(0.8, f, 0.5)
	p2 := m.Dynamic(1.6, f, 0.5)
	if math.Abs(p2/p1-4) > 1e-9 {
		t.Fatalf("V² scaling broken: ratio %g", p2/p1)
	}
}

func TestLeakage(t *testing.T) {
	m := testModel()
	if got := m.Leakage(m.DVFS.VNom); math.Abs(got-m.LeakNom) > 1e-12 {
		t.Fatalf("Leakage(VNom) = %g, want %g", got, m.LeakNom)
	}
	if got := m.Leakage(0); got != 0 {
		t.Fatalf("Leakage(0) = %g, want 0", got)
	}
	if got := m.Leakage(-1); got != 0 {
		t.Fatalf("Leakage(-1) = %g, want 0", got)
	}
	if m.Leakage(0.8) >= m.Leakage(1.0) {
		t.Fatal("leakage should grow with voltage")
	}
}

func TestTotalMonotoneInVoltage(t *testing.T) {
	m := testModel()
	prev := 0.0
	for v := m.DVFS.VMin; v <= m.DVFS.VNom; v += 0.01 {
		p := m.Total(v, 0.6)
		if p < prev-1e-9 {
			t.Fatalf("total power not monotone at %g V", v)
		}
		prev = p
	}
}

func TestTotalPositiveProperty(t *testing.T) {
	m := testModel()
	f := func(vRaw, actRaw uint16) bool {
		v := 0.3 + float64(vRaw)/65535*1.2
		act := float64(actRaw) / 65535
		return m.Total(v, act) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
