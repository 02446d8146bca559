package experiment

import (
	"math"
	"strings"
	"testing"
)

func TestMatrixSetGet(t *testing.T) {
	m := NewMatrix("t", "u", []string{"A", "B"}, []string{"x", "y"})
	m.Set("A", "x", 1.5)
	if v, ok := m.Get("A", "x"); !ok || v != 1.5 {
		t.Fatalf("Get = %g, %v", v, ok)
	}
	if _, ok := m.Get("A", "y"); ok {
		t.Fatal("unset cell reported set")
	}
	if _, ok := m.Get("Z", "x"); ok {
		t.Fatal("unknown row reported set")
	}
}

func TestMatrixRowAvgAndMax(t *testing.T) {
	m := NewMatrix("t", "", []string{"A"}, []string{"x", "y", "z"})
	m.Set("A", "x", 1)
	m.Set("A", "y", 2)
	m.Set("A", "z", 6)
	if got := m.RowAvg("A"); got != 3 {
		t.Fatalf("RowAvg = %g", got)
	}
	if got := m.RowMax("A"); got != 6 {
		t.Fatalf("RowMax = %g", got)
	}
	if got := m.RowMin("A"); got != 1 {
		t.Fatalf("RowMin = %g", got)
	}
	// Partially filled rows reduce over set values only.
	m2 := NewMatrix("t", "", []string{"A"}, []string{"x", "y"})
	m2.Set("A", "x", 4)
	if got := m2.RowAvg("A"); got != 4 {
		t.Fatalf("partial RowAvg = %g", got)
	}
	if got := m2.RowMin("A"); got != 4 {
		t.Fatalf("partial RowMin = %g", got)
	}
	// Empty rows are NaN.
	if got := m2.RowAvg("B"); !math.IsNaN(got) {
		t.Fatalf("empty RowAvg = %g, want NaN", got)
	}
}

func TestMatrixRender(t *testing.T) {
	m := NewMatrix("Fig X", "speedup", []string{"HCAPP"}, []string{"Hi-Hi", "Low-Low"})
	m.Set("HCAPP", "Hi-Hi", 1.21)
	out := m.Render()
	for _, want := range []string{"Fig X", "speedup", "HCAPP", "Hi-Hi", "Low-Low", "1.210", "Ave.", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMatrixSortedRows(t *testing.T) {
	m := NewMatrix("t", "", []string{"z", "a", "m"}, nil)
	got := m.SortedRows()
	if got[0] != "a" || got[1] != "m" || got[2] != "z" {
		t.Fatalf("SortedRows = %v", got)
	}
	// Original order untouched.
	if m.Rows[0] != "z" {
		t.Fatal("SortedRows mutated row order")
	}
}
