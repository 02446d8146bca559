package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hcapp/internal/stats"
)

// Matrix is a figure's data: one value per (series, combo), plus a
// suite average column — the shape of Figs. 4–10.
type Matrix struct {
	Title string
	// Unit annotates the values ("× limit", "speedup", "PPE").
	Unit   string
	Rows   []string // series (scheme or prioritized component) order
	Cols   []string // combo order
	values map[string]map[string]float64
}

// NewMatrix creates a matrix with fixed row/column order.
func NewMatrix(title, unit string, rows, cols []string) *Matrix {
	return &Matrix{
		Title:  title,
		Unit:   unit,
		Rows:   append([]string(nil), rows...),
		Cols:   append([]string(nil), cols...),
		values: make(map[string]map[string]float64),
	}
}

// Set stores a value.
func (m *Matrix) Set(row, col string, v float64) {
	if m.values[row] == nil {
		m.values[row] = make(map[string]float64)
	}
	m.values[row][col] = v
}

// Get returns a value and whether it was set.
func (m *Matrix) Get(row, col string) (float64, bool) {
	v, ok := m.values[row][col]
	return v, ok
}

// rowValues returns the row's set values in column order.
func (m *Matrix) rowValues(row string) []float64 {
	var vals []float64
	for _, c := range m.Cols {
		if v, ok := m.values[row][c]; ok {
			vals = append(vals, v)
		}
	}
	return vals
}

// RowAvg returns the arithmetic mean across the row's set values.
func (m *Matrix) RowAvg(row string) float64 { return stats.Mean(m.rowValues(row)...) }

// RowMax returns the maximum across the row's set values.
func (m *Matrix) RowMax(row string) float64 { return stats.Max(m.rowValues(row)...) }

// RowMin returns the minimum across the row's set values.
func (m *Matrix) RowMin(row string) float64 { return stats.Min(m.rowValues(row)...) }

// Render formats the matrix as an aligned text table with an Ave.
// column, the textual equivalent of the paper's bar charts.
func (m *Matrix) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s", m.Title)
	if m.Unit != "" {
		fmt.Fprintf(&sb, " (%s)", m.Unit)
	}
	sb.WriteString("\n")

	rowW := 10
	for _, r := range m.Rows {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	colW := 12
	fmt.Fprintf(&sb, "%-*s", rowW+2, "")
	for _, c := range m.Cols {
		fmt.Fprintf(&sb, "%*s", colW, c)
	}
	fmt.Fprintf(&sb, "%*s\n", colW, "Ave.")
	for _, r := range m.Rows {
		fmt.Fprintf(&sb, "%-*s", rowW+2, r)
		for _, c := range m.Cols {
			if v, ok := m.values[r][c]; ok {
				fmt.Fprintf(&sb, "%*s", colW, formatCell(v))
			} else {
				fmt.Fprintf(&sb, "%*s", colW, "-")
			}
		}
		fmt.Fprintf(&sb, "%*s\n", colW, formatCell(m.RowAvg(r)))
	}
	return sb.String()
}

// formatCell renders one matrix value; NaN — a run where a scheme failed
// to complete every component (Eq. 3's poison-loudly contract) — prints
// as "fail" instead of masquerading as a number.
func formatCell(v float64) string {
	if math.IsNaN(v) {
		return "fail"
	}
	return fmt.Sprintf("%.3f", v)
}

// SortedRows returns row names sorted alphabetically (for deterministic
// auxiliary output).
func (m *Matrix) SortedRows() []string {
	out := append([]string(nil), m.Rows...)
	sort.Strings(out)
	return out
}
