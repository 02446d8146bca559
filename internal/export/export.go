// Package export serializes experiment outputs — power traces, figure
// matrices, run results — as CSV and JSON for external plotting and for
// the report generator (hcappsim report).
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"hcapp/internal/experiment"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
)

// WriteSeriesCSV writes one or more aligned power series as CSV with a
// time_us column. Series are truncated to the shortest; names labels the
// value columns.
func WriteSeriesCSV(w io.Writer, names []string, series ...[]trace.Point) error {
	if len(names) != len(series) {
		return fmt.Errorf("export: %d names for %d series", len(names), len(series))
	}
	if len(series) == 0 {
		return fmt.Errorf("export: no series")
	}
	n := len(series[0])
	for _, s := range series[1:] {
		if len(s) < n {
			n = len(s)
		}
	}
	cw := csv.NewWriter(w)
	header := append([]string{"time_us"}, names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i := 0; i < n; i++ {
		row[0] = strconv.FormatFloat(float64(series[0][i].T)/float64(sim.Microsecond), 'f', 2, 64)
		for j, s := range series {
			row[j+1] = strconv.FormatFloat(s[i].P, 'f', 6, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMatrixCSV writes a figure matrix as CSV: one row per series, one
// column per combo, plus the average.
func WriteMatrixCSV(w io.Writer, m *experiment.Matrix) error {
	if m == nil {
		return fmt.Errorf("export: nil matrix")
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(append(append([]string{"series"}, m.Cols...), "average")); err != nil {
		return err
	}
	for _, r := range m.Rows {
		row := []string{r}
		for _, c := range m.Cols {
			if v, ok := m.Get(r, c); ok {
				row = append(row, strconv.FormatFloat(v, 'f', 6, 64))
			} else {
				row = append(row, "")
			}
		}
		row = append(row, strconv.FormatFloat(m.RowAvg(r), 'f', 6, 64))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// MatrixJSON is the JSON shape of a figure matrix.
type MatrixJSON struct {
	Title  string                        `json:"title"`
	Unit   string                        `json:"unit"`
	Combos []string                      `json:"combos"`
	Series map[string]map[string]float64 `json:"series"`
	Avg    map[string]float64            `json:"average"`
}

// WriteMatrixJSON writes a figure matrix as indented JSON.
func WriteMatrixJSON(w io.Writer, m *experiment.Matrix) error {
	if m == nil {
		return fmt.Errorf("export: nil matrix")
	}
	out := MatrixJSON{
		Title:  m.Title,
		Unit:   m.Unit,
		Combos: m.Cols,
		Series: make(map[string]map[string]float64, len(m.Rows)),
		Avg:    make(map[string]float64, len(m.Rows)),
	}
	for _, r := range m.Rows {
		vals := make(map[string]float64, len(m.Cols))
		for _, c := range m.Cols {
			if v, ok := m.Get(r, c); ok {
				vals[c] = v
			}
		}
		out.Series[r] = vals
		out.Avg[r] = m.RowAvg(r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// RunResultJSON is the JSON shape of a single run.
type RunResultJSON struct {
	Combo          string             `json:"combo"`
	Scheme         string             `json:"scheme"`
	Limit          string             `json:"limit"`
	MaxWindowPower float64            `json:"max_window_power_w"`
	MaxOverLimit   float64            `json:"max_over_limit"`
	Violated       bool               `json:"violated"`
	AvgPower       float64            `json:"avg_power_w"`
	PPE            float64            `json:"ppe"`
	DurationUS     float64            `json:"duration_us"`
	Completed      bool               `json:"completed"`
	CompletionUS   map[string]float64 `json:"completion_us"`
}

// ToRunResultJSON converts a run result.
func ToRunResultJSON(r experiment.RunResult) RunResultJSON {
	out := RunResultJSON{
		Combo:          r.Spec.Combo.Name,
		Scheme:         string(r.Spec.Scheme.Kind),
		Limit:          r.Spec.Limit.Name,
		MaxWindowPower: r.MaxWindowPower,
		MaxOverLimit:   r.MaxOverLimit,
		Violated:       r.Violated,
		AvgPower:       r.AvgPower,
		PPE:            r.PPE,
		DurationUS:     float64(r.Duration) / float64(sim.Microsecond),
		Completed:      r.Completed,
		CompletionUS:   make(map[string]float64, len(r.Completion)),
	}
	for name, t := range r.Completion {
		out.CompletionUS[name] = float64(t) / float64(sim.Microsecond)
	}
	return out
}

// WriteRunResultJSON writes one run result as indented JSON.
func WriteRunResultJSON(w io.Writer, r experiment.RunResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ToRunResultJSON(r))
}

// MatrixMarkdown renders a figure matrix as a GitHub-flavored markdown
// table for the report generator.
func MatrixMarkdown(m *experiment.Matrix) string {
	if m == nil {
		return ""
	}
	out := "| " + m.Title
	if m.Unit != "" {
		out += " (" + m.Unit + ")"
	}
	out += " |"
	for _, c := range m.Cols {
		out += " " + c + " |"
	}
	out += " Ave. |\n|"
	for i := 0; i < len(m.Cols)+2; i++ {
		out += "---|"
	}
	out += "\n"
	for _, r := range m.Rows {
		out += "| " + r + " |"
		for _, c := range m.Cols {
			if v, ok := m.Get(r, c); ok {
				out += " " + markdownCell(v) + " |"
			} else {
				out += " – |"
			}
		}
		out += " " + markdownCell(m.RowAvg(r)) + " |\n"
	}
	return out
}

// markdownCell renders one matrix value for the markdown table; NaN (a
// scheme that failed to complete every component) prints as "fail".
func markdownCell(v float64) string {
	if math.IsNaN(v) {
		return "fail"
	}
	return fmt.Sprintf("%.3f", v)
}
