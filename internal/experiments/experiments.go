// Package experiments regenerates every table and figure of the paper's
// evaluation at simulation scale. Each experiment returns a Result of
// paper-vs-measured rows; cmd/dsibench prints them and
// testdata/golden/<id>.txt holds the reference run each must reproduce
// (TestExperimentGolden).
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Row is one line of an experiment's output.
type Row struct {
	Label    string
	Paper    string // the paper's reported value ("-" if none)
	Measured string
	Note     string
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	Rows  []Row
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	labelW, paperW, measW := len("metric"), len("paper"), len("measured")
	for _, row := range r.Rows {
		labelW = maxi(labelW, len(row.Label))
		paperW = maxi(paperW, len(row.Paper))
		measW = maxi(measW, len(row.Measured))
	}
	fmt.Fprintf(&b, "%-*s  %*s  %*s  %s\n", labelW, "metric", paperW, "paper", measW, "measured", "note")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-*s  %*s  %*s  %s\n", labelW, row.Label, paperW, row.Paper, measW, row.Measured, row.Note)
	}
	return b.String()
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Runner regenerates one experiment.
type Runner func() (Result, error)

var registry = map[string]Runner{}
var titles = map[string]string{}

func register(id, title string, r Runner) {
	registry[id] = r
	titles[id] = title
}

// IDs lists registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's display title.
func Title(id string) string { return titles[id] }

// Run executes one experiment by ID.
func Run(id string) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r()
}

// RunAll executes every experiment in ID order, stopping at the first
// error.
func RunAll() ([]Result, error) {
	var out []Result
	for _, id := range IDs() {
		res, err := Run(id)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// fmtF formats a float with sensible precision for tables.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 0.01:
		return fmt.Sprintf("%.4f", v)
	case v < 10:
		return fmt.Sprintf("%.2f", v)
	case v < 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// fmtPct formats a fraction as a percentage.
func fmtPct(frac float64) string { return fmt.Sprintf("%.0f%%", 100*frac) }

// fmtX formats a ratio as "N.NNx".
func fmtX(v float64) string { return fmt.Sprintf("%.2fx", v) }

// fmtBytes formats a byte count compactly.
func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2f MB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2f KB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", v)
	}
}
