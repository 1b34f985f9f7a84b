// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on the simulated chips: each experiment returns a
// Table whose rows mirror what the paper plots, and the registry lets
// cmd/autogemm-bench run any of them by identifier. Most are analytic
// projections; fig11-replay and qos-replay (replay.go) instead record a
// real scheduled run and replay it in virtual time. EXPERIMENTS.md
// records paper-versus-measured values for each.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one regenerated table or figure data set.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note attaches a free-form annotation printed under the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner produces one experiment.
type Runner func() (Table, error)

// Registry maps experiment identifiers to their runners. Heavyweight
// experiments take minutes of simulation; the IDs match DESIGN.md §4.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1": TableI,
		"table2": func() (Table, error) { return TableII(), nil },
		"table3": func() (Table, error) { return TableIII(), nil },
		"table4": func() (Table, error) { return TableIV(), nil },
		"table5": func() (Table, error) { return TableV(), nil },
		"fig2":   func() (Table, error) { return Fig2(), nil },
		"fig3":   Fig3,
		"fig4":   func() (Table, error) { return Fig4(), nil },
		"fig5":   Fig5,
		"fig6":   Fig6,
		"fig7":   Fig7,
		"fig8":   Fig8,
		"fig9":   Fig9,
		"fig10":  Fig10,
		"fig11":  Fig11,
		"fig12":  Fig12,
		// The same figures from a real schedule replayed in virtual time.
		"fig11-replay": Fig11Replay,
		"qos-replay":   QoSReplay,
		// Ablations of the design choices DESIGN.md calls out.
		"sve-edge":           SVEEdge,
		"large-square":       LargeSquare,
		"pack-kernels":       PackKernels,
		"ablation-window":    AblationWindow,
		"ablation-prefetch":  AblationPrefetch,
		"ablation-dmt":       AblationDMTCandidates,
		"ablation-residency": AblationResidency,
	}
}

// IDs returns the registered experiment identifiers, sorted.
func IDs() []string {
	var ids []string
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CSV renders the table as comma-separated values (header first). Cells
// are quoted only when they contain commas or quotes.
func (t Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
