// Package experiments implements the reproduction harness: one experiment
// per measurable claim of the paper (the paper is pure theory, so its
// "tables" are theorems; EXPERIMENTS.md records the mapping and results).
//
// Each experiment builds a workload family, runs the relevant pipeline
// (engine, period detection, specification, classification, baselines),
// and renders a table. The quick flag shrinks the sweeps for use in tests;
// `tdd experiments` runs the full sweeps.
package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim being validated
	Expect string // the expected shape of the numbers
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim:  %s\n", t.Claim)
	fmt.Fprintf(&b, "expect: %s\n\n", t.Expect)
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
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is an experiment entry point; quick shrinks the sweep.
type Runner func(quick bool) (*Table, error)

// All maps experiment ids to runners.
var All = map[string]Runner{
	"E1":  E1,
	"E2":  E2,
	"E3":  E3,
	"E4":  E4,
	"E5":  E5,
	"E6":  E6,
	"E7":  E7,
	"E8":  E8,
	"E9":  E9,
	"E10": E10,
}

// IDs returns the experiment ids in numeric order (E1, E2, ..., E10).
func IDs() []string {
	out := make([]string, 0, len(All))
	for id := range All {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := strconv.Atoi(strings.TrimPrefix(out[i], "E"))
		b, _ := strconv.Atoi(strings.TrimPrefix(out[j], "E"))
		return a < b
	})
	return out
}

// ms renders a duration in milliseconds with three decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
