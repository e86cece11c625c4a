// Package stats collects and presents the measurements the paper reports:
// per-procedure RPC operation counts (Tables 5-2, 5-4, 5-6), the
// correlation of server CPU load with call rates (Figures 5-1, 5-2), and
// aligned-text tables and ASCII charts for the benchmark harness output.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Ops counts operations by name.
type Ops struct {
	m map[string]int64
}

// NewOps returns an empty counter set.
func NewOps() *Ops { return &Ops{m: make(map[string]int64)} }

// Inc adds one to name.
func (o *Ops) Inc(name string) { o.m[name]++ }

// Get returns the count for name.
func (o *Ops) Get(name string) int64 { return o.m[name] }

// Total returns the sum of all counts.
func (o *Ops) Total() int64 {
	var t int64
	for _, v := range o.m {
		t += v
	}
	return t
}

// Sum returns the combined count of the named operations.
func (o *Ops) Sum(names ...string) int64 {
	var t int64
	for _, n := range names {
		t += o.m[n]
	}
	return t
}

// Names returns the counted names in sorted order.
func (o *Ops) Names() []string {
	out := make([]string, 0, len(o.m))
	for n := range o.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone copies the counter set.
func (o *Ops) Clone() *Ops {
	c := NewOps()
	for k, v := range o.m {
		c.m[k] = v
	}
	return c
}

// Diff returns o minus base (counts accumulated since base was cloned).
func (o *Ops) Diff(base *Ops) *Ops {
	d := NewOps()
	for k, v := range o.m {
		if dv := v - base.m[k]; dv != 0 {
			d.m[k] = dv
		}
	}
	return d
}

// String formats the non-zero counts compactly.
func (o *Ops) String() string {
	var b strings.Builder
	for i, n := range o.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, o.m[n])
	}
	return b.String()
}

// Correlation returns the Pearson correlation of two series over their
// common prefix (0 if degenerate). The paper observes that server CPU
// load correlates with the total call rate but not with read/write rates.
func Correlation(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n < 2 {
		return 0
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / (math.Sqrt(va) * math.Sqrt(vb))
}

// Table renders aligned text tables.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// Render writes the table to w. Rows may have more cells than there are
// headers; the width list grows to cover the widest row.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for len(widths) < len(row) {
			widths = append(widths, 0)
		}
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// Chart renders series as a crude ASCII strip chart (one row per series),
// scaled to each series' own maximum — enough to see the shape the
// paper's figures show.
func Chart(w io.Writer, title string, xLabel string, series map[string][]float64, order []string) {
	const levels = " .:-=+*#%@"
	fmt.Fprintf(w, "%s\n", title)
	for _, name := range order {
		vals := series[name]
		max := 0.0
		for _, v := range vals {
			if v > max {
				max = v
			}
		}
		var b strings.Builder
		for _, v := range vals {
			idx := 0
			if max > 0 {
				idx = int(v / max * float64(len(levels)-1))
			}
			if idx >= len(levels) {
				idx = len(levels) - 1
			}
			b.WriteByte(levels[idx])
		}
		fmt.Fprintf(w, "  %-12s |%s| max=%.2f\n", name, b.String(), max)
	}
	fmt.Fprintf(w, "  %s\n", xLabel)
}
