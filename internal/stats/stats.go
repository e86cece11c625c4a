// Package stats collects and presents the measurements the paper reports:
// per-procedure RPC operation counts (Tables 5-2, 5-4, 5-6), the
// correlation of server CPU load with call rates (Figures 5-1, 5-2), and
// aligned-text tables and ASCII charts for the benchmark harness output.
package stats

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"spritelynfs/internal/proto"
)

// Ops counts RPCs by procedure, the calls Tables 5-2, 5-4 and 5-6 count:
// slot i counts NFS procedure i, and slot Callback the callback program's
// callbacks.
type Ops [Callback + 1]int64

// Callback is the slot that counts callbacks, past the NFS procedures.
const Callback = proto.ProcReplSync + 1

// opNames names each slot as proto's table does.
var opNames = func() (names [Callback + 1]string) {
	for i := range names {
		names[i] = proto.ProcName(proto.ProgNFS, uint32(i))
	}
	names[Callback] = proto.ProcName(proto.ProgCallback, proto.CbProcCallback)
	return names
}()

// Inc adds one to the count of procedure proc of program prog. No slot
// counts another program's calls or the callback program's null.
func (o *Ops) Inc(prog, proc uint32) {
	switch {
	case prog == proto.ProgNFS && proc < Callback:
		o[proc]++
	case prog == proto.ProgCallback && proc == proto.CbProcCallback:
		o[Callback]++
	}
}

// Get returns the count for name.
func (o *Ops) Get(name string) int64 {
	if i := slices.Index(opNames[:], name); i >= 0 {
		return o[i]
	}
	return 0
}

// Total returns the sum of all counts.
func (o *Ops) Total() int64 {
	var t int64
	for _, v := range o {
		t += v
	}
	return t
}

// Sum returns the combined count of the named operations.
func (o *Ops) Sum(names ...string) int64 {
	var t int64
	for _, n := range names {
		t += o.Get(n)
	}
	return t
}

// Clone copies the counter set.
func (o *Ops) Clone() *Ops {
	c := *o
	return &c
}

// Diff returns o minus base (counts accumulated since base was cloned).
func (o *Ops) Diff(base *Ops) *Ops {
	d := *o
	for i, v := range base {
		d[i] -= v
	}
	return &d
}

// String formats the non-zero counts compactly, in name order: where one
// name extends another, it goes on with a letter, which sorts after '='.
func (o *Ops) String() string {
	var kv []string
	for i, v := range o {
		if v != 0 {
			kv = append(kv, fmt.Sprintf("%s=%d", opNames[i], v))
		}
	}
	sort.Strings(kv)
	return strings.Join(kv, " ")
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
