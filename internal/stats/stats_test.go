package stats

import (
	"math"
	"strings"
	"testing"
)

func incN(o *Ops, name string, n int) {
	for i := 0; i < n; i++ {
		o.Inc(name)
	}
}

func TestOpsBasics(t *testing.T) {
	o := NewOps()
	o.Inc("read")
	o.Inc("read")
	incN(o, "write", 5)
	if o.Get("read") != 2 || o.Get("write") != 5 || o.Get("absent") != 0 {
		t.Errorf("counts wrong: %s", o)
	}
	if o.Total() != 7 {
		t.Errorf("total %d", o.Total())
	}
	if o.Sum("read", "write") != 7 || o.Sum("read") != 2 {
		t.Error("Sum wrong")
	}
	names := o.Names()
	if len(names) != 2 || names[0] != "read" || names[1] != "write" {
		t.Errorf("names %v", names)
	}
}

func TestOpsCloneAndDiff(t *testing.T) {
	o := NewOps()
	incN(o, "read", 3)
	base := o.Clone()
	incN(o, "read", 4)
	o.Inc("write")
	d := o.Diff(base)
	if d.Get("read") != 4 || d.Get("write") != 1 {
		t.Errorf("diff %s", d)
	}
	// The clone must be independent.
	if base.Get("read") != 3 {
		t.Error("clone aliased")
	}
	// Zero entries are omitted from the diff.
	if len(d.Names()) != 2 {
		t.Errorf("diff names %v", d.Names())
	}
}

func TestOpsString(t *testing.T) {
	o := NewOps()
	o.Inc("b")
	o.Inc("a")
	if s := o.String(); s != "a=1 b=1" {
		t.Errorf("String() = %q", s)
	}
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	up := []float64{2, 4, 6, 8, 10}
	down := []float64{5, 4, 3, 2, 1}
	if c := Correlation(a, up); math.Abs(c-1) > 1e-9 {
		t.Errorf("corr(up) = %v", c)
	}
	if c := Correlation(a, down); math.Abs(c+1) > 1e-9 {
		t.Errorf("corr(down) = %v", c)
	}
	flat := []float64{7, 7, 7, 7, 7}
	if c := Correlation(a, flat); c != 0 {
		t.Errorf("corr(flat) = %v", c)
	}
	if c := Correlation(a[:1], up[:1]); c != 0 {
		t.Errorf("corr(short) = %v", c)
	}
	// Different lengths use the common prefix.
	if c := Correlation(a, up[:3]); math.Abs(c-1) > 1e-9 {
		t.Errorf("corr(prefix) = %v", c)
	}
}

func TestCorrelationDegenerate(t *testing.T) {
	if c := Correlation(nil, nil); c != 0 {
		t.Errorf("corr(nil) = %v", c)
	}
	if c := Correlation([]float64{1, 2, 3}, nil); c != 0 {
		t.Errorf("corr(a, nil) = %v", c)
	}
	if c := Correlation([]float64{5}, []float64{9}); c != 0 {
		t.Errorf("corr(single) = %v", c)
	}
	// Zero variance on either side yields 0, not NaN.
	flat := []float64{3, 3, 3}
	vary := []float64{1, 2, 3}
	for _, c := range []float64{Correlation(flat, vary), Correlation(vary, flat), Correlation(flat, flat)} {
		if c != 0 || math.IsNaN(c) {
			t.Errorf("zero-variance corr = %v", c)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Title", "Col", "Value")
	tb.AddRow("short", "1")
	tb.AddRow("a-much-longer-cell", "22")
	var b strings.Builder
	tb.Render(&b)
	out := b.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "a-much-longer-cell") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: both data rows put "1"/"22" at the same offset.
	if idx1, idx2 := strings.Index(lines[3], "1"), strings.Index(lines[4], "22"); idx1 != idx2 {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestTableRenderWideRows(t *testing.T) {
	// Rows wider than the header list get their own grown columns rather
	// than all being clamped into the last header's width.
	tb := NewTable("", "A", "B")
	tb.AddRow("x", "y", "extra-one", "extra-two")
	tb.AddRow("1", "2", "3", "4")
	var b strings.Builder
	tb.Render(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), b.String())
	}
	// The two data rows align column by column.
	row1, row2 := lines[2], lines[3]
	if i1, i2 := strings.Index(row1, "extra-two"), strings.Index(row2, "4"); i1 != i2 {
		t.Errorf("extra columns misaligned (%d vs %d):\n%s", i1, i2, b.String())
	}
	if i1, i2 := strings.Index(row1, "extra-one"), strings.Index(row2, "3"); i1 != i2 {
		t.Errorf("extra columns misaligned (%d vs %d):\n%s", i1, i2, b.String())
	}
}

func TestChartRenders(t *testing.T) {
	var b strings.Builder
	Chart(&b, "title", "x", map[string][]float64{
		"s1": {0, 1, 2, 4},
		"s2": {4, 0, 0, 0},
	}, []string{"s1", "s2"})
	out := b.String()
	if !strings.Contains(out, "s1") || !strings.Contains(out, "s2") {
		t.Errorf("chart missing series:\n%s", out)
	}
	if !strings.Contains(out, "max=4.00") {
		t.Errorf("chart missing scale:\n%s", out)
	}
}
