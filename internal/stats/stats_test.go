package stats

import (
	"math"
	"strings"
	"testing"

	"spritelynfs/internal/proto"
)

// TestOps holds the counter set to proto's tables: every procedure the
// NFS and callback programs name has a slot of its own that its name
// reads back, calls outside those tables count nothing, and Inc
// allocates nothing.
func TestOps(t *testing.T) {
	for proc := uint32(Callback); proc < 64; proc++ {
		if info, ok := proto.LookupProc(proto.ProgNFS, proc); ok {
			t.Errorf("NFS procedure %d (%s) has no slot", proc, info.Name)
		}
	}
	one := func(prog, proc uint32, name string) {
		var o Ops
		o.Inc(prog, proc)
		if o.Get(name) != 1 || o.Total() != 1 || o.String() != name+"=1" {
			t.Errorf("%s: Get %d, Total %d, String %q", name, o.Get(name), o.Total(), o.String())
		}
	}
	for proc := uint32(0); proc < Callback; proc++ {
		if info, ok := proto.LookupProc(proto.ProgNFS, proc); ok {
			one(proto.ProgNFS, proc, info.Name)
		}
	}
	one(proto.ProgCallback, proto.CbProcCallback, "callback")

	var o Ops
	for _, c := range [][2]uint32{{proto.ProgView, proto.ViewProcPing}, {proto.ProgCallback, proto.CbProcNull}, {proto.ProgNFS, 1 << 20}} {
		o.Inc(c[0], c[1])
	}
	if o.Total() != 0 {
		t.Errorf("uncounted calls counted: %s", &o)
	}
	if n := testing.AllocsPerRun(100, func() { o.Inc(proto.ProgNFS, proto.ProcRead) }); n != 0 {
		t.Errorf("Inc allocates %v", n)
	}
}

func incN(o *Ops, proc uint32, n int) {
	for i := 0; i < n; i++ {
		o.Inc(proto.ProgNFS, proc)
	}
}

func TestOpsBasics(t *testing.T) {
	var o Ops
	incN(&o, proto.ProcRead, 2)
	incN(&o, proto.ProcWrite, 5)
	if o.Get("read") != 2 || o.Get("write") != 5 || o.Get("absent") != 0 {
		t.Errorf("counts wrong: %s", &o)
	}
	if o.Total() != 7 {
		t.Errorf("total %d", o.Total())
	}
	if o.Sum("read", "write") != 7 || o.Sum("read") != 2 {
		t.Error("Sum wrong")
	}
}

func TestOpsCloneAndDiff(t *testing.T) {
	var o Ops
	incN(&o, proto.ProcRead, 3)
	o.Inc(proto.ProgNFS, proto.ProcLookup)
	o.Inc(proto.ProgNFS, proto.ProcReaddir)
	base := o.Clone()
	incN(&o, proto.ProcRead, 4)
	o.Inc(proto.ProgNFS, proto.ProcWrite)
	o.Inc(proto.ProgCallback, proto.CbProcCallback)
	// The clone must be independent.
	if base.Get("read") != 3 || base.Total() != 5 {
		t.Errorf("clone aliased: %s", base)
	}
	// Zero entries are omitted from the diff.
	d := o.Diff(base)
	if d.Get("read") != 4 || d.Get("write") != 1 || d.String() != "callback=1 read=4 write=1" {
		t.Errorf("diff %s", d)
	}
	d.Inc(proto.ProgNFS, proto.ProcWrite)
	if o.Get("write") != 1 || o.Sum("read", "write") != 8 {
		t.Errorf("diff aliased: %s", &o)
	}
}

func TestOpsString(t *testing.T) {
	var o Ops
	o.Inc(proto.ProgNFS, proto.ProcWrite)
	o.Inc(proto.ProgCallback, proto.CbProcCallback)
	incN(&o, proto.ProcRead, 4)
	o.Inc(proto.ProgNFS, proto.ProcReaddir)
	o.Inc(proto.ProgNFS, proto.ProcLookup)
	if s := o.String(); s != "callback=1 lookup=1 read=4 readdir=1 write=1" {
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
