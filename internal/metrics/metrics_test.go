package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	h := r.Histogram("z")
	h.Observe(7)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram should read 0")
	}
	h.Merge(nil)
	r.GaugeFunc("f", func() float64 { return 1 })
	if len(r.Snapshot().Gauges) != 0 {
		t.Fatal("nil registry should not have gauges")
	}
	if r.FindHistogram("z") != nil || r.HistogramNames() != nil {
		t.Fatal("nil registry lookups should be empty")
	}
	var sb strings.Builder
	r.WriteProm(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil registry exposition should be empty")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 100, 1000, 1000, 1000000} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1000000 {
		t.Fatalf("max = %d", h.Max())
	}
	if h.Sum() != 0+1+2+3+100+1000+1000+1000000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	// p50 of 8 samples lands around the 4th (value 3): the estimate must
	// stay within that sample's bucket [2,3].
	if p := h.Quantile(0.5); p < 2 || p > 3 {
		t.Fatalf("p50 = %g, want within [2,3]", p)
	}
	// Quantiles must be monotone in q and capped at max.
	prev := -1.0
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%g: %g < %g", q, v, prev)
		}
		if v > float64(h.Max()) {
			t.Fatalf("quantile %g exceeds max", v)
		}
		prev = v
	}
	if h.Quantile(1) != float64(h.Max()) {
		t.Fatalf("p100 = %g, want max %d", h.Quantile(1), h.Max())
	}
	// Negative samples clamp to zero rather than corrupting buckets.
	h.Observe(-5)
	if h.Quantile(0) < 0 {
		t.Fatal("negative quantile")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := int64(1); i <= 100; i++ {
		a.Observe(i)
	}
	for i := int64(1000); i <= 1100; i++ {
		b.Observe(i)
	}
	a.Merge(&b)
	if a.Count() != 201 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 1100 {
		t.Fatalf("merged max = %d", a.Max())
	}
	// Snapshot merge agrees with histogram merge.
	var s HistSnapshot
	s.Merge(b.Snapshot())
	if s.Count != 101 || s.Max != 1100 {
		t.Fatalf("snapshot merge = %+v", s)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("x_us"); got != "x_us" {
		t.Fatalf("no-label = %q", got)
	}
	if got := Label("x_us", "proc", "read"); got != `x_us{proc="read"}` {
		t.Fatalf("one label = %q", got)
	}
	if got := Label("x_us", "proc", "read", "host", "c1"); got != `x_us{proc="read",host="c1"}` {
		t.Fatalf("two labels = %q", got)
	}
}

func TestWriteProm(t *testing.T) {
	r := New()
	r.GaugeFunc("snfs_ops_total", func() float64 { return 7 })
	r.Help("snfs_ops_total", "Total operations served.")
	r.GaugeFunc("snfs_table_size", func() float64 { return 11 })
	h := r.Histogram(Label("snfs_lat_us", "proc", "read"))
	r.Help(Label("snfs_lat_us", "proc", "read"), "Latency in microseconds.")
	h.Observe(3)
	h.Observe(300)
	var sb strings.Builder
	r.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP snfs_ops_total Total operations served.",
		"# TYPE snfs_ops_total gauge",
		"snfs_ops_total 7",
		"snfs_table_size 11",
		"# HELP snfs_lat_us Latency in microseconds.",
		"# TYPE snfs_lat_us histogram",
		`snfs_lat_us_bucket{proc="read",le="3"} 1`,
		`snfs_lat_us_bucket{proc="read",le="+Inf"} 2`,
		`snfs_lat_us_sum{proc="read"} 303`,
		`snfs_lat_us_count{proc="read"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic: two expositions are identical.
	var sb2 strings.Builder
	r.WriteProm(&sb2)
	if sb2.String() != out {
		t.Fatal("exposition is not deterministic")
	}
}

// TestWritePromFormat asserts the exposition is structurally scrapeable:
// every non-comment line is `name[{labels}] value`, each family's samples
// are contiguous, and # HELP/# TYPE precede the family's first sample.
func TestWritePromFormat(t *testing.T) {
	r := New()
	r.GaugeFunc("a_total", func() float64 { return 1 })
	r.Help("a_total", "A cumulative gauge.")
	r.GaugeFunc(Label("b_gauge", "host", "s0"), func() float64 { return 1.5 })
	r.GaugeFunc(Label("b_gauge", "host", "s1"), func() float64 { return 2.5 })
	r.Histogram("c_us").Observe(10)
	var sb strings.Builder
	r.WriteProm(&sb)

	seen := map[string]bool{}      // families that have emitted samples
	commented := map[string]bool{} // families with # TYPE already out
	var last string
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Fatalf("malformed metadata line %q", line)
			}
			base := fields[2]
			if strings.HasPrefix(line, "# TYPE ") {
				switch fields[3] {
				case "gauge", "histogram":
				default:
					t.Fatalf("bad type %q in %q", fields[3], line)
				}
				if seen[base] {
					t.Fatalf("# TYPE for %s appears after its samples", base)
				}
				commented[base] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // quantile summaries for humans
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if name == "" || val == "" {
			t.Fatalf("malformed sample %q", line)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 && !strings.HasSuffix(name, "}") {
			t.Fatalf("unterminated label block in %q", name)
		}
		base := baseOf(name)
		// Histogram series carry _bucket/_sum/_count suffixes; map them
		// back to the family that owns the # TYPE line.
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(base, suf); ok && commented[trimmed] {
				base = trimmed
				break
			}
		}
		if !commented[base] {
			t.Fatalf("sample %q precedes its # TYPE line", line)
		}
		if seen[base] && last != base {
			t.Fatalf("family %s is not contiguous", base)
		}
		seen[base] = true
		last = base
	}
	for _, base := range []string{"a_total", "b_gauge", "c_us"} {
		if !seen[base] {
			t.Fatalf("family %s missing from exposition", base)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := New()
	depth := 7.0
	r.GaugeFunc("depth", func() float64 { return depth })
	r.GaugeFunc("fn", func() float64 { return 9 })
	r.Histogram("lat_us").Observe(100)
	s := r.Snapshot()
	if s.Gauges["depth"] != 7 || s.Gauges["fn"] != 9 {
		t.Fatalf("snapshot gauges = %v", s.Gauges)
	}
	if h := s.Hists["lat_us"]; h.Count != 1 || h.Sum != 100 {
		t.Fatalf("snapshot hist = %+v", s.Hists["lat_us"])
	}
	// Snapshots are copies: later recording must not alter them.
	depth = 12
	r.Histogram("lat_us").Observe(5)
	if s.Gauges["depth"] != 7 || s.Hists["lat_us"].Count != 1 {
		t.Fatal("snapshot aliased live metrics")
	}
	var nilReg *Registry
	ns := nilReg.Snapshot()
	if len(ns.Gauges) != 0 || len(ns.Hists) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestHistSnapshotDelta(t *testing.T) {
	var h Histogram
	h.Observe(10)
	h.Observe(20)
	prev := h.Snapshot()
	h.Observe(1000)
	h.Observe(2000)
	d := h.Snapshot().Delta(prev)
	if d.Count != 2 || d.Sum != 3000 {
		t.Fatalf("delta = count %d sum %d, want 2/3000", d.Count, d.Sum)
	}
	// The window holds only the large samples, so its p50 must sit far
	// above the all-time p50.
	if p := d.Quantile(0.5); p < 512 {
		t.Fatalf("window p50 = %g, want >= 512", p)
	}
	// Empty window: identical snapshots diff to zero and quote 0.
	same := h.Snapshot()
	e := same.Delta(same)
	if e.Count != 0 || e.Quantile(0.5) != 0 || e.Quantile(0.99) != 0 {
		t.Fatalf("empty window = %+v, q50=%g", e, e.Quantile(0.5))
	}
	// Counter reset: a fresh histogram's snapshot has smaller buckets
	// than prev; Delta must fall back to the current snapshot whole.
	var fresh Histogram
	fresh.Observe(5)
	f := fresh.Snapshot().Delta(prev)
	if f.Count != 1 || f.Sum != 5 {
		t.Fatalf("reset delta = %+v, want the fresh snapshot", f)
	}
}

// TestConcurrentWriters hammers one registry from many goroutines while
// exposition runs — the -race CI job checks the synchronization.
func TestConcurrentWriters(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := r.Histogram("h_us")
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(i%1000 + id))
				if i%100 == 0 {
					// Metric creation racing with use.
					r.Histogram("h_us").Observe(int64(i))
					r.GaugeFunc("fn", func() float64 { return float64(i) })
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			r.WriteProm(&sb)
		}
	}()
	wg.Wait()
	<-done
	wantObs := int64(workers * (perWorker + perWorker/100))
	if got := r.Histogram("h_us").Count(); got != wantObs {
		t.Fatalf("histogram count = %d, want %d", got, wantObs)
	}
}

// TestExemplars checks ObserveOp stamps the op ID on exactly the bucket
// the sample lands in, that zero ops never stamp (keeping span-off output
// byte-identical), and that WriteProm carries the exemplar suffix.
func TestExemplars(t *testing.T) {
	var h Histogram
	h.ObserveOp(1500, 0) // spans off: no exemplar recorded
	for i := range h.exemplars {
		if h.exemplars[i].Load() != 0 {
			t.Fatalf("op=0 stamped bucket %d", i)
		}
	}
	h.ObserveOp(1500, 42)
	b := BucketOf(1500)
	if got := h.Exemplar(b); got != 42 {
		t.Fatalf("Exemplar(%d) = %d, want 42", b, got)
	}
	for i := range h.exemplars {
		if i != b && h.exemplars[i].Load() != 0 {
			t.Fatalf("stray exemplar in bucket %d", i)
		}
	}
	// A later sample in the same bucket wins (recency is the point:
	// the exemplar should link to an op the capture may still hold).
	h.ObserveOp(1600, 99)
	if BucketOf(1600) != b {
		t.Fatalf("test assumption broken: 1500 and 1600 straddle buckets")
	}
	if got := h.Exemplar(b); got != 99 {
		t.Fatalf("Exemplar(%d) = %d, want the later op 99", b, got)
	}

	r := New()
	rh := r.Histogram("lat_us")
	rh.ObserveOp(1500, 7)
	var sb strings.Builder
	r.WriteProm(&sb)
	if !strings.Contains(sb.String(), `# {op="7"}`) {
		t.Fatalf("WriteProm missing exemplar suffix:\n%s", sb.String())
	}
	// And without ops, no exemplar syntax at all.
	r2 := New()
	r2.Histogram("lat_us").Observe(1500)
	sb.Reset()
	r2.WriteProm(&sb)
	if strings.Contains(sb.String(), "# {op=") {
		t.Fatalf("plain Observe leaked exemplar syntax:\n%s", sb.String())
	}
}

// TestExemplarsConcurrent hammers ObserveOp from several goroutines under
// the race detector; the exemplar slots are atomics.
func TestExemplarsConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.ObserveOp(int64(i), uint64(g*1000+i+1))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	if h.Exemplar(BucketOf(500)) == 0 {
		t.Fatal("no exemplar recorded in a hot bucket")
	}
}
