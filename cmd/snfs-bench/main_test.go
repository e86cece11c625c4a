package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spritelynfs/internal/harness"
)

// committed is where the repository keeps what `snfs-bench -run all -o
// results` writes.
const committed = "../../results"

// TestExperimentsReproduceResults is what holds the paper tables, the
// knees, the RPC reductions and the failover bounds: every experiment but
// the scenario sweep (≈ 30 s; CI's results job and TestScenarioBody cover
// it) runs at full size into a scratch directory, and every file it writes
// that has a committed counterpart must match it byte for byte. The
// self-checking experiments (rpc, clusterscale, clustersmoke, failover)
// fail the run of their own accord on a missed floor or an audit
// violation.
func TestExperimentsReproduceResults(t *testing.T) {
	dir := t.TempDir()
	var names []string
	for _, ex := range experiments {
		if ex.name != "scenario" {
			names = append(names, ex.name)
		}
	}
	var stdout bytes.Buffer
	if err := run(&stdout, dir, harness.Default(), names); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	compared := map[string]bool{}
	for _, f := range written {
		want, err := os.ReadFile(filepath.Join(committed, f.Name()))
		if os.IsNotExist(err) {
			continue // a journal or trace the repository does not track
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		compared[f.Name()] = true
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from results/%s (regenerate with `go run ./cmd/snfs-bench -run all -o results` if the change is meant):\n%s",
				f.Name(), f.Name(), firstDifference(got, want))
		}
	}
	// Every experiment's text is tracked, and so are the summaries the
	// old CI gates read: a file that stops being written or compared is a
	// failure, not a pass.
	for _, name := range names {
		if !compared[name+".txt"] {
			t.Errorf("%s.txt was not compared with a committed counterpart", name)
		}
	}
	for _, name := range []string{"BENCH_scale.json", "BENCH_rpc.json", "BENCH_failover.json", "scale.csv", "cluster-scale.csv", "view.log"} {
		if !compared[name] {
			t.Errorf("%s was not compared with a committed counterpart", name)
		}
	}
	// The text goes out in registry order whatever order the cores
	// finished in.
	last := -1
	for _, marker := range []string{"Table 4-1", "Table 5-1:", "Figure 5-2:", "Table 5-6:", "Scale: N active", "Failover experiment", "Chrome trace:", "Protocol timeline:"} {
		at := strings.Index(stdout.String(), marker)
		if at <= last {
			t.Errorf("%q is at offset %d of the text, not after the experiment before it (%d)", marker, at, last)
		}
		last = at
	}
}

// firstDifference names the first line where got and want part.
func firstDifference(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n  got:  %.160s\n  want: %.160s", i+1, gl, wl)
		}
	}
	return "(same lines)"
}

// TestScenarioBody drives the scenario experiment's body at two small
// populations: the smoke pass is audited and complete, the sweep's base
// point anchors the slowdowns, the summary is well-formed — and the
// result does not depend on how the worlds were spread over the cores:
// the same body run one world at a time (as under -audit-journal, where
// they share a sink) writes the same bytes.
func TestScenarioBody(t *testing.T) {
	body := func(pm harness.Params) (text string, summary []byte) {
		t.Helper()
		var w bytes.Buffer
		e := &env{pm: pm, w: &w, dir: t.TempDir()}
		if err := scenarioExperiment(e, []int{8, 48}); err != nil {
			t.Fatal(err)
		}
		summary, err := os.ReadFile(filepath.Join(e.dir, "BENCH_scenario.json"))
		if err != nil {
			t.Fatal(err)
		}
		return w.String(), summary
	}
	text, summary := body(harness.Default())

	var doc scenarioJSON
	if err := json.Unmarshal(summary, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Smoke) != 8 {
		t.Fatalf("%d smoke runs, want 4 scenarios x 2 protocols", len(doc.Smoke))
	}
	for _, s := range doc.Smoke {
		if s.Ops != 80 || s.Errors != 0 || s.Audited != (s.Proto == "SNFS") {
			t.Errorf("smoke run %+v: want 80 ops, no errors, SNFS audited", s)
		}
	}
	for _, pr := range []string{"NFS", "SNFS"} {
		pts := doc.Protocols[pr].Points
		if len(pts) != 2 || pts[0].Clients != 8 || pts[1].Clients != 48 {
			t.Fatalf("%s sweep points %+v, want 8 and 48 clients", pr, pts)
		}
		if pts[0].Slowdown != 1 || pts[0].Errors != 0 || pts[1].Ops != 48*scenarioSweepOps {
			t.Errorf("%s sweep %+v: base slowdown must be 1 with no errors, every op of the larger point counted", pr, pts)
		}
		if !strings.Contains(text, pr+": sustains ") {
			t.Errorf("text names no knee for %s:\n%s", pr, text)
		}
	}

	var journal bytes.Buffer
	serial := harness.Default()
	serial.AuditSink = &journal
	stext, ssummary := body(serial)
	if stext != text || !bytes.Equal(ssummary, summary) {
		t.Errorf("one world at a time printed\n%s\nacross cores printed\n%s", stext, text)
	}
	if n := strings.Count(journal.String(), "\n"); n == 0 || strings.Contains(journal.String(), `"type":"violation"`) {
		t.Errorf("shared journal holds %d records; want the audited smoke runs' events and no violation", n)
	}
}

// TestRunSelectsAndRefuses: -run takes registry names in any order and
// runs them in registry order; a name the registry lacks is an error, not
// a silent skip; without -o nothing is written.
func TestRunSelectsAndRefuses(t *testing.T) {
	pm := harness.Default()
	if err := run(new(bytes.Buffer), "", pm, []string{"table4.1", "wire"}); err == nil || !strings.Contains(err.Error(), `"wire"`) {
		t.Errorf("run of a deleted experiment returned %v, want it named", err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadDir(wd)
	var out bytes.Buffer
	if err := run(&out, "", pm, []string{" trace", "table4.1"}); err != nil {
		t.Fatal(err)
	}
	if a, b := strings.Index(out.String(), "Table 4-1"), strings.Index(out.String(), "Protocol timeline:"); a < 0 || b < a {
		t.Errorf("table4.1 at %d, trace at %d: want both, in registry order", a, b)
	}
	if after, _ := os.ReadDir(wd); len(after) != len(before) {
		t.Errorf("a run without -o left %d entries in %s, %d before", len(after), wd, len(before))
	}
}

// TestInstrumentedRun drives the command line the way the CI jobs this
// test replaced did: the sweeps, the RPC experiment and the traced Andrew
// run with spans, timelines and one shared audit journal. The journal
// holds events and no violation, the span breakdown accounts for the
// wall, the scale timeline carries the disk-busy rate the knee is read
// from, and the nested span trace is loadable.
func TestInstrumentedRun(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "audit", "audit.jsonl")
	var out bytes.Buffer
	err := cli([]string{"-run", "rpc,latency,scale,clusterscale", "-spans", "-timeline",
		"-audit-journal", journal, "-seed", "1", "-o", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	records, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 || bytes.Contains(records, []byte(`"type":"violation"`)) {
		t.Errorf("audit journal holds %d bytes; want events and no violation", len(records))
	}
	load := func(name string, v any) {
		t.Helper()
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	var spans struct {
		AccountedPct float64           `json:"accounted_pct"`
		SlowOps      []json.RawMessage `json:"slow_ops"`
	}
	load("spans-latency.json", &spans)
	if spans.AccountedPct < 95 || spans.AccountedPct > 101 || len(spans.SlowOps) == 0 {
		t.Errorf("latency breakdown accounts for %.1f%% of wall with %d slow ops, want ~100 and some", spans.AccountedPct, len(spans.SlowOps))
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	load("andrew-spans-trace.json", &chrome)
	if len(chrome.TraceEvents) == 0 {
		t.Error("nested span trace is empty")
	}
	var timeline struct {
		Series []struct {
			Name string `json:"name"`
		} `json:"series"`
	}
	load("timeline.json", &timeline)
	found := false
	for _, s := range timeline.Series {
		found = found || strings.Contains(s.Name, "disk_busy_seconds") && strings.HasSuffix(s.Name, ":rate")
	}
	if !found {
		t.Errorf("scale timeline has %d series, none a disk_busy_seconds rate", len(timeline.Series))
	}
	for _, name := range []string{"spans-scale.json", "spans-rpc.json", "spans-cluster.json", "timeline-nfs.json", "timeline-rpc.json", "timeline-cluster.json"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s was not written: %v", name, err)
		}
	}
	if !strings.Contains(out.String(), "critical-path breakdown") {
		t.Error("the text carries no span breakdown")
	}
}
