package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"spritelynfs/internal/localfs"
)

var quickOpt = options{seed: 1, seconds: 0.2, quick: true}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestMetricNamesAreDeclaredOnceAndWellFormed(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[def.Name] {
			t.Errorf("metric %q declared twice", def.Name)
		}
		seen[def.Name] = true
		if !nameRE.MatchString(def.Name) {
			t.Errorf("metric name %q is malformed", def.Name)
		}
		if !unitRE.MatchString(def.Unit) {
			t.Errorf("metric %q: unit %q is malformed", def.Name, def.Unit)
		}
		if def.Better != "lower" && def.Better != "higher" {
			t.Errorf("metric %q: better = %q", def.Name, def.Better)
		}
		if def.Clock != clockHost && def.Clock != clockVirtual {
			t.Errorf("metric %q: clock = %q", def.Name, def.Clock)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	for _, def := range endToEnd {
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.name)
		}
	}
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONAgreesWithTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q (or their whys differ)", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end_to_end[%d] = %+v, program declares %s %s %s %v", i, got, def.Name, def.Unit, def.Better, def.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	for i, def := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per_layer[%d] = %+v, program declares %s %s %s", i, got, def.Name, def.Unit, def.Better)
		}
	}
}

// virtualOf runs one quick iteration of workload name and returns its
// virtual results.
func virtualOf(t *testing.T, name string, seed int64) map[string]float64 {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	opt := quickOpt
	opt.seed = seed
	u, err := w.prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	it, err := u.iterate(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(it.violations) > 0 || it.failed > 0 || it.attempted < 1 {
		t.Fatalf("%s: violations %v, %d failed of %d", name, it.violations, it.failed, it.attempted)
	}
	return it.virtual
}

func TestSameSeedGivesIdenticalVirtualResults(t *testing.T) {
	for _, name := range []string{"andrew", "sort", "fleet", "fleet-overload"} {
		a, b := virtualOf(t, name, 7), virtualOf(t, name, 7)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave %v then %v", name, a, b)
		}
	}
}

func TestSeedChangesTheInputs(t *testing.T) {
	for _, name := range []string{"andrew", "sort", "fleet"} {
		a, b := virtualOf(t, name, 1), virtualOf(t, name, 2)
		if name == "sort" {
			// -quick sorts the smallest table size whatever the seed.
			continue
		}
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same virtual results %v", name, a)
		}
	}
}

func TestDaemonLeavesNothingRunning(t *testing.T) {
	d, err := startDaemon(false, func(*localfs.Store) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	addr := d.ln.Addr().String()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("daemon not accepting before shutdown: %v", err)
	}
	c.Close()
	d.shutdown()
	select {
	case <-d.running:
	default:
		t.Error("RunRealtime still running after shutdown")
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("port %s still accepts connections after shutdown", addr)
	}

	// The workload itself fails its iteration if the port still accepts.
	w, _ := findWorkload("daemon")
	u, err := w.prepare(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	it, err := u.iterate(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if it.failed != 0 || it.attempted < 8 {
		t.Errorf("daemon iteration: %d failed of %d", it.failed, it.attempted)
	}
}

// contractKeys decodes a contract line and returns its metric names.
func contractKeys(t *testing.T, line string) map[string]bool {
	t.Helper()
	var got struct {
		Correct   *bool  `json:"correct"`
		Attempted *int64 `json:"attempted"`
		Failed    *int64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  *string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("contract line: %v\n%s", err, line)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
		t.Fatalf("contract line: %s", line)
	}
	keys := map[string]bool{}
	for name, m := range got.Metrics {
		if m.Value == nil || m.Unit == nil {
			t.Errorf("metric %s lacks value or unit", name)
		}
		keys[name] = true
	}
	return keys
}

func TestRunsPrintExactlyTheDeclaredMetrics(t *testing.T) {
	w, _ := findWorkload("andrew")
	opt := quickOpt
	opt.out = t.TempDir()
	doc, err := runWorkload(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	keys := contractKeys(t, doc.contractLine())
	for _, def := range endToEnd {
		if !keys[def.Name] {
			t.Errorf("end-to-end run lacks %s", def.Name)
		}
		if doc.Metrics[def.Name].Value == 0 {
			t.Errorf("%s is 0", def.Name)
		}
	}
	if len(keys) != len(endToEnd) {
		t.Errorf("end-to-end run printed %d metrics, want %d", len(keys), len(endToEnd))
	}

	opt.trace = true
	doc, err = runWorkload(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Correct {
		t.Errorf("traced run incorrect: %v", doc.Notes)
	}
	keys = contractKeys(t, doc.contractLine())
	for _, def := range perLayer {
		if !keys[def.Name] {
			t.Errorf("traced run lacks %s", def.Name)
		}
	}
	if len(keys) != len(perLayer) {
		t.Errorf("traced run printed %d metrics, want %d", len(keys), len(perLayer))
	}
	for _, name := range []string{"sim_elapsed_s_snfs", "sim_rpcs_nfs", "rpc.calls.lookup_snfs", "server.cpu_s_nfs", "xdr.encode_write8k.ns_op", "rpc.simcall_null_queue.allocs_op"} {
		if doc.Metrics[name].Value == 0 {
			t.Errorf("traced andrew run: %s is 0", name)
		}
	}
	if _, err := os.Stat(doc.SpanFile); err != nil {
		t.Errorf("span file: %v", err)
	}
	if err := doc.write(opt.out, 0); err != nil {
		t.Fatal(err)
	}
	set, err := loadSet(opt.out)
	if err != nil || len(set) != 1 {
		t.Fatalf("loadSet: %d documents, %v", len(set), err)
	}
	var report bytes.Buffer
	if !checkSets(&report, set, []*document{doc}) {
		t.Errorf("a run does not pass -check against itself:\n%s", report.String())
	}
}

func TestCheckVerdicts(t *testing.T) {
	virtual := metricDef{Name: "sim_rpcs_nfs", Clock: clockVirtual, Better: "lower"}
	lower := metricDef{Name: "lower", Clock: clockHost, Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "higher", Clock: clockHost, Better: "higher", Bound: 0.10}
	ungated := metricDef{Name: "sim.event.ns_op", Clock: clockHost, Better: "lower"}
	steady := func(v float64) reading { return reading{Value: v, N: 5, Q1: v * 0.99, Q3: v * 1.01} }
	for _, c := range []struct {
		def  metricDef
		a, b reading
		want string
	}{
		{virtual, steady(100), steady(100), verdictSame},
		{virtual, steady(100), steady(101), verdictDiffers},
		{lower, steady(1.0), steady(1.09), verdictOK},
		{lower, steady(1.0), steady(1.11), verdictWorse},
		{lower, steady(1.0), steady(0.5), verdictOK},
		{higher, steady(1000), steady(880), verdictWorse},
		{higher, steady(1000), steady(1500), verdictOK},
		{lower, steady(1.0), reading{Value: 1.0, N: 5, Q1: 0.9, Q3: 1.1}, verdictUnresolved},
		{ungated, steady(7), steady(70), verdictOK},
	} {
		if got, _ := compare(c.def, c.a, c.b); got != c.want {
			t.Errorf("compare(%s, %v -> %v) = %s, want %s", c.def.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
