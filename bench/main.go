// Command bench is the repository's benchmark: five named workloads
// measured on two clocks. Host time is what the Go code costs (wall
// seconds, allocations, RPCs per second); virtual time is what the
// modelled 1989 hardware would take (elapsed seconds, RPC counts,
// latencies), read from the simulation's own counters. End-to-end
// metrics are measured with tracing off; -trace 1 repeats the workload
// with the span recorder and metrics registry armed and prints the
// per-layer ledger instead. Every layer is measured from outside,
// through its public functions and Stats accessors.
//
//	go run ./bench -workload andrew -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload all -repeat 2
//	go run ./bench -check runA runB
//
// The last line of standard output for each workload is one JSON object
// {"correct","attempted","failed","metrics"}; the full result document
// and the span file go under -out; a human table goes to standard
// error. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	out     string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: andrew, sort, fleet, fleet-overload, daemon, or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics with tracing off; 1 = per-layer ledger from a traced run")
	quick := fs.Bool("quick", false, "tiny sizes, for tests: numbers are not comparable with full runs")
	out := fs.String("out", ".bench_out", "directory for result documents and span files")
	timeout := fs.Duration("timeout", 120*time.Second, "watchdog: exit non-zero if one workload runs longer than this")
	check := fs.Bool("check", false, "compare two result sets (files or -out directories) given as arguments")
	repeat := fs.Int("repeat", 1, "run the selection this many times and check run 1 against each later run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -check needs two result files or directories")
			return 2
		}
		return checkPaths(os.Stderr, fs.Arg(0), fs.Arg(1))
	}

	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, out: *out}

	var first []*document
	status := 0
	for rep := 0; rep < *repeat; rep++ {
		var docs []*document
		for _, w := range selected {
			doc, err := runGuarded(w, opt, *timeout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if !doc.Correct {
				status = 1
			}
			docs = append(docs, doc)
			if err := doc.write(opt.out, rep); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			doc.renderTable(os.Stderr)
			fmt.Println(doc.contractLine())
		}
		if rep == 0 {
			first = docs
		} else if !checkSets(os.Stderr, first, docs) {
			status = 1
		}
	}
	return status
}

// runGuarded runs one workload under the watchdog. A workload that
// outlives the timeout cannot be unwound (its simulation goroutines are
// parked on channels), so the process exits non-zero instead of hanging.
func runGuarded(w workload, opt options, timeout time.Duration) (*document, error) {
	watchdog := time.AfterFunc(timeout, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded -timeout %s\n", w.name, timeout)
		os.Exit(3)
	})
	defer watchdog.Stop()
	return runWorkload(w, opt)
}

// document is the full result of one run: what the contract line
// summarises, plus quartiles, sample counts, clocks and the environment.
type document struct {
	Workload   string   `json:"workload"`
	Why        string   `json:"why"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Quick      bool     `json:"quick"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	Correct    bool     `json:"correct"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Notes      []string `json:"notes,omitempty"`
	Unmeasured []string `json:"unmeasured_layers,omitempty"`
	SpanFile   string   `json:"span_file,omitempty"`
	// UntracedWallS is the traced run's tracing-off wall_s: the base of
	// trace.overhead_frac and of the predicted shares in the table.
	UntracedWallS float64            `json:"untraced_wall_s,omitempty"`
	Metrics       map[string]reading `json:"metrics"`
	// order lists Metrics keys in declaration order, for the table.
	order []metricDef
}

// reading is one reported metric.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock"`
	// N, Q1 and Q3 describe the samples behind a median (N = 1 for a
	// count read once).
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Bound float64 `json:"bound,omitempty"`
}

func newDocument(w workload, opt options) *document {
	return &document{
		Workload:   w.name,
		Why:        w.why,
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Trace:      opt.trace,
		Quick:      opt.quick,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Correct:    true,
		Metrics:    map[string]reading{},
	}
}

// fail records a failed correctness check.
func (d *document) fail(format string, args ...any) {
	d.Correct = false
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

// contractLine renders the one-line summary the driver reads.
func (d *document) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{d.Correct, d.Attempted, d.Failed, map[string]value{}}
	for name, r := range d.Metrics {
		line.Metrics[name] = value{r.Value, r.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only NaN/Inf can fail, and finish() rejects those
	}
	return string(b)
}

// fileName is where write stores the document under the -out directory.
func (d *document) fileName(rep int) string {
	tr := 0
	if d.Trace {
		tr = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d-run%d.json", d.Workload, d.Seed, tr, rep+1)
}

func (d *document) write(dir string, rep int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, d.fileName(rep)), append(b, '\n'), 0o644)
}
