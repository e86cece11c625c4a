// Command snfs-bench regenerates the tables and figures of the paper's
// evaluation section (§5) in simulation, plus the micro-benchmarks,
// ablations, and extension experiments.
//
// Usage:
//
//	snfs-bench -run all -o results
//	snfs-bench -run table5.1
//	snfs-bench -run table5.2,table5.3 -o out/
//	snfs-bench -run micro,writeshare,rfs,scale,ablation
//	snfs-bench -run clustersmoke,failover -audit -o out/
//	snfs-bench -run scale,clusterscale,rpc,latency -spans -timeline -o out/
//
// Absolute times are simulated; the shapes (who wins, by what factor,
// where the crossovers fall) are the reproduction target. See
// EXPERIMENTS.md for paper-vs-measured notes. Every experiment prints its
// text; with -o it is also written to <dir>/<name>.txt, beside the
// experiment's side files (CSV, BENCH_*.json, journals, traces). Nothing
// an experiment writes names the directory, so every file is the same
// bytes wherever it lands. Independent experiments, and the independent
// worlds inside a sweep, run on every core (harness.Parallel); the text
// still comes out in registry order.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"spritelynfs/internal/harness"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/stats"
)

// env is what an experiment runs in.
type env struct {
	// pm is the calibrated parameter set with the command line applied.
	pm harness.Params
	// w takes the experiment's text.
	w io.Writer
	// dir is -o; empty means the side files are not written.
	dir string
}

// create writes the side file name under -o via fill, and says so on
// stderr.
func (e *env) create(name string, fill func(f io.Writer) error) error {
	if e.dir == "" {
		return nil
	}
	path := filepath.Join(e.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "snfs-bench: wrote %s\n", path)
	return f.Close()
}

// experiment is one registry entry: a name for -run and <name>.txt, and
// the body.
type experiment struct {
	name string
	run  func(*env) error
}

// experiments is the registry, in the order -run all prints them.
var experiments = []experiment{
	{"table4.1", func(e *env) error {
		harness.Table41().Render(e.w)
		return nil
	}},
	{"table5.1", table(second(harness.Table51))},
	{"table5.2", func(e *env) error {
		runs, t, err := harness.Table52(e.pm)
		if err == nil {
			t.Render(e.w)
			fmt.Fprintln(e.w)
			harness.LatencyTable(runs).Render(e.w)
		}
		return err
	}},
	{"table5.2ss", table(second(harness.Table52SteadyState))},
	{"fig5.1", figure(harness.NFS, "Figure 5-1: Server utilization and call rates, NFS")},
	{"fig5.2", figure(harness.SNFS, "Figure 5-2: Server utilization and call rates, SNFS")},
	{"table5.3", table(second(harness.Table53))},
	{"table5.4", table(harness.Table54)},
	{"table5.5", table(second(harness.Table55))},
	{"table5.6", table(harness.Table56)},
	{"micro", table(harness.MicroBenchmarks)},
	{"writeshare", table(second(harness.WriteShareExperiment))},
	{"rfs", table(harness.RFSExperiment)},
	{"scale", scaleExperiment},
	{"rpc", rpcExperiment},
	{"clusterscale", clusterScaleExperiment},
	{"clustersmoke", clusterSmoke},
	{"failover", failoverExperiment},
	{"scenario", func(e *env) error { return scenarioExperiment(e, scenarioClients) }},
	{"ablation", table(harness.Ablations)},
	{"probes", table(harness.ProbeSweep)},
	{"latency", latencyExperiment},
	{"trace", traceDemo},
}

// table is the experiment that renders the one table f produces.
func table(f func(harness.Params) (*stats.Table, error)) func(*env) error {
	return func(e *env) error {
		t, err := f(e.pm)
		if err == nil {
			t.Render(e.w)
		}
		return err
	}
}

// second drops the raw measurements a runner returns beside its table.
func second[R any](f func(harness.Params) (R, *stats.Table, error)) func(harness.Params) (*stats.Table, error) {
	return func(pm harness.Params) (*stats.Table, error) {
		_, t, err := f(pm)
		return t, err
	}
}

func figure(pr harness.Proto, title string) func(*env) error {
	return func(e *env) error {
		f, err := harness.RunFigure(pr, e.pm)
		if err == nil {
			f.Render(e.w, title)
		}
		return err
	}
}

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "snfs-bench: %v\n", err)
		os.Exit(1)
	}
}

// cli is the command: args applied to the calibrated parameters, then run.
func cli(args []string, out io.Writer) error {
	var names []string
	for _, ex := range experiments {
		names = append(names, ex.name)
	}
	fs := flag.NewFlagSet("snfs-bench", flag.ExitOnError)
	runFlag := fs.String("run", "all", "comma-separated experiments: "+strings.Join(names, " ")+" all")
	seed := fs.Int64("seed", 1, "simulation random seed")
	auditFlag := fs.Bool("audit", false, "arm the protocol auditor on SNFS worlds; any invariant violation fails the experiment")
	auditJournal := fs.String("audit-journal", "", "write the audit journal (JSONL, one event or violation per line) to this path; audited worlds then run one at a time")
	outDir := fs.String("o", "", "also write each experiment's text and its side files (CSV, BENCH_*.json, journals, traces) to this directory")
	timelineFlag := fs.Bool("timeline", false, "sample metric timelines on the sim clock (500ms) during the scale, clusterscale, and rpc experiments; written as timeline*.json under -o")
	spansFlag := fs.Bool("spans", false, "arm causal span tracing during the scale, clusterscale, rpc, and latency experiments; critical-path breakdowns are printed and written as spans*.json under -o")
	fs.Parse(args)

	pm := harness.Default()
	pm.Seed = *seed
	pm.Audit = *auditFlag
	if *timelineFlag {
		pm.SampleInterval = 500 * sim.Millisecond
	}
	pm.Spans = *spansFlag
	if *auditJournal != "" {
		pm.Audit = true
		if err := os.MkdirAll(filepath.Dir(*auditJournal), 0o755); err != nil {
			return err
		}
		journal, err := os.Create(*auditJournal)
		if err != nil {
			return err
		}
		defer journal.Close()
		pm.AuditSink = journal
	}
	return run(out, *outDir, pm, strings.Split(*runFlag, ","))
}

// run executes the named experiments ("all" = the whole registry) under
// pm, across cores, and writes each one's text to out in registry order as
// soon as it and everything before it is done — and, with dir set, to
// <dir>/<name>.txt beside the experiment's side files.
func run(out io.Writer, dir string, pm harness.Params, names []string) error {
	want := map[string]bool{}
	for _, name := range names {
		want[strings.TrimSpace(name)] = true
	}
	var todo []experiment
	for _, ex := range experiments {
		if want["all"] || want[ex.name] {
			todo = append(todo, ex)
		}
		delete(want, ex.name)
	}
	delete(want, "all")
	for name := range want {
		return fmt.Errorf("no experiment named %q", name)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	var mu sync.Mutex
	texts := make([]*bytes.Buffer, len(todo))
	printed := 0
	return pm.Each(len(todo), func(i int) error {
		text := new(bytes.Buffer)
		e := &env{pm: pm, w: text, dir: dir}
		if err := todo[i].run(e); err != nil {
			return fmt.Errorf("%s: %w", todo[i].name, err)
		}
		fmt.Fprintln(text)
		if err := e.create(todo[i].name+".txt", asBytes(text.Bytes())); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for texts[i] = text; printed < len(texts) && texts[printed] != nil; printed++ {
			out.Write(texts[printed].Bytes())
		}
		return nil
	})
}
