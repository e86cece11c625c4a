// Command snfs-bench regenerates the tables and figures of the paper's
// evaluation section (§5) in simulation, plus the micro-benchmarks,
// ablations, and extension experiments.
//
// Usage:
//
//	snfs-bench -run all
//	snfs-bench -run table5.1
//	snfs-bench -run table5.2,table5.3 -o results/
//	snfs-bench -run fig5.1
//	snfs-bench -run micro,writeshare,rfs,scale,ablation
//	snfs-bench -run clusterscale -shards 1,2,4 -csv -o results/
//	snfs-bench -run clustersmoke -audit -o results/
//	snfs-bench -run failover -o results/
//	snfs-bench -run scale,clusterscale,rpc,latency -spans -o results/
//	snfs-bench -run trace
//
// Absolute times are simulated; the shapes (who wins, by what factor,
// where the crossovers fall) are the reproduction target. See
// EXPERIMENTS.md for paper-vs-measured notes. With -o, each experiment's
// output is also written to <dir>/<name>.txt.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"spritelynfs/internal/harness"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/tsdb"
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/workload"
)

var (
	outDir     string
	chromePath string
	csvOut     bool
	shardsFlag string

	scenarioClientsFlag string
)

func main() {
	runFlag := flag.String("run", "all", "comma-separated experiments: table4.1 table5.1 table5.2 table5.2ss fig5.1 fig5.2 table5.3 table5.4 table5.5 table5.6 micro writeshare rfs probes ablation scale rpc clusterscale clustersmoke failover scenario latency trace all")
	seed := flag.Int64("seed", 1, "simulation random seed")
	auditFlag := flag.Bool("audit", false, "arm the protocol auditor on SNFS worlds; any invariant violation fails the experiment")
	auditJournal := flag.String("audit-journal", "", "write the audit journal (JSONL, one event or violation per line) to this path")
	traceCap := flag.Int("trace-cap", 0, "trace ring capacity for traced experiments (0 = 200000 events)")
	flag.StringVar(&outDir, "o", "", "also write each experiment's output to this directory")
	flag.StringVar(&chromePath, "chrome", "", "Chrome trace-event JSON output path for the latency experiment (default <o>/andrew-trace.json)")
	flag.BoolVar(&csvOut, "csv", false, "write scale/clusterscale measurement points as CSV under -o (default results/)")
	flag.StringVar(&shardsFlag, "shards", "1,2,4", "shard counts for the clusterscale experiment")
	flag.StringVar(&scenarioClientsFlag, "scenario-clients", "16,1000,2000,4000", "client populations for the scenario knee sweep")
	timelineFlag := flag.Bool("timeline", false, "sample metric timelines on the sim clock (500ms) during the scale, clusterscale, and rpc experiments; written as timeline*.json under -o (default results/)")
	spansFlag := flag.Bool("spans", false, "arm causal span tracing during the scale, clusterscale, rpc, and latency experiments; critical-path breakdowns are printed and written as spans*.json under -o (default results/)")
	flag.Parse()

	pm := harness.Default()
	pm.Seed = *seed
	pm.Audit = *auditFlag
	pm.TraceCapacity = *traceCap
	if *timelineFlag {
		pm.SampleInterval = 500 * sim.Millisecond
	}
	pm.Spans = *spansFlag
	var journal *os.File
	if *auditJournal != "" {
		pm.Audit = true
		if dir := filepath.Dir(*auditJournal); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fail("audit-journal", err)
			}
		}
		var err error
		journal, err = os.Create(*auditJournal)
		if err != nil {
			fail("audit-journal", err)
		}
		defer journal.Close()
		pm.AuditSink = journal
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*runFlag, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	ran := 0
	should := func(name string) bool {
		if all && name == "trace" {
			return false // trace is a demo, opt-in only
		}
		return all || want[name]
	}

	type experiment struct {
		name string
		run  func(w io.Writer) error
	}
	experiments := []experiment{
		{"table4.1", func(w io.Writer) error {
			harness.Table41().Render(w)
			return nil
		}},
		{"table5.1", func(w io.Writer) error {
			_, t, err := harness.Table51(pm)
			if err == nil {
				t.Render(w)
			}
			return err
		}},
		{"table5.2", func(w io.Writer) error {
			runs, t, err := harness.Table52(pm)
			if err == nil {
				t.Render(w)
				fmt.Fprintln(w)
				harness.LatencyTable(runs).Render(w)
			}
			return err
		}},
		{"table5.2ss", func(w io.Writer) error {
			_, t, err := harness.Table52SteadyState(pm)
			if err == nil {
				t.Render(w)
			}
			return err
		}},
		{"fig5.1", func(w io.Writer) error {
			f, err := harness.RunFigure(harness.NFS, pm)
			if err == nil {
				f.Render(w, "Figure 5-1: Server utilization and call rates, NFS")
			}
			return err
		}},
		{"fig5.2", func(w io.Writer) error {
			f, err := harness.RunFigure(harness.SNFS, pm)
			if err == nil {
				f.Render(w, "Figure 5-2: Server utilization and call rates, SNFS")
			}
			return err
		}},
		{"table5.3", func(w io.Writer) error {
			_, t, err := harness.Table53(pm)
			if err == nil {
				t.Render(w)
			}
			return err
		}},
		{"table5.4", func(w io.Writer) error {
			t, err := harness.Table54(pm)
			if err == nil {
				t.Render(w)
			}
			return err
		}},
		{"table5.5", func(w io.Writer) error {
			_, t, err := harness.Table55(pm)
			if err == nil {
				t.Render(w)
			}
			return err
		}},
		{"table5.6", func(w io.Writer) error {
			t, err := harness.Table56(pm)
			if err == nil {
				t.Render(w)
			}
			return err
		}},
		{"micro", func(w io.Writer) error {
			t, err := harness.MicroBenchmarks(pm)
			if err == nil {
				t.Render(w)
			}
			return err
		}},
		{"writeshare", func(w io.Writer) error {
			_, t, err := harness.WriteShareExperiment(pm)
			if err == nil {
				t.Render(w)
			}
			return err
		}},
		{"rfs", func(w io.Writer) error {
			t, err := harness.RFSExperiment(pm)
			if err == nil {
				t.Render(w)
			}
			return err
		}},
		{"scale", func(w io.Writer) error {
			out, t, err := harness.ScaleExperiment(pm, nil)
			if err != nil {
				return err
			}
			t.Render(w)
			fmt.Fprintln(w)
			for _, pr := range []harness.Proto{harness.NFS, harness.SNFS} {
				n := harness.SustainableClients(out[pr], scaleKnee)
				fmt.Fprintf(w, "%s: sustains %d active clients within %.2fx of single-client time\n",
					pr, n, scaleKnee)
			}
			spansDoc := map[string]*span.Summary{}
			for _, pr := range []harness.Proto{harness.NFS, harness.SNFS} {
				if s := lastSpans(out[pr]); s != nil {
					fmt.Fprintf(w, "\n%s, largest point (%d clients):\n", pr, s.Clients)
					s.Render(w)
					spansDoc[pr.String()] = s
				}
			}
			if len(spansDoc) > 0 {
				if err := writeOutput(w, "span breakdown", "spans-scale.json", asJSON(spansDoc)); err != nil {
					return err
				}
			}
			if tl := lastTimeline(out[harness.SNFS]); tl != nil {
				if err := writeOutput(w, "timeline", "timeline.json", tl.WriteJSON); err != nil {
					return err
				}
			}
			if tl := lastTimeline(out[harness.NFS]); tl != nil {
				if err := writeOutput(w, "timeline", "timeline-nfs.json", tl.WriteJSON); err != nil {
					return err
				}
			}
			if csvOut {
				if err := writeOutput(w, "\nCSV", "scale.csv", func(f io.Writer) error {
					if _, err := fmt.Fprintln(f, harness.ScaleCSVHeader); err != nil {
						return err
					}
					if err := harness.AppendScaleCSV(f, "NFS", out[harness.NFS]); err != nil {
						return err
					}
					return harness.AppendScaleCSV(f, "SNFS", out[harness.SNFS])
				}); err != nil {
					return err
				}
				return writeOutput(w, "\nCSV", "BENCH_scale.json", func(f io.Writer) error {
					return writeScaleJSON(f, out)
				})
			}
			return nil
		}},
		{"rpc", func(w io.Writer) error { return rpcExperiment(w, pm) }},
		{"wire", func(w io.Writer) error { return wireExperiment(w) }},
		{"clusterscale", func(w io.Writer) error { return clusterScaleExperiment(w, pm) }},
		{"clustersmoke", func(w io.Writer) error { return clusterSmoke(w, pm) }},
		{"failover", func(w io.Writer) error { return failoverExperiment(w, pm) }},
		{"scenario", func(w io.Writer) error { return scenarioExperiment(w, pm) }},
		{"ablation", func(w io.Writer) error {
			t, err := harness.Ablations(pm)
			if err == nil {
				t.Render(w)
			}
			return err
		}},
		{"probes", func(w io.Writer) error {
			t, err := harness.ProbeSweep(pm)
			if err == nil {
				t.Render(w)
			}
			return err
		}},
		{"latency", func(w io.Writer) error { return latencyExperiment(w, pm) }},
		{"trace", func(w io.Writer) error { return traceDemo(w, pm) }},
	}

	for _, ex := range experiments {
		if !should(ex.name) {
			continue
		}
		out := io.Writer(os.Stdout)
		var file *os.File
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				fail(ex.name, err)
			}
			var err error
			file, err = os.Create(filepath.Join(outDir, ex.name+".txt"))
			if err != nil {
				fail(ex.name, err)
			}
			out = io.MultiWriter(os.Stdout, file)
		}
		if err := ex.run(out); err != nil {
			fail(ex.name, err)
		}
		fmt.Fprintln(out)
		if file != nil {
			file.Close()
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "snfs-bench: no experiment matched %q\n", *runFlag)
		os.Exit(2)
	}
}

func fail(what string, err error) {
	fmt.Fprintf(os.Stderr, "snfs-bench: %s: %v\n", what, err)
	os.Exit(1)
}

// latencyExperiment runs one traced Andrew benchmark (SNFS, /tmp remote),
// prints the per-procedure latency percentiles next to the op counts, and
// writes the RPC serve timeline as Chrome trace-event JSON (load it in
// chrome://tracing or https://ui.perfetto.dev).
func latencyExperiment(w io.Writer, pm harness.Params) error {
	run, tr, err := harness.RunAndrewTraced(harness.SNFS, true, pm)
	if err != nil {
		return err
	}
	runs := []harness.AndrewRun{run}
	fmt.Fprintf(w, "Andrew benchmark, %s: %.1f simulated seconds, %d RPC calls\n\n",
		run.Label(), run.Result.Total.Seconds(), run.Ops.Total())
	harness.LatencyTable(runs).Render(w)

	path := chromePath
	if path == "" {
		path = "andrew-trace.json"
		if outDir != "" {
			path = filepath.Join(outDir, "andrew-trace.json")
		}
	}
	if err := writeFile(path, tr.WriteChrome); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nChrome trace written to %s (%d events recorded, %d dropped)\n",
		path, tr.Total(), tr.Dropped())
	if run.Spans != nil {
		fmt.Fprintln(w)
		run.Spans.Render(w)
		if err := writeOutput(w, "span breakdown", "spans-latency.json", asJSON(run.Spans)); err != nil {
			return err
		}
		// The captured trees also export as a nested Chrome trace: each
		// slow op becomes a process track with one row per tree depth.
		return writeOutput(w, "nested span trace", "andrew-spans-trace.json", func(f io.Writer) error {
			return trace.WriteChromeSpans(f, run.Spans.SlowOps)
		})
	}
	return nil
}

// parseCounts parses a comma-separated list of positive integers.
func parseCounts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no counts in %q", s)
	}
	return out, nil
}

// scaleKnee is the slowdown bound defining the "sustainable" client
// count of the scale sweeps (the knee of the load curve). The CI
// scale-regression job checks the knees in BENCH_scale.json against it.
const scaleKnee = 1.5

// scaleJSON is the machine-readable summary of the scale sweep
// (results/BENCH_scale.json), consumed by the CI scale-regression job.
type scaleJSON struct {
	Experiment  string                    `json:"experiment"`
	MaxSlowdown float64                   `json:"max_slowdown"`
	Protocols   map[string]scaleProtoJSON `json:"protocols"`
}

type scaleProtoJSON struct {
	// UnstableWrites reports whether the sweep armed the unstable
	// WRITE + COMMIT pipeline for this protocol (the NFS-side answer
	// to the disk-arm bottleneck; SNFS keeps its measured delayed
	// write-back configuration).
	UnstableWrites     bool             `json:"unstable_writes"`
	SustainableClients int              `json:"sustainable_clients"`
	Points             []scalePointJSON `json:"points"`
}

type scalePointJSON struct {
	Clients    int     `json:"clients"`
	ElapsedS   float64 `json:"elapsed_s"`
	Slowdown   float64 `json:"slowdown"`
	ServerCPU  float64 `json:"server_cpu"`
	ServerDisk float64 `json:"server_disk"`
	TotalRPCs  int64   `json:"total_rpcs"`
}

func writeScaleJSON(f io.Writer, out map[harness.Proto][]harness.ScalePoint) error {
	doc := scaleJSON{
		Experiment:  "scale",
		MaxSlowdown: scaleKnee,
		Protocols:   map[string]scaleProtoJSON{},
	}
	for _, pr := range []harness.Proto{harness.NFS, harness.SNFS} {
		pj := scaleProtoJSON{
			UnstableWrites:     pr == harness.NFS,
			SustainableClients: harness.SustainableClients(out[pr], scaleKnee),
		}
		for _, pt := range out[pr] {
			pj.Points = append(pj.Points, scalePointJSON{
				Clients:    pt.Clients,
				ElapsedS:   pt.Elapsed.Seconds(),
				Slowdown:   pt.Slowdown,
				ServerCPU:  pt.ServerCPU,
				ServerDisk: pt.ServerDisk,
				TotalRPCs:  pt.TotalRPCs,
			})
		}
		doc.Protocols[pr.String()] = pj
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// writeFile creates path (and its directory), fills it via fill, and
// closes it.
func writeFile(path string, fill func(f io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeOutput creates name under -o (default results/), fills it via
// fill, and notes "<what> written to <path>" on the experiment's output.
func writeOutput(w io.Writer, what, name string, fill func(f io.Writer) error) error {
	dir := outDir
	if dir == "" {
		dir = "results"
	}
	path := filepath.Join(dir, name)
	if err := writeFile(path, fill); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s written to %s\n", what, path)
	return nil
}

// asJSON fills a file with v as indented JSON.
func asJSON(v any) func(f io.Writer) error {
	return func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}

// rpcMinReduction is the acceptance floor for the attribute-piggybacking
// extensions: the armed Andrew run must cut NFS getattr+lookup traffic by
// at least this fraction. The CI rpc-regression job checks
// BENCH_rpc.json against it.
const rpcMinReduction = 0.30

// rpcJSON is the machine-readable summary of the RPC-count experiment
// (results/BENCH_rpc.json), consumed by the CI rpc-regression job.
type rpcJSON struct {
	Experiment   string                  `json:"experiment"`
	MinReduction float64                 `json:"min_reduction"`
	Protocols    map[string]rpcProtoJSON `json:"protocols"`
}

type rpcProtoJSON struct {
	Vintage rpcRunJSON `json:"vintage"`
	Armed   rpcRunJSON `json:"armed"`
	// Reduction is the fractional drop in attribute RPCs
	// (getattr + lookup + lookuppath) from vintage to armed.
	Reduction float64 `json:"attr_rpc_reduction"`
}

type rpcRunJSON struct {
	TotalRPCs    int64 `json:"total_rpcs"`
	Getattr      int64 `json:"getattr"`
	Lookup       int64 `json:"lookup"`
	LookupPath   int64 `json:"lookuppath"`
	ReaddirAttrs int64 `json:"readdirattrs"`
	AttrRPCs     int64 `json:"attr_rpcs"`
}

func rpcCounts(run harness.AndrewRun) rpcRunJSON {
	o := run.Ops
	j := rpcRunJSON{
		TotalRPCs:    o.Total(),
		Getattr:      o.Get("getattr"),
		Lookup:       o.Get("lookup"),
		LookupPath:   o.Get("lookuppath"),
		ReaddirAttrs: o.Get("readdirattrs"),
	}
	j.AttrRPCs = j.Getattr + j.Lookup + j.LookupPath
	return j
}

// rpcExperiment measures what the attribute-piggybacking and
// compound-lookup extensions save: the Andrew benchmark runs vintage and
// armed for each remote protocol and the per-procedure call counts are
// compared. The armed SNFS run carries the full protocol auditor, so the
// savings are certified consistency-preserving. Self-checking: the armed
// NFS run must cut attribute RPCs (getattr + lookup) by at least
// rpcMinReduction, and attribute traffic must not rise for either
// protocol.
func rpcExperiment(w io.Writer, pm harness.Params) error {
	doc := rpcJSON{
		Experiment:   "rpc",
		MinReduction: rpcMinReduction,
		Protocols:    map[string]rpcProtoJSON{},
	}
	fmt.Fprintln(w, "RPC-count experiment: Andrew benchmark, vintage vs armed")
	fmt.Fprintln(w, "(armed = post-op attribute piggybacking + READDIRPLUS-style readdir + compound lookup)")
	fmt.Fprintln(w)
	for _, pr := range []harness.Proto{harness.NFS, harness.SNFS} {
		vrun, err := harness.RunAndrew(pr, true, pm, false)
		if err != nil {
			return fmt.Errorf("%s vintage: %w", pr, err)
		}
		armedPM := pm
		armedPM.AttrPiggyback = true
		armedPM.LookupPath = true
		if pr == harness.SNFS {
			armedPM.Audit = true // certify the savings break nothing
		}
		arun, err := harness.RunAndrew(pr, true, armedPM, false)
		if err != nil {
			return fmt.Errorf("%s armed: %w", pr, err)
		}
		pj := rpcProtoJSON{Vintage: rpcCounts(vrun), Armed: rpcCounts(arun)}
		if pj.Vintage.AttrRPCs > 0 {
			pj.Reduction = 1 - float64(pj.Armed.AttrRPCs)/float64(pj.Vintage.AttrRPCs)
		}
		doc.Protocols[pr.String()] = pj
		fmt.Fprintf(w, "%-4s attr RPCs %5d -> %4d (%+.1f%%)   total %5d -> %5d\n",
			pr, pj.Vintage.AttrRPCs, pj.Armed.AttrRPCs, -100*pj.Reduction,
			pj.Vintage.TotalRPCs, pj.Armed.TotalRPCs)
		fmt.Fprintf(w, "     getattr %d -> %d, lookup %d -> %d (+%d lookuppath), readdirattrs %d\n",
			pj.Vintage.Getattr, pj.Armed.Getattr, pj.Vintage.Lookup, pj.Armed.Lookup,
			pj.Armed.LookupPath, pj.Armed.ReaddirAttrs)
		if pj.Reduction < 0 {
			return fmt.Errorf("%s: armed run RAISED attribute traffic (%d -> %d)",
				pr, pj.Vintage.AttrRPCs, pj.Armed.AttrRPCs)
		}
		if pr == harness.NFS && pj.Reduction < rpcMinReduction {
			return fmt.Errorf("NFS attribute-RPC reduction %.1f%% below the %.0f%% floor",
				100*pj.Reduction, 100*rpcMinReduction)
		}
		if pr == harness.SNFS && arun.Timeline != nil {
			if err := writeOutput(w, "timeline", "timeline-rpc.json", arun.Timeline.WriteJSON); err != nil {
				return err
			}
		}
		if pr == harness.SNFS && arun.Spans != nil {
			fmt.Fprintf(w, "\narmed %s run:\n", pr)
			arun.Spans.Render(w)
			if err := writeOutput(w, "span breakdown", "spans-rpc.json", asJSON(arun.Spans)); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "\narmed SNFS run audited: zero protocol violations\n")
	return writeOutput(w, "\nCSV", "BENCH_rpc.json", asJSON(doc))
}

// clusterScaleExperiment sweeps client counts across the -shards shard
// counts and verifies the central claim of the federation: the knee of
// the load curve (the sustainable active-client count) moves out
// monotonically as shards are added.
func clusterScaleExperiment(w io.Writer, pm harness.Params) error {
	shardCounts, err := parseCounts(shardsFlag)
	if err != nil {
		return fmt.Errorf("-shards: %w", err)
	}
	out, t, err := harness.ClusterScaleExperiment(pm, shardCounts, nil)
	if err != nil {
		return err
	}
	t.Render(w)
	fmt.Fprintln(w)
	const knee = 1.5
	prev := -1
	for _, m := range shardCounts {
		n := harness.SustainableClients(out[m], knee)
		fmt.Fprintf(w, "%d shard(s): sustains %d active clients within %.2fx of single-client time\n", m, n, knee)
		if prev >= 0 && n < prev {
			return fmt.Errorf("knee moved in: %d shards sustain %d clients, down from %d", m, n, prev)
		}
		prev = n
	}
	most := out[shardCounts[len(shardCounts)-1]]
	if tl := lastTimeline(most); tl != nil {
		if err := writeOutput(w, "timeline", "timeline-cluster.json", tl.WriteJSON); err != nil {
			return err
		}
	}
	if s := lastSpans(most); s != nil {
		fmt.Fprintf(w, "\n%d shards, largest point (%d clients):\n", shardCounts[len(shardCounts)-1], s.Clients)
		s.Render(w)
		if err := writeOutput(w, "span breakdown", "spans-cluster.json", asJSON(s)); err != nil {
			return err
		}
	}
	if csvOut {
		return writeOutput(w, "\nCSV", "cluster-scale.csv", func(f io.Writer) error {
			if _, err := fmt.Fprintln(f, harness.ScaleCSVHeader); err != nil {
				return err
			}
			for _, m := range shardCounts {
				if err := harness.AppendScaleCSV(f, "SNFS", out[m]); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return nil
}

// lastTimeline returns the sampled timeline of the largest-client-count
// point of a sweep, nil when sampling was off (-timeline unset).
func lastTimeline(pts []harness.ScalePoint) *tsdb.Timeline {
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].Timeline != nil {
			return pts[i].Timeline
		}
	}
	return nil
}

// lastSpans returns the span summary of the largest-client-count point
// of a sweep, nil when span tracing was off (-spans unset).
func lastSpans(pts []harness.ScalePoint) *span.Summary {
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].Spans != nil {
			return pts[i].Spans
		}
	}
	return nil
}

// clusterSmoke is the CI gate for the federation: an audited 3-shard run
// with a mid-workload rebalance, failing on any audit violation, on a
// redirect loop, or if the rebalance converges without a single NOTHOME
// redirect being exercised. With -o it writes the per-shard audit
// journals and the final shard map.
func clusterSmoke(w io.Writer, pm harness.Params) error {
	const nshards = 3
	pm.Audit = true
	sinks := make([]*os.File, nshards)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		for i := range sinks {
			f, err := os.Create(filepath.Join(outDir, fmt.Sprintf("cluster-shard%d.jsonl", i)))
			if err != nil {
				return err
			}
			defer f.Close()
			sinks[i] = f
		}
		pm.AuditSinkFor = func(shard int) io.Writer {
			if shard < len(sinks) && sinks[shard] != nil {
				return sinks[shard]
			}
			return nil
		}
	}

	dirs := []string{"/u00", "/u01", "/u02"}
	cw, err := harness.BuildCluster(nshards, map[string]uint32{
		dirs[0]: 0, dirs[1]: 1, dirs[2]: 2,
	}, pm)
	if err != nil {
		return err
	}
	namespaces := make([]*vfs.Namespace, len(dirs))
	for i := range dirs {
		_, namespaces[i] = cw.AddRouter(simnet.Addr(fmt.Sprintf("client%d", i)))
	}

	work := func(p *sim.Proc, ns *vfs.Namespace, dir, phase string) error {
		for j := 0; j < 4; j++ {
			path := fmt.Sprintf("%s/%s%d.dat", dir, phase, j)
			if err := ns.WriteFile(p, path, 24*1024, pm.TransferSize); err != nil {
				return err
			}
			if _, err := ns.ReadFile(p, path, pm.TransferSize); err != nil {
				return err
			}
		}
		return nil
	}
	phase := func(p *sim.Proc, name string) error {
		return cw.RunEach(p, len(dirs), "smoke-"+name+"-", func(cp *sim.Proc, i int) error {
			return work(cp, namespaces[i], dirs[i], name)
		})
	}
	err = cw.Run(func(p *sim.Proc) error {
		for i, dir := range dirs {
			if err := namespaces[i].Mkdir(p, dir, 0o755); err != nil {
				return err
			}
		}
		if err := phase(p, "pre"); err != nil {
			return err
		}
		// Move client 0's subtree under every router's feet: the stale
		// maps must converge through NOTHOME redirects, and the dirty
		// delayed writes quiesced by the move must survive it.
		if err := cw.Cluster.Rebalance(p, dirs[0], 1); err != nil {
			return err
		}
		if err := phase(p, "post"); err != nil {
			return err
		}
		if _, err := namespaces[2].ReadFile(p, dirs[0]+"/pre0.dat", pm.TransferSize); err != nil {
			return fmt.Errorf("pre-rebalance data after migration: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if cw.Redirects() < 1 {
		return fmt.Errorf("rebalance exercised no NOTHOME redirects")
	}
	m := cw.Cluster.Map()
	fmt.Fprintf(w, "cluster smoke: %d shards, map converged at v%d, %d redirects healed, audit clean\n",
		nshards, m.Version, cw.Redirects())
	for _, sh := range cw.Cluster.Shards() {
		fmt.Fprintf(w, "  shard %d: %d RPCs served, %d state-table entries\n",
			sh.ID, sh.Base.Ops().Total(), sh.SNFS.Table().Len())
	}
	if outDir != "" {
		blob, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, "shardmap.json")
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "shard map written to %s\n", path)
	}
	return nil
}

// failoverHealBound is the acceptance ceiling on the heal time of the
// kill-primary failover run: crash to the first client RPC served by the
// promoted backup must fit inside this many simulated seconds. The CI
// failover job checks BENCH_failover.json against it.
const failoverHealBound = 30.0

// failoverJSON is the machine-readable summary of the failover
// experiment (results/BENCH_failover.json), consumed by the CI failover
// job.
type failoverJSON struct {
	Experiment   string  `json:"experiment"`
	Clients      int     `json:"clients"`
	Shards       int     `json:"shards"`
	KillShard    int     `json:"kill_shard"`
	KillAtS      float64 `json:"kill_at_s"`
	BaselineS    float64 `json:"baseline_s"`
	ElapsedS     float64 `json:"elapsed_s"`
	PromotedView uint64  `json:"promoted_view"`
	ViewChanges  uint64  `json:"view_changes"`
	DetectS      float64 `json:"detect_s"`
	HealS        float64 `json:"heal_s"`
	HealBoundS   float64 `json:"heal_bound_s"`
	Redirects    int64   `json:"redirects"`
}

// failoverExperiment measures what replication buys over §2.4's
// crash-recovery story: an audited 3-shard federation runs one Andrew
// benchmark per client, the primary of shard 0 is killed mid-workload,
// and the run must complete with the backup promoted and every client
// healed through rerouting and map refetch — no reboot, no manual
// intervention. Reported against a no-kill baseline: the detection time
// (crash to promotion), the heal time (crash to the first client RPC
// served by the new primary), and the total slowdown. Self-checking:
// promotion must happen, the heal time must fit failoverHealBound, and
// any audit violation fails the run. With -o the viewservice transition
// log is written as view.log.
func failoverExperiment(w io.Writer, pm harness.Params) error {
	const (
		nclients = 3
		nshards  = 3
		kill     = 0
	)
	killAt := 30 * sim.Second
	pm.Audit = true // certify the takeover preserves consistency
	pm.Backups = true
	pm.ViewInterval = 100 * sim.Millisecond
	pm.ViewDeadPings = 5
	// Size the ring to hold the whole run (~11k events per shard), so the
	// promotion and heal records survive to the post-run dump.
	pm.FlightCapacity = 32768

	basePM := pm
	base, err := harness.RunClusterFailover(nclients, nshards, kill, "", 0, basePM)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}

	var viewLog strings.Builder
	pm.ViewLog = &viewLog
	pt, err := harness.RunClusterFailover(nclients, nshards, kill, "primary", killAt, pm)
	if err != nil {
		return fmt.Errorf("kill-primary: %w", err)
	}
	if pt.PromotedView < 2 {
		return fmt.Errorf("no promotion: shard %d still at view %d", kill, pt.PromotedView)
	}
	if pt.HealTime <= 0 {
		return fmt.Errorf("backup served no client RPC after the crash")
	}
	if pt.HealTime.Seconds() > failoverHealBound {
		return fmt.Errorf("heal time %.2fs exceeds the %.0fs bound",
			pt.HealTime.Seconds(), failoverHealBound)
	}

	fmt.Fprintf(w, "Failover experiment: %d shards x %d Andrew clients, kill shard %d primary at t=%.0fs (audited)\n\n",
		nshards, nclients, kill, killAt.Seconds())
	fmt.Fprintf(w, "baseline (no kill):  slowest client %8.1f s\n", base.Elapsed.Seconds())
	fmt.Fprintf(w, "kill-primary:        slowest client %8.1f s (+%.1f%%)\n",
		pt.Elapsed.Seconds(), 100*(pt.Elapsed.Seconds()/base.Elapsed.Seconds()-1))
	fmt.Fprintf(w, "detect (crash -> promotion):            %6.2f s\n", pt.DetectTime.Seconds())
	fmt.Fprintf(w, "heal   (crash -> first op on new primary): %.2f s\n", pt.HealTime.Seconds())
	fmt.Fprintf(w, "promoted under view %d after %d view change(s); %d NOTHOME redirects healed\n",
		pt.PromotedView, pt.ViewChanges, pt.Redirects)
	fmt.Fprintln(w, "audit clean: zero protocol violations across all shards")

	if outDir != "" {
		if err := writeOutput(w, "viewservice transition log", "view.log", func(f io.Writer) error {
			_, err := io.WriteString(f, viewLog.String())
			return err
		}); err != nil {
			return err
		}
		if pt.Flight != nil {
			if err := writeOutput(w, "killed shard's flight dump", "failover-flight.txt", func(f io.Writer) error {
				pt.Flight.WriteText(f, "failover")
				return nil
			}); err != nil {
				return err
			}
		}
	}
	doc := failoverJSON{
		Experiment:   "failover",
		Clients:      nclients,
		Shards:       nshards,
		KillShard:    kill,
		KillAtS:      killAt.Seconds(),
		BaselineS:    base.Elapsed.Seconds(),
		ElapsedS:     pt.Elapsed.Seconds(),
		PromotedView: pt.PromotedView,
		ViewChanges:  pt.ViewChanges,
		DetectS:      pt.DetectTime.Seconds(),
		HealS:        pt.HealTime.Seconds(),
		HealBoundS:   failoverHealBound,
		Redirects:    pt.Redirects,
	}
	return writeOutput(w, "\nCSV", "BENCH_failover.json", asJSON(doc))
}

// traceDemo runs the sequential write-sharing scenario with full tracing
// and prints the protocol timeline: the open, the CLOSED-DIRTY hit, the
// write-back callback, and the flush, in order.
func traceDemo(w io.Writer, pm harness.Params) error {
	world := harness.Build(harness.SNFS, true, pm)
	tr := world.EnableTrace(0)
	_, readerNS := world.AddSNFSClient("reader", pm.SNFS)
	err := world.Run(func(p *sim.Proc) error {
		if err := world.NS.WriteFile(p, "/data/shared.txt", 24*1024, 8192); err != nil {
			return err
		}
		return workload.ReadQuickly(p, readerNS, "/data/shared.txt", 8192)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Protocol timeline: writer creates and writes a file (delayed write-back),")
	fmt.Fprintln(w, "then a second host reads it, forcing the CLOSED-DIRTY write-back callback:")
	fmt.Fprintln(w)
	tr.Dump(w)
	fmt.Fprintf(w, "\n%d events total; states and callbacks only:\n\n", tr.Total())
	tr.Dump(w, trace.State, trace.Callback)
	return nil
}
