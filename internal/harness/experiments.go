package harness

import (
	"fmt"
	"io"
	"math"
	"strings"

	"spritelynfs/internal/cache"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/span"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/tsdb"
	"spritelynfs/internal/workload"
)

// AndrewRun is one Andrew benchmark execution with its measurements.
type AndrewRun struct {
	Proto     Proto
	TmpRemote bool
	Result    workload.AndrewResult
	Ops       *stats.Ops
	// ServerOps and ServerCPU are the server's side of the timed phases:
	// the calls it served and its CPU busy time (empty for Local).
	ServerOps *stats.Ops
	ServerCPU sim.Duration
	Start     sim.Time // when the timed phases began
	// Metrics holds the world's registry, enabled at measurement start:
	// per-procedure RPC latency histograms plus server and client
	// gauges frozen at end of run.
	Metrics *metrics.Registry
	// Timeline holds the sampled metric series over the timed phases
	// (nil unless Params.SampleInterval is set).
	Timeline *tsdb.Timeline
	// Spans holds the critical-path breakdown and slow-op capture over
	// the timed phases (nil unless Params.Spans is set).
	Spans *span.Summary
	// Trace holds the events of the timed phases (nil unless
	// AndrewOptions.Trace is set).
	Trace *trace.Tracer
	// RPC is the world's wire-image work over the whole run, setup
	// included (World.RPCWork).
	RPC rpc.Work
	// Cache is the measurement client's block cache over the whole run,
	// setup included (zero for Local).
	Cache cache.Stats
}

// Label names the configuration the way Table 5-1 does.
func (r AndrewRun) Label() string {
	if r.Proto == Local {
		return "local"
	}
	where := "local /tmp"
	if r.TmpRemote {
		where = "remote /tmp"
	}
	return fmt.Sprintf("%s, %s", r.Proto, where)
}

// AndrewOptions select what one Andrew run records beyond the op counts.
type AndrewOptions struct {
	// Trace attaches a tracer at measurement start, sized to hold the
	// whole timed run, so it can be exported (trace.WriteChrome).
	Trace bool
	// SteadyState mirrors the paper's measurement discipline: "we ran the
	// SNFS benchmarks several times in a row (rather than interleaving
	// them with NFS benchmark runs) so that NFS would not be charged for
	// writes incurred by SNFS". Two back-to-back trials run in one world
	// and the SECOND is measured — the update daemon's deferred
	// write-backs from trial one land inside trial two's window, exactly
	// as in the paper's steady state.
	SteadyState bool
}

// traceCapacity holds every event of a full-size traced Andrew run.
const traceCapacity = 200000

// RunAndrew executes the Andrew benchmark under one configuration.
func RunAndrew(pr Proto, tmpRemote bool, pm Params) (AndrewRun, error) {
	return RunAndrewOpt(pr, tmpRemote, pm, AndrewOptions{})
}

// RunAndrewOpt is RunAndrew with the recording spelled out: set up the
// tree, let the disks drain, take the op-count baseline, arm the
// instruments, run the timed phases, and diff.
func RunAndrewOpt(pr Proto, tmpRemote bool, pm Params, opt AndrewOptions) (AndrewRun, error) {
	w := Build(pr, tmpRemote, pm)
	run := AndrewRun{Proto: pr, TmpRemote: tmpRemote}
	err := w.Run(func(p *sim.Proc) error {
		if err := workload.SetupAndrew(p, w.NS, pm.Andrew); err != nil {
			return err
		}
		// Let setup's delayed writes drain so the disks start the
		// timed phases idle (the paper likewise ran trials back to
		// back, charging each protocol only its own traffic).
		p.Sleep(40 * sim.Second)
		cfg := pm.Andrew
		if opt.SteadyState {
			// Trial 1 (warm-up; its deferred writes will bill trial 2),
			// then re-point the tree names so trial 2 rebuilds from scratch.
			if _, err := workload.RunAndrew(p, w.NS, cfg); err != nil {
				return err
			}
			cfg.DstDir += "2"
		}
		base, srvBase, busy := w.ClientOps().Clone(), w.serverOps().Clone(), w.serverBusy()
		if opt.Trace {
			run.Trace = w.EnableTrace(traceCapacity)
		}
		run.Metrics = w.EnableMetrics()
		if pm.SampleInterval > 0 {
			run.Timeline = w.StartSampler(run.Metrics, pm.SampleInterval).Timeline()
		}
		run.Start = p.Now()
		res, err := workload.RunAndrew(p, w.NS, cfg)
		if err != nil {
			return err
		}
		run.Result = res
		run.Ops = w.ClientOps().Diff(base)
		run.ServerOps = w.serverOps().Diff(srvBase)
		run.ServerCPU = w.serverBusy() - busy
		return nil
	})
	run.Spans = w.spanSummary(0, 1)
	run.RPC = w.RPCWork()
	run.Cache = w.ClientCacheStats()
	return run, err
}

// andrewConfig is one column of Tables 5-1/5-2.
type andrewConfig struct {
	pr  Proto
	tmp bool
}

// remoteConfigs are Table 5-2's four columns.
var remoteConfigs = []andrewConfig{{NFS, false}, {SNFS, false}, {NFS, true}, {SNFS, true}}

// andrewRuns runs the benchmark once per configuration.
func andrewRuns(configs []andrewConfig, pm Params, opt AndrewOptions) ([]AndrewRun, error) {
	var runs []AndrewRun
	for _, c := range configs {
		r, err := RunAndrewOpt(c.pr, c.tmp, pm, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Label(), err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// Table51 regenerates Table 5-1: Andrew elapsed times for the five
// configurations.
func Table51(pm Params) ([]AndrewRun, *stats.Table, error) {
	runs, err := andrewRuns([]andrewConfig{{Local, false}, {NFS, false}, {NFS, true}, {SNFS, false}, {SNFS, true}},
		pm, AndrewOptions{})
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Table 5-1: Andrew benchmark elapsed time (simulated seconds)",
		append([]string{"Phase"}, labels(runs)...)...)
	for i, name := range workload.AndrewPhases {
		row := []string{name}
		for _, r := range runs {
			row = append(row, fmt.Sprintf("%.1f", r.Result.Phase[i].Seconds()))
		}
		t.AddRow(row...)
	}
	row := []string{"Total"}
	for _, r := range runs {
		row = append(row, fmt.Sprintf("%.1f", r.Result.Total.Seconds()))
	}
	t.AddRow(row...)
	return runs, t, nil
}

func labels(runs []AndrewRun) []string {
	out := make([]string, len(runs))
	for i, r := range runs {
		out[i] = r.Label()
	}
	return out
}

// table52Ops is the operation breakdown the paper reports.
var table52Ops = []string{"lookup", "getattr", "open", "close", "read", "write", "create", "remove", "setattr", "mkdir", "readdir", "rename", "statfs"}

// Table52 regenerates Table 5-2: RPC call counts for the Andrew
// benchmark under the four remote configurations.
func Table52(pm Params) ([]AndrewRun, *stats.Table, error) {
	return opCountTable("Table 5-2: RPC calls for Andrew benchmark", pm, AndrewOptions{})
}

// Table52SteadyState is Table 5-2 with the paper's trial discipline.
func Table52SteadyState(pm Params) ([]AndrewRun, *stats.Table, error) {
	return opCountTable("Table 5-2 (steady state: second of two back-to-back trials)",
		pm, AndrewOptions{SteadyState: true})
}

// opCountTable runs the four remote configurations and tabulates their
// RPC calls by procedure (those any run made), in total, and for data.
func opCountTable(title string, pm Params, opt AndrewOptions) ([]AndrewRun, *stats.Table, error) {
	runs, err := andrewRuns(remoteConfigs, pm, opt)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable(title, append([]string{"Operation"}, labels(runs)...)...)
	addRow := func(name string, count func(*stats.Ops) int64, always bool) {
		row := []string{name}
		for _, r := range runs {
			n := count(r.Ops)
			always = always || n > 0
			row = append(row, fmt.Sprintf("%d", n))
		}
		if always {
			t.AddRow(row...)
		}
	}
	for _, op := range table52Ops {
		addRow(op, func(o *stats.Ops) int64 { return o.Get(op) }, false)
	}
	addRow("Total", (*stats.Ops).Total, true)
	addRow("Data transfer (read+write)", func(o *stats.Ops) int64 { return o.Sum("read", "write") }, true)
	return runs, t, nil
}

// LatencyTable renders per-procedure client RPC latency percentiles for a
// set of runs, read out of each run's metrics registry. Procedures with no
// samples in any run are omitted; cells without samples show "-".
func LatencyTable(runs []AndrewRun) *stats.Table {
	t := stats.NewTable("Per-procedure client RPC latency, p50/p95/p99 (ms)",
		append([]string{"Operation"}, labels(runs)...)...)
	hist := func(r AndrewRun, op string) *metrics.Histogram {
		if r.Metrics == nil {
			return nil
		}
		return r.Metrics.FindHistogram(
			metrics.Label("snfs_rpc_call_latency_us", "host", "client", "proc", op))
	}
	for _, op := range table52Ops {
		any := false
		for _, r := range runs {
			if h := hist(r, op); h.Count() > 0 {
				any = true
			}
		}
		if !any {
			continue
		}
		row := []string{op}
		for _, r := range runs {
			h := hist(r, op)
			if h.Count() == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f/%.1f/%.1f",
				float64(h.Quantile(0.50))/1000,
				float64(h.Quantile(0.95))/1000,
				float64(h.Quantile(0.99))/1000))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure is the data behind Figures 5-1/5-2: per-bucket server CPU
// utilization and call rates during the Andrew run with /tmp remote.
type Figure struct {
	Run     AndrewRun
	Seconds []float64 // bucket start times, from benchmark start
	CPU     []float64 // utilization 0..1
	Calls   []float64 // calls/sec
	Reads   []float64
	Writes  []float64
}

// figBucket is the paper's bucket for Figures 5-1/5-2.
const figBucket = 5 * sim.Second

// RunFigure produces Figure 5-1 (NFS) or 5-2 (SNFS), a view of the
// timeline of an Andrew run sampled at figBucket: one row per window, from
// the one holding the run's start to the last in which the server counted
// a call. Every row is divided by the whole bucket, the first and last
// (partial) windows' too.
func RunFigure(pr Proto, pm Params) (Figure, error) {
	pm.SampleInterval = figBucket
	run, err := RunAndrew(pr, true, pm)
	if err != nil {
		return Figure{}, err
	}
	f := Figure{Run: run}
	const calls = `snfs_server_calls_total{host="server",`
	var cpu, total, reads, writes []float64
	for _, s := range run.Timeline.Dump().Series {
		switch {
		case s.Name == `snfs_server_cpu_busy_seconds{host="server"}:rate`:
			cpu = windowed(s.Points, run.Start, float64(sim.Second))
		case strings.HasPrefix(s.Name, calls) && strings.HasSuffix(s.Name, ":rate"):
			n := windowed(s.Points, run.Start, 1)
			if total == nil {
				total = make([]float64, len(n))
			}
			for i, c := range n {
				total[i] += c
			}
			switch s.Name {
			case calls + `proc="read"}:rate`:
				reads = n
			case calls + `proc="write"}:rate`:
				writes = n
			}
		}
	}
	rows := len(total)
	for rows > 0 && total[rows-1] == 0 {
		rows--
	}
	if rows == 0 {
		return f, fmt.Errorf("no calls sampled")
	}
	bucket := figBucket.Seconds()
	for i := 0; i < rows; i++ {
		f.Seconds = append(f.Seconds, float64(i)*bucket)
		f.CPU = append(f.CPU, cpu[i]/bucket)
		f.Calls = append(f.Calls, total[i]/bucket)
		f.Reads = append(f.Reads, reads[i]/bucket)
		f.Writes = append(f.Writes, writes[i]/bucket)
	}
	return f, nil
}

// windowed is what each window of a rate series held: each point's rate
// times the width of the window it closes (the first opens at from),
// rounded to the whole units the server counts in, perSecond of them to
// the second — calls, or microseconds of busy time.
func windowed(pts []tsdb.Point, from sim.Time, perSecond float64) []float64 {
	out := make([]float64, len(pts))
	for i, pt := range pts {
		out[i] = math.Round(pt.V*pt.T.Sub(from).Seconds()*perSecond) / perSecond
		from = pt.T
	}
	return out
}

// Render prints the figure as CSV plus an ASCII strip chart.
func (f Figure) Render(w io.Writer, title string) {
	fmt.Fprintf(w, "%s (%s)\n", title, f.Run.Label())
	fmt.Fprintf(w, "time_s,cpu_util,calls_per_s,reads_per_s,writes_per_s\n")
	for i := range f.Seconds {
		fmt.Fprintf(w, "%.0f,%.3f,%.2f,%.2f,%.2f\n",
			f.Seconds[i], f.CPU[i], f.Calls[i], f.Reads[i], f.Writes[i])
	}
	stats.Chart(w, "shape (each row scaled to its own max):",
		fmt.Sprintf("0 .. %.0f seconds", f.Seconds[len(f.Seconds)-1]),
		map[string][]float64{
			"cpu":    f.CPU,
			"calls":  f.Calls,
			"reads":  f.Reads,
			"writes": f.Writes,
		}, []string{"cpu", "calls", "reads", "writes"})
	fmt.Fprintf(w, "correlation(cpu, total calls) = %.3f\n", stats.Correlation(f.CPU, f.Calls))
	fmt.Fprintf(w, "correlation(cpu, reads)       = %.3f\n", stats.Correlation(f.CPU, f.Reads))
	fmt.Fprintf(w, "correlation(cpu, writes)      = %.3f\n", stats.Correlation(f.CPU, f.Writes))
}

// SortRun is one sort benchmark execution.
type SortRun struct {
	Proto     Proto
	InputSize int
	Update    bool // update daemon enabled
	Result    workload.SortResult
	Ops       *stats.Ops
	// Cache is the client's block cache over the whole run, setup
	// included (zero for Local).
	Cache cache.Stats
}

// RunSort executes the sort benchmark: the whole namespace (input,
// output, and /usr/tmp) lives on the file system under test, as in §5.3.
func RunSort(pr Proto, inputSize int, update bool, pm Params) (SortRun, error) {
	if !update {
		pm.SNFS.UpdateInterval = 0
		pm.LocalSyncInterval = 0
	}
	w := Build(pr, true, pm)
	cfg := workload.SortConfig{
		InputPath:  "/data/input.dat",
		TmpDir:     "/usr/tmp",
		OutputPath: "/data/output.dat",
		InputSize:  inputSize,
		MemBuffer:  pm.SortMemBuffer,
		MergeOrder: pm.SortMergeOrder,
		CPUPerKB:   pm.SortCPUPerKB,
		ChunkSize:  pm.TransferSize,
	}
	run := SortRun{Proto: pr, InputSize: inputSize, Update: update}
	err := w.Run(func(p *sim.Proc) error {
		if err := workload.SetupSort(p, w.NS, cfg); err != nil {
			return err
		}
		base := w.ClientOps().Clone()
		res, err := workload.RunSort(p, w.NS, cfg)
		if err != nil {
			return err
		}
		run.Result = res
		run.Ops = w.ClientOps().Diff(base)
		return nil
	})
	run.Cache = w.ClientCacheStats()
	return run, err
}

// Table53 regenerates Table 5-3: sort elapsed times by input size and
// protocol.
func Table53(pm Params) (map[Proto][]SortRun, *stats.Table, error) {
	runs := map[Proto][]SortRun{}
	t := stats.NewTable("Table 5-3: Sort benchmark elapsed time (simulated seconds)",
		"Input", "Temp written", "local", "NFS", "SNFS")
	for _, size := range pm.SortSizes {
		var elapsed []string
		var temp int64
		for _, pr := range []Proto{Local, NFS, SNFS} {
			r, err := RunSort(pr, size, true, pm)
			if err != nil {
				return nil, nil, fmt.Errorf("sort %s %d: %w", pr, size, err)
			}
			runs[pr] = append(runs[pr], r)
			elapsed = append(elapsed, fmt.Sprintf("%.0f", r.Result.Elapsed.Seconds()))
			temp = r.Result.TempBytes
		}
		t.AddRow(fmt.Sprintf("%dk", size/1024), fmt.Sprintf("%dk", temp/1024),
			elapsed[0], elapsed[1], elapsed[2])
	}
	return runs, t, nil
}

// Table54 regenerates Table 5-4: RPC calls for the sort benchmark.
func Table54(pm Params) (*stats.Table, error) {
	t := stats.NewTable("Table 5-4: RPC calls for Sort benchmark",
		"Input", "Version", "reads", "writes", "others", "total")
	for _, size := range pm.SortSizes {
		for _, pr := range []Proto{NFS, SNFS} {
			r, err := RunSort(pr, size, true, pm)
			if err != nil {
				return nil, err
			}
			addOpsRow(t, fmt.Sprintf("%dk", size/1024), pr.String(), r.Ops)
		}
	}
	return t, nil
}

// addOpsRow adds a row of the sort RPC tables: two label cells, then the
// read, write, other and total call counts.
func addOpsRow(t *stats.Table, a, b string, ops *stats.Ops) {
	reads := ops.Get("read")
	writes := ops.Get("write")
	others := ops.Total() - reads - writes
	t.AddRow(a, b, fmt.Sprintf("%d", reads), fmt.Sprintf("%d", writes),
		fmt.Sprintf("%d", others), fmt.Sprintf("%d", ops.Total()))
}

// Table55 regenerates Table 5-5: sort elapsed times with the update
// daemon disabled (infinite write-delay).
func Table55(pm Params) (map[Proto][]SortRun, *stats.Table, error) {
	runs := map[Proto][]SortRun{}
	t := stats.NewTable("Table 5-5: Sort benchmark, infinite write-delay (simulated seconds)",
		"Input", "local", "NFS", "SNFS")
	for _, size := range pm.SortSizes {
		row := []string{fmt.Sprintf("%dk", size/1024)}
		for _, pr := range []Proto{Local, NFS, SNFS} {
			r, err := RunSort(pr, size, false, pm)
			if err != nil {
				return nil, nil, err
			}
			runs[pr] = append(runs[pr], r)
			row = append(row, fmt.Sprintf("%.0f", r.Result.Elapsed.Seconds()))
		}
		t.AddRow(row...)
	}
	return runs, t, nil
}

// Table56 regenerates Table 5-6: RPC calls for the largest sort with and
// without the update daemon.
func Table56(pm Params) (*stats.Table, error) {
	size := pm.SortSizes[len(pm.SortSizes)-1]
	t := stats.NewTable(fmt.Sprintf("Table 5-6: RPC calls for Sort benchmark, %dk input", size/1024),
		"Version", "update?", "reads", "writes", "others", "total")
	for _, pr := range []Proto{NFS, SNFS} {
		for _, update := range []bool{true, false} {
			r, err := RunSort(pr, size, update, pm)
			if err != nil {
				return nil, err
			}
			upd := "yes"
			if !update {
				upd = "no"
			}
			addOpsRow(t, pr.String(), upd, r.Ops)
		}
	}
	return t, nil
}
