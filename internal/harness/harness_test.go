package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/workload"
)

// fastParams shrinks the workloads so shape tests stay quick while
// preserving every qualitative relationship.
func fastParams() Params {
	pm := Default()
	pm.Andrew.Dirs = 2
	pm.Andrew.FilesPerDir = 7
	pm.SortSizes = []int{281 * 1024, 1408 * 1024}
	return pm
}

// TestDefaultServerStatesBothCPUCosts keeps the paper's tables off
// server.Config's defaulting rule: a Config stating one cost reads the
// other as free, so the calibrated set must state both.
func TestDefaultServerStatesBothCPUCosts(t *testing.T) {
	if c := Default().Server; c.CPUPerOp == 0 || c.CPUPerKB == 0 {
		t.Errorf("Default().Server = %+v: both CPU costs must be stated", c)
	}
}

func TestBuildAllProtocols(t *testing.T) {
	pm := fastParams()
	for _, pr := range []Proto{Local, NFS, SNFS} {
		for _, tmp := range []bool{false, true} {
			w := Build(pr, tmp, pm)
			err := w.Run(func(p *sim.Proc) error {
				if err := w.NS.WriteFile(p, "/data/x", 10000, 8192); err != nil {
					return err
				}
				n, err := w.NS.ReadFile(p, "/data/x", make([]byte, 8192))
				if err != nil {
					return err
				}
				if n != 10000 {
					t.Errorf("%s tmp=%v: read %d bytes", pr, tmp, n)
				}
				if err := w.NS.WriteFile(p, "/tmp/y", 5000, 8192); err != nil {
					return err
				}
				return w.NS.Remove(p, "/tmp/y")
			})
			if err != nil {
				t.Errorf("%s tmp=%v: %v", pr, tmp, err)
			}
		}
	}
}

// TestTable51Shape asserts the paper's Table 5-1 relationships:
// SNFS beats NFS on Copy by ~25%, on Make by 20-30% (more with /tmp
// remote), and overall by 15-20%; local is fastest.
func TestTable51Shape(t *testing.T) {
	pm := fastParams()
	runs, _, err := Table51(pm)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AndrewRun{}
	for _, r := range runs {
		byLabel[r.Label()] = r
	}
	local := byLabel["local"]
	nfsL := byLabel["NFS, local /tmp"]
	nfsR := byLabel["NFS, remote /tmp"]
	snfsL := byLabel["SNFS, local /tmp"]
	snfsR := byLabel["SNFS, remote /tmp"]

	// Local is fastest overall.
	for _, r := range []AndrewRun{nfsL, nfsR, snfsL, snfsR} {
		if local.Result.Total >= r.Result.Total {
			t.Errorf("local (%v) not faster than %s (%v)", local.Result.Total, r.Label(), r.Result.Total)
		}
	}
	// Copy favors SNFS substantially (paper ~25%).
	copyGain := 1 - snfsR.Result.Phase[1].Seconds()/nfsR.Result.Phase[1].Seconds()
	if copyGain < 0.10 || copyGain > 0.50 {
		t.Errorf("Copy: SNFS gain %.0f%%, want roughly 25%%", copyGain*100)
	}
	// Make favors SNFS (paper 20-30%), more with /tmp remote.
	makeGainL := 1 - snfsL.Result.Phase[4].Seconds()/nfsL.Result.Phase[4].Seconds()
	makeGainR := 1 - snfsR.Result.Phase[4].Seconds()/nfsR.Result.Phase[4].Seconds()
	if makeGainL <= 0 {
		t.Errorf("Make (local /tmp): SNFS gain %.0f%%, want positive", makeGainL*100)
	}
	if makeGainR < 0.10 {
		t.Errorf("Make (remote /tmp): SNFS gain %.0f%%, want >= 10%%", makeGainR*100)
	}
	if makeGainR <= makeGainL {
		t.Errorf("Make gain should grow with /tmp remote (%.0f%% vs %.0f%%)", makeGainL*100, makeGainR*100)
	}
	// Total: SNFS completes the whole benchmark faster (paper 15-20%).
	totalGainR := 1 - snfsR.Result.Total.Seconds()/nfsR.Result.Total.Seconds()
	if totalGainR < 0.08 {
		t.Errorf("Total (remote /tmp): SNFS gain %.0f%%, want >= 8%%", totalGainR*100)
	}
}

// TestTable52Shape asserts the RPC-mix relationships: lookups are roughly
// half of all calls; SNFS substitutes open/close for getattr and saves
// data-transfer operations (dramatically with /tmp remote).
func TestTable52Shape(t *testing.T) {
	pm := fastParams()
	runs, _, err := Table52(pm)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		frac := float64(r.Ops.Get("lookup")) / float64(r.Ops.Total())
		if frac < 0.30 || frac > 0.70 {
			t.Errorf("%s: lookup fraction %.2f, want roughly half", r.Label(), frac)
		}
		if r.Proto == SNFS {
			if r.Ops.Get("getattr") != 0 {
				t.Errorf("%s: SNFS should not need getattr at open (%d)", r.Label(), r.Ops.Get("getattr"))
			}
			if r.Ops.Get("open") == 0 || r.Ops.Get("close") == 0 {
				t.Errorf("%s: missing open/close traffic", r.Label())
			}
		}
	}
	nfsR, snfsR := runs[2], runs[3]
	nfsData := nfsR.Ops.Sum("read", "write")
	snfsData := snfsR.Ops.Sum("read", "write")
	if snfsData >= nfsData/2 {
		t.Errorf("remote /tmp: SNFS data ops %d vs NFS %d; want far fewer", snfsData, nfsData)
	}
}

// TestFigureShape asserts the paper's Figure 5-1/5-2 observations: server
// CPU load correlates strongly with the total call rate and much less
// with read or write rates; SNFS finishes sooner.
func TestFigureShape(t *testing.T) {
	pm := fastParams()
	fNFS, err := RunFigure(NFS, pm)
	if err != nil {
		t.Fatal(err)
	}
	fSNFS, err := RunFigure(SNFS, pm)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Figure{fNFS, fSNFS} {
		cc := stats.Correlation(f.CPU, f.Calls)
		if cc < 0.9 {
			t.Errorf("%s: corr(cpu, calls) = %.2f, want strong", f.Run.Label(), cc)
		}
		cr := stats.Correlation(f.CPU, f.Reads)
		cw := stats.Correlation(f.CPU, f.Writes)
		if cr > cc || cw > cc {
			t.Errorf("%s: read/write correlation (%.2f/%.2f) exceeds total (%.2f)", f.Run.Label(), cr, cw, cc)
		}
	}
	if fSNFS.Run.Result.Total >= fNFS.Run.Result.Total {
		t.Error("SNFS did not finish the benchmark sooner than NFS")
	}
}

// TestFigureConservesServedCalls: a figure loses nothing the server
// counted. Its rows times the bucket add up to the calls, reads and
// writes the server served over the timed phases (callbacks it issued are
// not served calls) and to the CPU busy time accrued in them, and its
// first row is the bucket holding the run's start.
func TestFigureConservesServedCalls(t *testing.T) {
	for _, pr := range []Proto{NFS, SNFS} {
		f, err := RunFigure(pr, fastParams())
		if err != nil {
			t.Fatal(err)
		}
		sum := func(row []float64) float64 {
			s := 0.0
			for _, v := range row {
				s += v * figBucket.Seconds()
			}
			return s
		}
		ops := f.Run.ServerOps
		for _, c := range []struct {
			row  string
			got  float64
			want int64
		}{
			{"calls", sum(f.Calls), ops.Total() - ops.Get("callback")},
			{"reads", sum(f.Reads), ops.Get("read")},
			{"writes", sum(f.Writes), ops.Get("write")},
		} {
			if math.Round(c.got) != float64(c.want) || math.Abs(c.got-float64(c.want)) > 1e-6 {
				t.Errorf("%s: %s add up to %.6f, the server served %d", pr, c.row, c.got, c.want)
			}
		}
		if got, want := sum(f.CPU), f.Run.ServerCPU.Seconds(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: cpu adds up to %.9f s, the server was busy %.9f s", pr, got, want)
		}
		cpu := seriesPoints(f.Run.Timeline, `snfs_server_cpu_busy_seconds{host="server"}:rate`)
		first := sim.Time(int64(f.Run.Start) / int64(figBucket) * int64(figBucket)).Add(figBucket)
		if len(cpu) == 0 || cpu[0].T != first {
			t.Errorf("%s: first window does not close at %v, the bucket after the start %v", pr, first, f.Run.Start)
		}
	}
}

// TestTable53Shape asserts the sort results: SNFS roughly twice as fast
// as NFS on the larger inputs and close to local.
func TestTable53Shape(t *testing.T) {
	pm := fastParams()
	runs, _, err := Table53(pm)
	if err != nil {
		t.Fatal(err)
	}
	last := len(pm.SortSizes) - 1
	nfs := runs[NFS][last].Result.Elapsed.Seconds()
	snfs := runs[SNFS][last].Result.Elapsed.Seconds()
	local := runs[Local][last].Result.Elapsed.Seconds()
	if ratio := nfs / snfs; ratio < 1.5 || ratio > 3.5 {
		t.Errorf("NFS/SNFS = %.2f, want roughly 2", ratio)
	}
	if snfs > local*1.8 {
		t.Errorf("SNFS (%.0fs) much slower than local (%.0fs)", snfs, local)
	}
	// Temp storage grows faster than the input (the paper's column).
	tempRatio0 := float64(runs[SNFS][0].Result.TempBytes) / float64(pm.SortSizes[0])
	tempRatioN := float64(runs[SNFS][last].Result.TempBytes) / float64(pm.SortSizes[last])
	if tempRatioN <= tempRatio0 {
		t.Errorf("temp/input ratio did not grow: %.2f -> %.2f", tempRatio0, tempRatioN)
	}
}

// TestTable56Shape asserts the update-daemon accounting of Table 5-6:
// NFS write counts are unaffected; SNFS writes collapse to (almost)
// nothing with infinite write-delay.
func TestTable56Shape(t *testing.T) {
	pm := fastParams()
	size := pm.SortSizes[len(pm.SortSizes)-1]
	nfsOn, err := RunSort(NFS, size, true, pm)
	if err != nil {
		t.Fatal(err)
	}
	nfsOff, err := RunSort(NFS, size, false, pm)
	if err != nil {
		t.Fatal(err)
	}
	snfsOn, err := RunSort(SNFS, size, true, pm)
	if err != nil {
		t.Fatal(err)
	}
	snfsOff, err := RunSort(SNFS, size, false, pm)
	if err != nil {
		t.Fatal(err)
	}
	if nfsOn.Ops.Get("write") != nfsOff.Ops.Get("write") {
		t.Errorf("NFS writes changed with update daemon: %d vs %d",
			nfsOn.Ops.Get("write"), nfsOff.Ops.Get("write"))
	}
	if snfsOff.Ops.Get("write") != 0 {
		t.Errorf("SNFS with infinite write-delay still wrote %d", snfsOff.Ops.Get("write"))
	}
	if snfsOn.Ops.Get("write") <= snfsOff.Ops.Get("write") {
		t.Error("update daemon produced no writes")
	}
	if snfsOn.Ops.Get("write") >= nfsOn.Ops.Get("write") {
		t.Errorf("SNFS writes (%d) should stay below NFS (%d)",
			snfsOn.Ops.Get("write"), nfsOn.Ops.Get("write"))
	}
	// SNFS reads stay near zero either way (cache survives close).
	if snfsOn.Ops.Get("read") > nfsOn.Ops.Get("read")/10 {
		t.Errorf("SNFS reads %d vs NFS %d; cache-across-close broken",
			snfsOn.Ops.Get("read"), nfsOn.Ops.Get("read"))
	}
}

// TestTable55Shape asserts that with the update daemon off, SNFS matches
// (or beats) local-disk performance on the temp-heavy sort.
func TestTable55Shape(t *testing.T) {
	pm := fastParams()
	runs, _, err := Table55(pm)
	if err != nil {
		t.Fatal(err)
	}
	last := len(pm.SortSizes) - 1
	snfs := runs[SNFS][last].Result.Elapsed.Seconds()
	local := runs[Local][last].Result.Elapsed.Seconds()
	if snfs > local*1.25 {
		t.Errorf("infinite write-delay: SNFS %.0fs vs local %.0fs; want match-or-beat (within 25%%)", snfs, local)
	}
}

// TestAndrewDeterminism: identical runs produce identical results (the
// simulation is deterministic).
func TestAndrewDeterminism(t *testing.T) {
	pm := fastParams()
	a, err := RunAndrew(SNFS, true, pm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAndrew(SNFS, true, pm)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result != b.Result {
		t.Errorf("non-deterministic results:\n%+v\n%+v", a.Result, b.Result)
	}
	if a.Ops.Total() != b.Ops.Total() {
		t.Errorf("non-deterministic op counts: %d vs %d", a.Ops.Total(), b.Ops.Total())
	}
}

func TestMicroAndAblationsRun(t *testing.T) {
	pm := fastParams()
	if _, err := MicroBenchmarks(pm); err != nil {
		t.Errorf("micro: %v", err)
	}
	if _, err := Ablations(pm); err != nil {
		t.Errorf("ablations: %v", err)
	}
}

func TestSetupProducesExpectedTree(t *testing.T) {
	pm := fastParams()
	w := Build(SNFS, true, pm)
	err := w.Run(func(p *sim.Proc) error {
		if err := workload.SetupAndrew(p, w.NS, pm.Andrew); err != nil {
			return err
		}
		ents, err := w.NS.Readdir(p, pm.Andrew.SrcDir)
		if err != nil {
			return err
		}
		// include + bin + Dirs subdirectories.
		want := 2 + pm.Andrew.Dirs
		if len(ents) != want {
			t.Errorf("src subtree has %d entries, want %d", len(ents), want)
		}
		files, err := w.NS.Readdir(p, pm.Andrew.SrcDir+"/dir00")
		if err != nil {
			return err
		}
		if len(files) != pm.Andrew.FilesPerDir {
			t.Errorf("dir00 has %d files, want %d", len(files), pm.Andrew.FilesPerDir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScaleShape asserts §2.3's claim: with many active clients, the
// stateful protocol degrades far more slowly than NFS (whose synchronous
// writes saturate the server disk).
func TestScaleShape(t *testing.T) {
	pm := fastParams()
	points, _, err := ScaleExperiment(pm, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	nfs, snfs := points[NFS], points[SNFS]
	if nfs[1].Slowdown <= snfs[1].Slowdown {
		t.Errorf("at 8 clients: NFS slowdown %.2f <= SNFS %.2f; stateless should degrade faster",
			nfs[1].Slowdown, snfs[1].Slowdown)
	}
	if snfs[1].Slowdown > 2.0 {
		t.Errorf("SNFS slowdown at 8 clients %.2f, want under 2", snfs[1].Slowdown)
	}
	// The NFS sweep runs the unstable WRITE + COMMIT pipeline, so its
	// once-synchronous writes no longer saturate the arm: gathering
	// must keep the server disk below the knee even at 8 clients.
	if nfs[1].ServerDisk >= 0.85 {
		t.Errorf("NFS server disk %.2f at 8 clients; write gathering should keep it under 0.85",
			nfs[1].ServerDisk)
	}
	// SNFS at 8 clients still finishes faster than NFS at 8.
	if snfs[1].Elapsed >= nfs[1].Elapsed {
		t.Error("SNFS not faster than NFS under load")
	}
}

// TestWriteShareShape asserts the §5 trade-off: in the write-shared case
// SNFS performs much worse than NFS — but much more correctly.
func TestWriteShareShape(t *testing.T) {
	pm := fastParams()
	results, _, err := WriteShareExperiment(pm)
	if err != nil {
		t.Fatal(err)
	}
	nfs, snfs := results[NFS], results[SNFS]
	if snfs.StaleReads != 0 {
		t.Errorf("SNFS served %d stale reads; the guarantee is zero", snfs.StaleReads)
	}
	if nfs.StaleReads < nfs.Reads/2 {
		t.Errorf("NFS served only %d/%d stale reads; expected most to be stale inside the probe window",
			nfs.StaleReads, nfs.Reads)
	}
	if snfs.ReaderRPCs <= nfs.ReaderRPCs {
		t.Error("SNFS should pay more RPCs for its correctness")
	}
	if snfs.MeanReadLatency <= nfs.MeanReadLatency {
		t.Error("SNFS uncached reads should be slower than NFS cached ones")
	}
}

// TestTraceCapturesProtocolTimeline verifies the tracer sees RPCs, state
// transitions, and callbacks during a sharing scenario.
func TestTraceCapturesProtocolTimeline(t *testing.T) {
	pm := fastParams()
	w := Build(SNFS, true, pm)
	tr := w.EnableTrace(0)
	_, readerNS := w.AddSNFSClient("reader", pm.SNFS)
	err := w.Run(func(p *sim.Proc) error {
		if err := w.NS.WriteFile(p, "/data/f", 8192, 8192); err != nil {
			return err
		}
		// Reader forces the CLOSED-DIRTY write-back callback.
		if _, err := readerNS.ReadFile(p, "/data/f", make([]byte, 8192)); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Filter()) == 0 {
		t.Fatal("no events recorded")
	}
	if len(tr.Filter(trace.State)) == 0 {
		t.Error("no state transitions recorded")
	}
	cbs := tr.Filter(trace.Callback)
	if len(cbs) == 0 {
		t.Error("no callback recorded for the write-back")
	}
	closedDirty := false
	for _, e := range tr.Filter(trace.State) {
		closedDirty = closedDirty || strings.Contains(e.Detail, "CLOSED-DIRTY")
	}
	if !closedDirty {
		t.Error("CLOSED-DIRTY transition not in trace")
	}
}

// TestSteadyStateAccountsDeferredWrites verifies the back-to-back trial
// discipline: the second trial's SNFS write count includes the first
// trial's deferred write-backs, so it exceeds a single cold trial's.
func TestSteadyStateAccountsDeferredWrites(t *testing.T) {
	pm := fastParams()
	cold, err := RunAndrew(SNFS, false, pm)
	if err != nil {
		t.Fatal(err)
	}
	steady, err := RunAndrewOpt(SNFS, false, pm, AndrewOptions{SteadyState: true})
	if err != nil {
		t.Fatal(err)
	}
	if steady.Ops.Get("write") < cold.Ops.Get("write") {
		t.Errorf("steady-state writes %d below cold-trial writes %d",
			steady.Ops.Get("write"), cold.Ops.Get("write"))
	}
	// Elapsed time stays in the same ballpark (trials are independent
	// work).
	ratio := steady.Result.Total.Seconds() / cold.Result.Total.Seconds()
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("steady/cold elapsed ratio %.2f", ratio)
	}
}

// TestTable41MatchesPaper asserts key transitions of the regenerated
// Table 4-1 (any builder drift shows as BUILDER ERROR rows).
func TestTable41MatchesPaper(t *testing.T) {
	tb := Table41()
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if strings.Contains(out, "BUILDER ERROR") {
		t.Fatalf("state builders out of sync:\n%s", out)
	}
	for _, want := range []string{
		"ONE-RDR-DIRTY  open write, other client (B)                     WRITE-SHARED",
		"CLOSED-DIRTY   open read, other client (B)                      ONE-READER     true    writeback A",
		"ONE-WRITER     final close for write, client still reading (A)  ONE-RDR-DIRTY",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing transition %q in:\n%s", want, out)
		}
	}
}

// TestProbeSweepShape asserts §2.1's compromise: fewer probes, more
// staleness — and SNFS outside the trade-off entirely.
func TestProbeSweepShape(t *testing.T) {
	pm := fastParams()

	pmShort := pm
	pmShort.NFS.ProbeMin, pmShort.NFS.ProbeMax = sim.Second, sim.Second
	probesShort, staleShort, _, err := probeRun(NFS, pmShort)
	if err != nil {
		t.Fatal(err)
	}
	pmLong := pm
	pmLong.NFS.ProbeMin, pmLong.NFS.ProbeMax = 30*sim.Second, 30*sim.Second
	probesLong, staleLong, _, err := probeRun(NFS, pmLong)
	if err != nil {
		t.Fatal(err)
	}
	if probesShort <= probesLong {
		t.Errorf("short interval probes (%d) not above long interval (%d)", probesShort, probesLong)
	}
	if staleShort >= staleLong {
		t.Errorf("short interval staleness (%d) not below long interval (%d)", staleShort, staleLong)
	}
	probesS, staleS, freshS, err := probeRun(SNFS, pm)
	if err != nil {
		t.Fatal(err)
	}
	if probesS != 0 || staleS != 0 || freshS == 0 {
		t.Errorf("SNFS: probes=%d stale=%d fresh=%d, want 0/0/>0", probesS, staleS, freshS)
	}
}
