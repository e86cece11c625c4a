package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"spritelynfs/internal/harness"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/workload"
)

// The experiments below are more than one harness table: sweeps with a
// knee, self-checking runs with an acceptance floor, and the
// machine-readable BENCH_*.json summaries. Every number they commit is
// held by results/ and the tier-1 test that regenerates it.

// asJSON fills a file with v as indented JSON.
func asJSON(v any) func(f io.Writer) error {
	return func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}

// asBytes fills a file with b.
func asBytes(b []byte) func(f io.Writer) error {
	return func(f io.Writer) error {
		_, err := f.Write(b)
		return err
	}
}

// knee is the slowdown bound defining the "sustainable" client count of
// every load sweep (scale, cluster scale, scenario): the largest count
// before the first point over it (harness.SustainableClients), the knee
// of the load curve.
const knee = 1.5

// scaleJSON is the machine-readable summary of the scale sweep
// (BENCH_scale.json).
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

// scaleExperiment sweeps client counts against one server under both
// protocols and reports each one's knee.
func scaleExperiment(e *env) error {
	out, t, err := harness.ScaleExperiment(e.pm, nil)
	if err != nil {
		return err
	}
	t.Render(e.w)
	fmt.Fprintln(e.w)
	protos := []harness.Proto{harness.NFS, harness.SNFS}
	doc := scaleJSON{Experiment: "scale", MaxSlowdown: knee, Protocols: map[string]scaleProtoJSON{}}
	spansDoc := map[string]*span.Summary{}
	for _, pr := range protos {
		pj := scaleProtoJSON{
			UnstableWrites:     pr == harness.NFS,
			SustainableClients: harness.SustainableClients(out[pr], knee),
		}
		fmt.Fprintf(e.w, "%s: sustains %d active clients within %.2fx of single-client time\n",
			pr, pj.SustainableClients, knee)
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
	for _, pr := range protos {
		if s := largest(out[pr]).Spans; s != nil {
			fmt.Fprintf(e.w, "\n%s, largest point (%d clients):\n", pr, s.Clients)
			s.Render(e.w)
			spansDoc[pr.String()] = s
		}
	}
	if len(spansDoc) > 0 {
		if err := e.create("spans-scale.json", asJSON(spansDoc)); err != nil {
			return err
		}
	}
	for _, pr := range protos {
		name := "timeline.json"
		if pr == harness.NFS {
			name = "timeline-nfs.json"
		}
		if tl := largest(out[pr]).Timeline; tl != nil {
			if err := e.create(name, tl.WriteJSON); err != nil {
				return err
			}
		}
	}
	if err := e.create("scale.csv", func(f io.Writer) error {
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
	return e.create("BENCH_scale.json", asJSON(doc))
}

// rpcMinReduction is the acceptance floor for the attribute-piggybacking
// extensions: the armed Andrew run must cut NFS getattr+lookup traffic by
// at least this fraction.
const rpcMinReduction = 0.30

// rpcJSON is the machine-readable summary of the RPC-count experiment
// (BENCH_rpc.json).
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
func rpcExperiment(e *env) error {
	w := e.w
	doc := rpcJSON{
		Experiment:   "rpc",
		MinReduction: rpcMinReduction,
		Protocols:    map[string]rpcProtoJSON{},
	}
	fmt.Fprintln(w, "RPC-count experiment: Andrew benchmark, vintage vs armed")
	fmt.Fprintln(w, "(armed = post-op attribute piggybacking + READDIRPLUS-style readdir + compound lookup)")
	fmt.Fprintln(w)
	for _, pr := range []harness.Proto{harness.NFS, harness.SNFS} {
		vrun, err := harness.RunAndrew(pr, true, e.pm)
		if err != nil {
			return fmt.Errorf("%s vintage: %w", pr, err)
		}
		armedPM := e.pm
		armedPM.AttrExtensions = true
		if pr == harness.SNFS {
			armedPM.Audit = true // certify the savings break nothing
		}
		arun, err := harness.RunAndrew(pr, true, armedPM)
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
			if err := e.create("timeline-rpc.json", arun.Timeline.WriteJSON); err != nil {
				return err
			}
		}
		if pr == harness.SNFS && arun.Spans != nil {
			fmt.Fprintf(w, "\narmed %s run:\n", pr)
			arun.Spans.Render(w)
			if err := e.create("spans-rpc.json", asJSON(arun.Spans)); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "\narmed SNFS run audited: zero protocol violations\n")
	return e.create("BENCH_rpc.json", asJSON(doc))
}

// clusterShards are the shard counts of the clusterscale sweep.
var clusterShards = []int{1, 2, 4}

// clusterScaleExperiment sweeps client counts across clusterShards and
// verifies the central claim of the federation: the knee of the load
// curve (the sustainable active-client count) moves out monotonically as
// shards are added.
func clusterScaleExperiment(e *env) error {
	out, t, err := harness.ClusterScaleExperiment(e.pm, clusterShards, nil)
	if err != nil {
		return err
	}
	t.Render(e.w)
	fmt.Fprintln(e.w)
	prev := -1
	for _, m := range clusterShards {
		n := harness.SustainableClients(out[m], knee)
		fmt.Fprintf(e.w, "%d shard(s): sustains %d active clients within %.2fx of single-client time\n", m, n, knee)
		if prev >= 0 && n < prev {
			return fmt.Errorf("knee moved in: %d shards sustain %d clients, down from %d", m, n, prev)
		}
		prev = n
	}
	widest := clusterShards[len(clusterShards)-1]
	if tl := largest(out[widest]).Timeline; tl != nil {
		if err := e.create("timeline-cluster.json", tl.WriteJSON); err != nil {
			return err
		}
	}
	if s := largest(out[widest]).Spans; s != nil {
		fmt.Fprintf(e.w, "\n%d shards, largest point (%d clients):\n", widest, s.Clients)
		s.Render(e.w)
		if err := e.create("spans-cluster.json", asJSON(s)); err != nil {
			return err
		}
	}
	return e.create("cluster-scale.csv", func(f io.Writer) error {
		if _, err := fmt.Fprintln(f, harness.ScaleCSVHeader); err != nil {
			return err
		}
		for _, m := range clusterShards {
			if err := harness.AppendScaleCSV(f, "SNFS", out[m]); err != nil {
				return err
			}
		}
		return nil
	})
}

// largest returns the largest-client-count point of a sweep, the one
// whose Timeline and Spans the sweep writes out (nil with -timeline or
// -spans unset: every point of a sweep is sampled alike).
func largest(pts []harness.ScalePoint) harness.ScalePoint { return pts[len(pts)-1] }

// clusterSmoke is the gate for the federation: an audited 3-shard run
// with a mid-workload rebalance, failing on any audit violation, on a
// redirect loop, or if the rebalance converges without a single NOTHOME
// redirect being exercised. Its side files are the final shard map and,
// unless -audit-journal takes every record, the per-shard audit journals.
func clusterSmoke(e *env) error {
	const nshards = 3
	pm := e.pm
	pm.Audit = true
	var journals [nshards]bytes.Buffer
	if pm.AuditSink == nil {
		pm.AuditSinkFor = func(shard int) io.Writer { return &journals[shard] }
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
		buf := make([]byte, pm.TransferSize)
		for j := 0; j < 4; j++ {
			path := fmt.Sprintf("%s/%s%d.dat", dir, phase, j)
			if err := ns.WriteFile(p, path, 24*1024, pm.TransferSize); err != nil {
				return err
			}
			if _, err := ns.ReadFile(p, path, buf); err != nil {
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
		if _, err := namespaces[2].ReadFile(p, dirs[0]+"/pre0.dat", make([]byte, pm.TransferSize)); err != nil {
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
	fmt.Fprintf(e.w, "cluster smoke: %d shards, map converged at v%d, %d redirects healed, audit clean\n",
		nshards, m.Version, cw.Redirects())
	for _, sh := range cw.Cluster.Shards() {
		fmt.Fprintf(e.w, "  shard %d: %d RPCs served, %d state-table entries\n",
			sh.ID, sh.Base.Ops().Total(), sh.SNFS.Table().Len())
	}
	for i := range journals {
		if pm.AuditSinkFor == nil {
			break
		}
		if err := e.create(fmt.Sprintf("cluster-shard%d.jsonl", i), asBytes(journals[i].Bytes())); err != nil {
			return err
		}
	}
	return e.create("shardmap.json", asJSON(m))
}

// failoverHealBound is the acceptance ceiling on the heal time of the
// kill-primary failover run: crash to the first client RPC served by the
// promoted backup must fit inside this many simulated seconds.
const failoverHealBound = 30.0

// failoverJSON is the machine-readable summary of the failover
// experiment (BENCH_failover.json).
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
// any audit violation fails the run. Its side files are the viewservice
// transition log (view.log) and the killed shard's flight dump.
func failoverExperiment(e *env) error {
	const (
		nclients = 3
		nshards  = 3
		kill     = 0
	)
	w := e.w
	killAt := 30 * sim.Second
	pm := e.pm
	pm.Audit = true // certify the takeover preserves consistency
	pm.Backups = true
	// Size the ring to hold the whole run (~21k events per shard), so the
	// promotion and heal records survive to the post-run dump.
	pm.FlightCapacity = 32768

	base, err := harness.RunClusterFailover(nclients, nshards, kill, "", 0, pm)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}

	var viewLog, flight bytes.Buffer
	pm.ViewLog, pm.FlightSink = &viewLog, &flight
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

	if err := e.create("view.log", asBytes(viewLog.Bytes())); err != nil {
		return err
	}
	if err := e.create("failover-flight.txt", asBytes(flight.Bytes())); err != nil {
		return err
	}
	return e.create("BENCH_failover.json", asJSON(failoverJSON{
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
	}))
}

// latencyExperiment runs one traced Andrew benchmark (SNFS, /tmp remote),
// prints the per-procedure latency percentiles next to the op counts, and
// writes the RPC serve timeline as Chrome trace-event JSON,
// andrew-trace.json (load it in chrome://tracing or
// https://ui.perfetto.dev).
func latencyExperiment(e *env) error {
	run, err := harness.RunAndrewOpt(harness.SNFS, true, e.pm, harness.AndrewOptions{Trace: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(e.w, "Andrew benchmark, %s: %.1f simulated seconds, %d RPC calls\n\n",
		run.Label(), run.Result.Total.Seconds(), run.Ops.Total())
	harness.LatencyTable([]harness.AndrewRun{run}).Render(e.w)
	fmt.Fprintf(e.w, "\nChrome trace: %d events recorded, %d dropped\n", run.Trace.Total(), run.Trace.Dropped())
	if err := e.create("andrew-trace.json", run.Trace.WriteChrome); err != nil {
		return err
	}
	if run.Spans == nil {
		return nil
	}
	fmt.Fprintln(e.w)
	run.Spans.Render(e.w)
	if err := e.create("spans-latency.json", asJSON(run.Spans)); err != nil {
		return err
	}
	// The captured trees also export as a nested Chrome trace: each
	// slow op becomes a process track with one row per tree depth.
	return e.create("andrew-spans-trace.json", func(f io.Writer) error {
		return trace.WriteChromeSpans(f, run.Spans.SlowOps)
	})
}

// traceDemo runs the sequential write-sharing scenario with full tracing
// and prints the protocol timeline: the open, the CLOSED-DIRTY hit, the
// write-back callback, and the flush, in order.
func traceDemo(e *env) error {
	world := harness.Build(harness.SNFS, true, e.pm)
	tr := world.EnableTrace(0)
	_, readerNS := world.AddSNFSClient("reader", e.pm.SNFS)
	err := world.Run(func(p *sim.Proc) error {
		if err := world.NS.WriteFile(p, "/data/shared.txt", 24*1024, 8192); err != nil {
			return err
		}
		return workload.ReadQuickly(p, readerNS, "/data/shared.txt", 8192)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(e.w, "Protocol timeline: writer creates and writes a file (delayed write-back),")
	fmt.Fprintln(e.w, "then a second host reads it, forcing the CLOSED-DIRTY write-back callback:")
	fmt.Fprintln(e.w)
	tr.Dump(e.w)
	fmt.Fprintf(e.w, "\n%d events total; states and callbacks only:\n\n", tr.Total())
	tr.Dump(e.w, trace.State, trace.Callback)
	return nil
}
