package harness

import (
	"fmt"
	"io"

	"spritelynfs/internal/metrics"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/tsdb"
	"spritelynfs/internal/vfs"
)

// The scale experiment tests §2.3's claim that, although a stateless
// server can nominally "handle" any number of clients, the stateful
// server provides acceptable performance to more *simultaneously active*
// clients: its delayed write-back keeps data traffic off the server, so
// per-client server load is lower and the knee of the load curve moves
// out. (The paper cites Sprite supporting roughly four times as many
// active clients as NFS on identical hardware.)

// ScalePoint is the measurement for one client-count.
type ScalePoint struct {
	Clients int
	// Shards is the server count behind the point (1 for the single-
	// server experiment, M for the cluster sweep).
	Shards int
	// Elapsed is when the last client finished its workload.
	Elapsed sim.Duration
	// PerClientIdeal is the single-client elapsed time; Slowdown is
	// Elapsed relative to it (queueing at the server).
	Slowdown float64
	// ServerCPU and ServerDisk are utilizations over the run.
	ServerCPU  float64
	ServerDisk float64
	// TotalRPCs is the aggregate client-issued call count.
	TotalRPCs int64
	// Timeline holds the sampled metric series for the run (nil unless
	// Params.SampleInterval is set). Not part of the CSV rows; snfs-bench
	// writes it out as timeline.json.
	Timeline *tsdb.Timeline
	// Spans holds the critical-path breakdown and slow-op capture for
	// the run (nil unless Params.Spans is set). Not part of the CSV
	// rows; snfs-bench writes it out as spans-scale.json.
	Spans *span.Summary
}

// ScaleCSVHeader is the column row of a scale CSV.
const ScaleCSVHeader = "proto,shards,clients,elapsed_s,slowdown,server_cpu,server_disk,total_rpcs"

// AppendScaleCSV writes points as CSV rows under ScaleCSVHeader, labeled
// with the protocol (or configuration) name; several sweeps share one
// file. Points from the single-server experiments carry Shards == 0 and
// are written as 1.
func AppendScaleCSV(w io.Writer, label string, pts []ScalePoint) error {
	for _, pt := range pts {
		shards := pt.Shards
		if shards == 0 {
			shards = 1
		}
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%.3f,%.3f,%.4f,%.4f,%d\n",
			label, shards, pt.Clients, pt.Elapsed.Seconds(), pt.Slowdown,
			pt.ServerCPU, pt.ServerDisk, pt.TotalRPCs); err != nil {
			return err
		}
	}
	return nil
}

// SustainableClients is the scale figure of merit: the largest measured
// client count whose slowdown relative to the single-client run stays
// within maxSlowdown (the knee of the load curve). Points must be in
// increasing client order with Slowdown filled in.
func SustainableClients(pts []ScalePoint, maxSlowdown float64) int {
	n := 0
	for _, pt := range pts {
		if pt.Slowdown > 0 && pt.Slowdown <= maxSlowdown {
			n = pt.Clients
		} else {
			break
		}
	}
	return n
}

// scaleWorkload is one client's activity: a compile-like loop of reading
// shared headers, writing objects, and churning short-lived temps, all
// under the client's own directory (no write sharing between clients —
// the common case the protocols are built for).
func scaleWorkload(p *sim.Proc, ns *vfs.Namespace, dir string, pm Params) error {
	chunk := pm.TransferSize
	buf := make([]byte, chunk)
	if err := ns.Mkdir(p, dir, 0o755); err != nil {
		return err
	}
	if err := ns.WriteFile(p, dir+"/hdr.h", 8*1024, chunk); err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		if _, err := ns.ReadFile(p, dir+"/hdr.h", buf); err != nil {
			return err
		}
		p.Sleep(500 * sim.Millisecond) // compute
		tmp := fmt.Sprintf("%s/t%d.s", dir, i)
		if err := ns.WriteFile(p, tmp, 24*1024, chunk); err != nil {
			return err
		}
		if _, err := ns.ReadFile(p, tmp, buf); err != nil {
			return err
		}
		if err := ns.Remove(p, tmp); err != nil {
			return err
		}
		if err := ns.WriteFile(p, fmt.Sprintf("%s/o%d.o", dir, i), 8*1024, chunk); err != nil {
			return err
		}
	}
	return nil
}

// RunScale measures one (protocol, client-count) point.
func RunScale(pr Proto, nclients int, pm Params) (ScalePoint, error) {
	w := Build(pr, true, pm)
	pt := ScalePoint{Clients: nclients}

	// Namespaces for every client host: the world's own client plus
	// nclients-1 additions.
	namespaces := []*vfs.Namespace{w.NS}
	dirs := []string{"/data/u00"}
	for i := 1; i < nclients; i++ {
		if pr != NFS && pr != SNFS {
			return pt, fmt.Errorf("scale experiment needs a remote protocol")
		}
		h := w.addClient(simnet.Addr(fmt.Sprintf("client%d", i)), pm.clientHost(pr))
		namespaces = append(namespaces, h.NS)
		dirs = append(dirs, fmt.Sprintf("/data/u%02d", i))
	}

	var reg *metrics.Registry
	if pm.SampleInterval > 0 {
		// The whole run is the measurement window, so sampling starts
		// with the world: the timeline shows the ramp, the plateau where
		// every client is in its compile loop, and the drain.
		reg = w.EnableMetrics()
	}
	return measureScale(w, pt, namespaces, dirs, reg)
}

// measureScale runs scaleWorkload on every client of w at once, client i
// in namespaces[i] under dirs[i], and fills in pt: the elapsed time, the
// busiest server's CPU and disk utilization (a federation's knee is set
// by its busiest shard, not the average), the span summary and the
// clients' RPC total. With Params.SampleInterval set, reg and every
// server host's own registry are sampled over the run.
func measureScale(w *World, pt ScalePoint, namespaces []*vfs.Namespace, dirs []string, reg *metrics.Registry) (ScalePoint, error) {
	pm := w.params
	if pm.SampleInterval > 0 {
		pt.Timeline = w.StartSampler(reg, pm.SampleInterval).Timeline()
	}
	var elapsed sim.Duration
	err := w.Run(func(p *sim.Proc) error {
		start := p.Now()
		err := w.RunEach(p, len(dirs), "scale-client", func(cp *sim.Proc, i int) error {
			return scaleWorkload(cp, namespaces[i], dirs[i], pm)
		})
		elapsed = p.Now().Sub(start)
		return err
	})
	if err != nil {
		return pt, err
	}
	pt.Elapsed = elapsed
	for _, h := range w.servers {
		pt.ServerCPU = max(pt.ServerCPU, h.Base.CPU().Utilization())
		pt.ServerDisk = max(pt.ServerDisk, h.Media.Disk().Utilization())
	}
	pt.Spans = w.spanSummary(elapsed, len(dirs))
	for _, h := range w.clients {
		pt.TotalRPCs += h.Base.Ops().Total()
	}
	return pt, nil
}

// ScaleExperiment sweeps client counts for both protocols and renders
// the comparison.
func ScaleExperiment(pm Params, counts []int) (map[Proto][]ScalePoint, *stats.Table, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16}
	}
	// The NFS sweep runs with the unstable WRITE + COMMIT pipeline and
	// server write gathering armed: that is the NFS-side answer to the
	// disk-arm bottleneck. SNFS keeps its measured configuration — its
	// CLOSED-DIRTY delayed write-back already keeps data traffic off the
	// server, and the extra COMMIT round trips only slow it down.
	return scaleGrid(pm, "Scale: N active clients, one server (per-client compile-like workload)",
		counts, []Proto{NFS, SNFS}, Proto.String,
		func(n int, pr Proto) (ScalePoint, error) {
			ppm := pm
			ppm.UnstableWrites = pr == NFS
			pt, err := RunScale(pr, n, ppm)
			if err != nil {
				err = fmt.Errorf("scale %s n=%d: %w", pr, n, err)
			}
			return pt, err
		})
}

// scaleGrid measures one point per client count and series, all at once
// on pm.Each, and lays them out one row per count with three cells per
// series: elapsed time with its slowdown against the series' first point,
// server CPU and server disk. The map holds each series' points in count
// order.
func scaleGrid[S comparable](pm Params, title string, counts []int, series []S, name func(S) string,
	run func(n int, s S) (ScalePoint, error)) (map[S][]ScalePoint, *stats.Table, error) {
	pts := make([]ScalePoint, len(counts)*len(series))
	err := pm.Each(len(pts), func(i int) (err error) {
		pts[i], err = run(counts[i/len(series)], series[i%len(series)])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	cols := []string{"Clients"}
	for _, s := range series {
		cols = append(cols, name(s)+" elapsed", name(s)+" srvCPU", name(s)+" srvDisk")
	}
	t := stats.NewTable(title, cols...)
	out := map[S][]ScalePoint{}
	for ci, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		for si, s := range series {
			pt, base := &pts[ci*len(series)+si], pts[si]
			if base.Elapsed > 0 {
				pt.Slowdown = pt.Elapsed.Seconds() / base.Elapsed.Seconds()
			}
			row = append(row,
				fmt.Sprintf("%.1fs (x%.2f)", pt.Elapsed.Seconds(), pt.Slowdown),
				fmt.Sprintf("%.0f%%", pt.ServerCPU*100),
				fmt.Sprintf("%.0f%%", pt.ServerDisk*100))
			out[s] = append(out[s], *pt)
		}
		t.AddRow(row...)
	}
	return out, t, nil
}
