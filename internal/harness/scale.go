package harness

import (
	"fmt"
	"io"

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

// ScaleCSVHeader is the column row WriteScaleCSV emits.
const ScaleCSVHeader = "proto,shards,clients,elapsed_s,slowdown,server_cpu,server_disk,total_rpcs"

// WriteScaleCSV writes points as CSV rows under ScaleCSVHeader, labeled
// with the protocol (or configuration) name. Points from the single-
// server experiments carry Shards == 0 and are written as 1.
func WriteScaleCSV(w io.Writer, label string, pts []ScalePoint) error {
	if _, err := fmt.Fprintln(w, ScaleCSVHeader); err != nil {
		return err
	}
	return AppendScaleCSV(w, label, pts)
}

// AppendScaleCSV is WriteScaleCSV without the header row, for combining
// several sweeps into one file.
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
	if err := ns.Mkdir(p, dir, 0o755); err != nil {
		return err
	}
	if err := ns.WriteFile(p, dir+"/hdr.h", 8*1024, chunk); err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		if _, err := ns.ReadFile(p, dir+"/hdr.h", chunk); err != nil {
			return err
		}
		p.Sleep(500 * sim.Millisecond) // compute
		tmp := fmt.Sprintf("%s/t%d.s", dir, i)
		if err := ns.WriteFile(p, tmp, 24*1024, chunk); err != nil {
			return err
		}
		if _, err := ns.ReadFile(p, tmp, chunk); err != nil {
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
	for i := 1; i < nclients; i++ {
		if pr != NFS && pr != SNFS {
			return pt, fmt.Errorf("scale experiment needs a remote protocol")
		}
		h := w.addClient(simnet.Addr(fmt.Sprintf("client%d", i)), pm.clientHost(pr))
		namespaces = append(namespaces, h.NS)
	}

	if pm.SampleInterval > 0 {
		// The whole run is the measurement window, so sampling starts
		// with the world: the timeline shows the ramp, the plateau where
		// every client is in its compile loop, and the drain.
		smp := w.StartSampler(w.EnableMetrics(), pm.SampleInterval, pm.SampleCapacity)
		pt.Timeline = smp.Timeline()
	}

	var elapsed sim.Duration
	err := w.Run(func(p *sim.Proc) error {
		start := p.Now()
		err := w.RunEach(p, nclients, "scale-client", func(cp *sim.Proc, i int) error {
			return scaleWorkload(cp, namespaces[i], fmt.Sprintf("/data/u%02d", i), pm)
		})
		elapsed = p.Now().Sub(start)
		return err
	})
	if err != nil {
		return pt, err
	}
	pt.Elapsed = elapsed
	pt.ServerCPU = w.ServerCPUUtilization()
	if w.SrvMedia != nil {
		pt.ServerDisk = w.SrvMedia.Disk().Utilization()
	}
	pt.Spans = w.spanSummary(elapsed, nclients)
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
	protos := []Proto{NFS, SNFS}
	pts := make([]ScalePoint, len(counts)*len(protos))
	err := pm.Each(len(pts), func(i int) (err error) {
		n, pr := counts[i/len(protos)], protos[i%len(protos)]
		ppm := pm
		ppm.UnstableWrites = pr == NFS
		if pts[i], err = RunScale(pr, n, ppm); err != nil {
			err = fmt.Errorf("scale %s n=%d: %w", pr, n, err)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	out := map[Proto][]ScalePoint{}
	t := stats.NewTable("Scale: N active clients, one server (per-client compile-like workload)",
		"Clients", "NFS elapsed", "NFS srvCPU", "NFS srvDisk", "SNFS elapsed", "SNFS srvCPU", "SNFS srvDisk")
	for ci, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		for pi, pr := range protos {
			row = append(row, sweepCells(&pts[ci*len(protos)+pi], pts[pi])...)
			out[pr] = append(out[pr], pts[ci*len(protos)+pi])
		}
		t.AddRow(row...)
	}
	return out, t, nil
}

// sweepCells fills in pt's slowdown against base, the first point of its
// series, and formats its three table cells.
func sweepCells(pt *ScalePoint, base ScalePoint) []string {
	if base.Elapsed > 0 {
		pt.Slowdown = pt.Elapsed.Seconds() / base.Elapsed.Seconds()
	}
	return []string{
		fmt.Sprintf("%.1fs (x%.2f)", pt.Elapsed.Seconds(), pt.Slowdown),
		fmt.Sprintf("%.0f%%", pt.ServerCPU*100),
		fmt.Sprintf("%.0f%%", pt.ServerDisk*100),
	}
}
