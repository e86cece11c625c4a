package harness

import (
	"fmt"
	"io"

	"spritelynfs/internal/cluster"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/vfs"
)

// The cluster scale experiment extends §2.3's single-server claim to a
// federation: SNFS consistency state is strictly per-file, so splitting
// the namespace across M shard servers splits the protocol with it, and
// the knee of the load curve should move out roughly with M. Each client
// works in its own root-level directory, assigned round-robin to shards,
// so the partition is balanced and no write sharing crosses shards.

// BuildCluster assembles an nshards-server federation under the given
// namespace partition, using the same calibrated cost model as the
// single-server worlds (every shard is a full Titan-class server with
// its own RA81 and nfsd pool, every router client a full-size SNFS
// client host). Client hosts join through AddRouter.
func BuildCluster(nshards int, assignments map[string]uint32, pm Params) (*World, error) {
	k := sim.NewKernel(pm.Seed)
	w := &World{K: k, NS: &vfs.Namespace{}, Proto: SNFS, TmpRemote: true, Net: simnet.New(k, pm.Net), params: pm}
	if pm.Spans {
		w.Spans = span.NewRecorder(k.Now, pm.SpanTopK)
	}
	sinkFor := pm.AuditSinkFor
	if sinkFor == nil && pm.AuditSink != nil {
		shared := pm.AuditSink
		sinkFor = func(int) io.Writer { return shared }
	}
	c, err := cluster.New(k, w.Net, cluster.Config{
		Shards:         nshards,
		Assignments:    assignments,
		Server:         pm.serverHost(SNFS),
		Client:         pm.clientHost(SNFS),
		Audit:          pm.Audit,
		AuditSinkFor:   sinkFor,
		FlightCapacity: pm.FlightCapacity,
		Spans:          w.Spans,
		Backups:        pm.Backups,
		ViewInterval:   pm.ViewInterval,
		ViewDeadPings:  pm.ViewDeadPings,
		ViewLog:        pm.ViewLog,
	})
	if err != nil {
		return nil, err
	}
	for _, sh := range c.Shards() {
		pm.dumpFlightOnViolation(sh.Instruments)
	}
	w.Cluster, w.servers = c, c.Hosts()
	return w, nil
}

// AddRouter attaches a client host routing into the cluster and returns
// its namespace.
func (w *World) AddRouter(name simnet.Addr) (*cluster.Router, *vfs.Namespace) {
	r := w.Cluster.NewRouter(name)
	for _, h := range r.Hosts() {
		h.Attach(w.late)
	}
	w.clients = append(w.clients, r.Hosts()...)
	ns := &vfs.Namespace{}
	ns.Mount("/", r)
	w.Routers = append(w.Routers, r)
	w.NSs = append(w.NSs, ns)
	return r, ns
}

// Redirects sums NOTHOME bounces healed across all routers.
func (w *World) Redirects() int64 {
	var n int64
	for _, r := range w.Routers {
		n += r.Redirects()
	}
	return n
}

// clusterAssignments maps client i's directory /u<i> to shard i%M.
func clusterAssignments(nclients, nshards int) (map[string]uint32, []string) {
	assign := make(map[string]uint32, nclients)
	dirs := make([]string, nclients)
	for i := 0; i < nclients; i++ {
		dirs[i] = fmt.Sprintf("/u%02d", i)
		assign[dirs[i]] = uint32(i % nshards)
	}
	return assign, dirs
}

// RunClusterScale measures one (shard-count, client-count) point: every
// client runs the same compile-like workload as RunScale, in its own
// shard-assigned directory.
func RunClusterScale(nclients, nshards int, pm Params) (ScalePoint, error) {
	assign, dirs := clusterAssignments(nclients, nshards)
	w, err := BuildCluster(nshards, assign, pm)
	if err != nil {
		return ScalePoint{}, err
	}
	pt := ScalePoint{Clients: nclients, Shards: nshards}
	for i := 0; i < nclients; i++ {
		w.AddRouter(simnet.Addr(fmt.Sprintf("client%d", i)))
	}
	if pm.SampleInterval > 0 {
		// Servers only: nclients × nshards client hosts' worth of series
		// would not fit the sampler's budget.
		w.Cluster.EnableMetrics()
		pt.Timeline = w.StartSampler(nil, pm.SampleInterval, pm.SampleCapacity).Timeline()
	}

	var elapsed sim.Duration
	err = w.Run(func(p *sim.Proc) error {
		start := p.Now()
		err := w.RunEach(p, nclients, "scale-client", func(cp *sim.Proc, i int) error {
			return scaleWorkload(cp, w.NSs[i], dirs[i], pm)
		})
		elapsed = p.Now().Sub(start)
		return err
	})
	if err != nil {
		return pt, err
	}
	pt.Elapsed = elapsed
	// The cluster's bottleneck is its busiest shard: the knee is set by
	// the max utilization, not the average.
	for _, sh := range w.Cluster.Shards() {
		if u := sh.Base.CPU().Utilization(); u > pt.ServerCPU {
			pt.ServerCPU = u
		}
		if u := sh.Media.Disk().Utilization(); u > pt.ServerDisk {
			pt.ServerDisk = u
		}
	}
	pt.Spans = w.spanSummary(elapsed, nclients)
	for _, r := range w.Routers {
		pt.TotalRPCs += r.TotalOps()
	}
	return pt, nil
}

// ClusterScaleExperiment sweeps client counts across shard counts and
// renders the comparison. The first client count anchors each shard
// count's slowdown baseline.
func ClusterScaleExperiment(pm Params, shardCounts, clientCounts []int) (map[int][]ScalePoint, *stats.Table, error) {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
	}
	if len(clientCounts) == 0 {
		// Out to 32 so the knee has room to move past the single-server
		// sweep's range when four shards carry the load.
		clientCounts = []int{1, 2, 4, 8, 16, 32}
	}
	cols := []string{"Clients"}
	for _, m := range shardCounts {
		cols = append(cols,
			fmt.Sprintf("%dsh elapsed", m),
			fmt.Sprintf("%dsh srvCPU", m),
			fmt.Sprintf("%dsh srvDisk", m))
	}
	pts := make([]ScalePoint, len(clientCounts)*len(shardCounts))
	err := pm.Each(len(pts), func(i int) (err error) {
		n, m := clientCounts[i/len(shardCounts)], shardCounts[i%len(shardCounts)]
		if pts[i], err = RunClusterScale(n, m, pm); err != nil {
			err = fmt.Errorf("cluster scale m=%d n=%d: %w", m, n, err)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Cluster scale: N active clients across M SNFS shards (per-client compile-like workload)", cols...)
	out := map[int][]ScalePoint{}
	for ci, n := range clientCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for mi, m := range shardCounts {
			row = append(row, sweepCells(&pts[ci*len(shardCounts)+mi], pts[mi])...)
			out[m] = append(out[m], pts[ci*len(shardCounts)+mi])
		}
		t.AddRow(row...)
	}
	return out, t, nil
}
