package harness

import (
	"fmt"
	"io"

	"spritelynfs/internal/client"
	"spritelynfs/internal/cluster"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/tsdb"
	"spritelynfs/internal/vfs"
)

// The cluster scale experiment extends §2.3's single-server claim to a
// federation: SNFS consistency state is strictly per-file, so splitting
// the namespace across M shard servers splits the protocol with it, and
// the knee of the load curve should move out roughly with M. Each client
// works in its own root-level directory, assigned round-robin to shards,
// so the partition is balanced and no write sharing crosses shards.

// ClusterWorld is an assembled federation testbed: the shard servers
// plus one Router per client host.
type ClusterWorld struct {
	K       *sim.Kernel
	Cluster *cluster.Cluster
	Routers []*cluster.Router
	NSs     []*vfs.Namespace
}

// BuildCluster assembles an nshards-server federation under the given
// namespace partition, using the same calibrated cost model as the
// single-server worlds (every shard is a full Titan-class server with
// its own RA81 and nfsd pool).
func BuildCluster(nshards int, assignments map[string]uint32, pm Params) (*ClusterWorld, error) {
	k := sim.NewKernel(pm.Seed)
	net := simnet.New(k, pm.Net)
	sinkFor := pm.AuditSinkFor
	if sinkFor == nil && pm.AuditSink != nil {
		shared := pm.AuditSink
		sinkFor = func(int) io.Writer { return shared }
	}
	c, err := cluster.New(k, net, cluster.Config{
		Shards:           nshards,
		Assignments:      assignments,
		Server:           pm.Server,
		ServerWorkers:    pm.ServerWorkers,
		ServerCacheBytes: pm.ServerCacheBytes,
		ServerBlockSize:  pm.ServerBlockSize,
		Disk:             pm.ServerDisk,
		ClientConfig: client.Config{
			BlockSize:  pm.TransferSize,
			CacheBytes: pm.ClientCacheBytes,
			ReadAhead:  true,
		},
		ClientOpts:     pm.SNFS,
		Audit:          pm.Audit,
		AuditSinkFor:   sinkFor,
		FlightCapacity: pm.FlightCapacity,
		Backups:        pm.Backups,
		ViewInterval:   pm.ViewInterval,
		ViewDeadPings:  pm.ViewDeadPings,
		ViewLog:        pm.ViewLog,
	})
	if err != nil {
		return nil, err
	}
	if pm.FlightCapacity > 0 && pm.FlightSink != nil {
		for _, sh := range c.Shards() {
			if sh.Auditor != nil {
				wireFlightDump(sh.Auditor, sh.Flight, pm.FlightSink)
			}
		}
	}
	return &ClusterWorld{K: k, Cluster: c}, nil
}

// StartSampler arms the time-series sampler across the federation: every
// shard's registry is sampled on the sim clock at interval, its series
// prefixed "shard<i>/" so per-shard hot spots stay visible in one
// timeline — the measurement the load-driven rebalancing work consumes.
func (cw *ClusterWorld) StartSampler(interval sim.Duration, capacity int) *tsdb.Sampler {
	smp := newSampler(cw.K, interval, capacity)
	for i, sh := range cw.Cluster.Shards() {
		smp.Watch(fmt.Sprintf("shard%d/", i), sh.Metrics)
	}
	return smp
}

// AddRouter attaches a client host routing into the cluster and returns
// its namespace.
func (cw *ClusterWorld) AddRouter(name simnet.Addr) (*cluster.Router, *vfs.Namespace) {
	r := cw.Cluster.NewRouter(name)
	ns := &vfs.Namespace{}
	ns.Mount("/", r)
	cw.Routers = append(cw.Routers, r)
	cw.NSs = append(cw.NSs, ns)
	return r, ns
}

// Redirects sums NOTHOME bounces healed across all routers.
func (cw *ClusterWorld) Redirects() int64 {
	var n int64
	for _, r := range cw.Routers {
		n += r.Redirects()
	}
	return n
}

// Run executes fn as the main workload process, failing on workload
// errors or any shard's audit violations.
func (cw *ClusterWorld) Run(fn func(p *sim.Proc) error) error {
	var err error
	cw.K.Go("workload", func(p *sim.Proc) {
		defer cw.K.Stop()
		err = fn(p)
	})
	cw.K.Run()
	if err == nil {
		err = cw.Cluster.AuditErr()
	}
	return err
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
	cw, err := BuildCluster(nshards, assign, pm)
	if err != nil {
		return ScalePoint{}, err
	}
	pt := ScalePoint{Clients: nclients, Shards: nshards}
	for i := 0; i < nclients; i++ {
		cw.AddRouter(simnet.Addr(fmt.Sprintf("client%d", i)))
	}
	if pm.SampleInterval > 0 {
		pt.Timeline = cw.StartSampler(pm.SampleInterval, pm.SampleCapacity).Timeline()
	}

	var elapsed sim.Duration
	err = cw.Run(func(p *sim.Proc) error {
		wg := sim.NewWaitGroup(cw.K, nclients)
		errs := make([]error, nclients)
		start := p.Now()
		for i := range cw.NSs {
			i := i
			cw.K.Go(fmt.Sprintf("scale-client%d", i), func(cp *sim.Proc) {
				defer wg.Done()
				errs[i] = scaleWorkload(cp, cw.NSs[i], dirs[i], pm)
			})
		}
		wg.Wait(p)
		elapsed = p.Now().Sub(start)
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		return pt, err
	}
	pt.Elapsed = elapsed
	// The cluster's bottleneck is its busiest shard: the knee is set by
	// the max utilization, not the average.
	for _, sh := range cw.Cluster.Shards() {
		if u := sh.Server.Base.CPU().Utilization(); u > pt.ServerCPU {
			pt.ServerCPU = u
		}
		if u := sh.Media.Disk().Utilization(); u > pt.ServerDisk {
			pt.ServerDisk = u
		}
	}
	for _, r := range cw.Routers {
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
	t := stats.NewTable("Cluster scale: N active clients across M SNFS shards (per-client compile-like workload)", cols...)
	out := map[int][]ScalePoint{}
	base := map[int]float64{}
	for _, n := range clientCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for _, m := range shardCounts {
			pt, err := RunClusterScale(n, m, pm)
			if err != nil {
				return nil, nil, fmt.Errorf("cluster scale m=%d n=%d: %w", m, n, err)
			}
			if n == clientCounts[0] {
				base[m] = pt.Elapsed.Seconds()
			}
			if base[m] > 0 {
				pt.Slowdown = pt.Elapsed.Seconds() / base[m]
			}
			out[m] = append(out[m], pt)
			row = append(row,
				fmt.Sprintf("%.1fs (x%.2f)", pt.Elapsed.Seconds(), pt.Slowdown),
				fmt.Sprintf("%.0f%%", pt.ServerCPU*100),
				fmt.Sprintf("%.0f%%", pt.ServerDisk*100))
		}
		t.AddRow(row...)
	}
	return out, t, nil
}
