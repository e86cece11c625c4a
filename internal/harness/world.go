package harness

import (
	"fmt"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/cache"
	"spritelynfs/internal/client"
	"spritelynfs/internal/cluster"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/localmount"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/tsdb"
	"spritelynfs/internal/vfs"
)

// World is one assembled testbed: a client host with a namespace of
// mounts, and (for the remote protocols) a server host across the
// simulated Ethernet — or, built by BuildCluster, a federation of shard
// servers with one Router per client host. Every host in it comes from
// cluster.NewServerHost or cluster.NewClientHost.
type World struct {
	K  *sim.Kernel
	NS *vfs.Namespace

	Proto     Proto
	TmpRemote bool

	// Remote pieces (nil for Local).
	Net      *simnet.Network
	NFSSrv   *server.NFSServer
	SNFSSrv  *server.SNFSServer
	RFSSrv   *server.RFSServer
	NFSCli   *client.NFSClient
	SNFSCli  *client.SNFSClient
	RFSCli   *client.RFSClient
	SrvMedia *localfs.Media

	// LocalMedia is the client's local disk (holds /tmp when local,
	// and everything under the Local protocol).
	LocalMedia *localfs.Media
	LocalFS    *localmount.FS

	// Auditor is the protocol auditor (nil unless Params.Audit is set on
	// an SNFS world). Run fails when it has recorded violations.
	Auditor *audit.Auditor

	// Spans is the causal span recorder (nil unless Params.Spans is
	// set): one recorder shared by every host, so an operation's spans
	// assemble into a single cross-host tree.
	Spans *span.Recorder

	// Cluster is the federation's control plane and Routers/NSs its
	// client hosts and their namespaces, in AddRouter order (all nil in a
	// single-server world).
	Cluster *cluster.Cluster
	Routers []*cluster.Router
	NSs     []*vfs.Namespace

	// srv and cli are the single server and the measurement client (nil
	// for Local and in a federation); servers is every server host.
	srv     *cluster.ServerHost
	cli     *cluster.ClientHost
	servers []*cluster.ServerHost
	// clients are the full-size client hosts — the measurement client,
	// every Add*Client, every router's per-shard clients — and late the
	// instruments armed since construction, which a host added afterwards
	// must get too. Fleet clients are not here: Fleet.Stats sums their
	// counts.
	clients []*cluster.ClientHost
	late    trace.Instruments
	params  Params
	// sampler is the one StartSampler armed (nil for none); Run takes its
	// last sample.
	sampler *tsdb.Sampler
}

// ClientOps returns the client's RPC counters (empty for Local).
func (w *World) ClientOps() *stats.Ops {
	if w.cli != nil {
		return w.cli.Base.Ops()
	}
	return new(stats.Ops)
}

// serverOps returns the server's served-call counters (empty for Local).
func (w *World) serverOps() *stats.Ops {
	if w.srv != nil {
		return w.srv.Base.Ops()
	}
	return new(stats.Ops)
}

// serverBusy returns the server CPU's busy time so far, its queued
// backlog not counted (0 for Local).
func (w *World) serverBusy() sim.Duration {
	if w.srv == nil {
		return 0
	}
	cpu := w.srv.Base.CPU()
	return cpu.BusyTime() - cpu.Backlog()
}

// ServerCPUUtilization reports cumulative server CPU utilization.
func (w *World) ServerCPUUtilization() float64 {
	if w.srv != nil {
		return w.srv.Base.CPU().Utilization()
	}
	return 0
}

// spanSummary returns the span recorder's critical-path breakdown over
// elapsed (0 = the recorder's whole observed window, set-up through
// drain, so attribution stays ~100%) for nclients client hosts; nil with
// spans off. DiskBusySeconds is the ground truth for the disk share: the
// servers' arm-busy gauges the breakdown's disk rows should reconcile
// against.
func (w *World) spanSummary(elapsed sim.Duration, nclients int) *span.Summary {
	if w.Spans == nil {
		return nil
	}
	s := w.Spans.Summarize(elapsed, nclients)
	for _, h := range w.servers {
		s.DiskBusySeconds += h.Media.Disk().BusyTime().Seconds()
	}
	return s
}

// RPCWork sums the wire-image work (rpc.Endpoint.Work) of every server
// host and full-size client host of the world; Fleet.Work adds a fleet's
// clients.
func (w *World) RPCWork() rpc.Work {
	var sum rpc.Work
	for _, h := range w.servers {
		sum = sum.Add(h.Base.Endpoint().Work())
	}
	for _, c := range w.clients {
		sum = sum.Add(c.Base.Endpoint().Work())
	}
	return sum
}

// EnableTrace attaches one tracer to every host of the world (each
// server and its endpoint, each full-size client and its endpoint, those
// added later included) and returns it. The world ring replaces the
// servers' own (Params.FlightCapacity): from now on a violation dump
// reads it.
func (w *World) EnableTrace(capacity int) *trace.Tracer {
	tr := trace.New(w.K.Now, capacity)
	w.late.Tracer = tr
	for _, h := range w.servers {
		h.Attach(trace.Instruments{Tracer: tr})
	}
	for _, c := range w.clients {
		c.Attach(trace.Instruments{Tracer: tr})
	}
	return tr
}

// EnableMetrics attaches a metrics registry to every host of the world:
// every RPC endpoint records per-procedure latency histograms, the
// server exports CPU and (for SNFS) state-table gauges, and each
// full-size client, those added later included, exports cache gauges. In
// a federation each shard host gets a registry of its own (see
// cluster.EnableMetrics); the one returned holds the client side. Call it
// at measurement start so setup traffic stays out of the distributions.
func (w *World) EnableMetrics() *metrics.Registry {
	r := metrics.New()
	w.late.Metrics = r
	if w.srv != nil {
		w.srv.Attach(trace.Instruments{Metrics: r})
	}
	if w.Cluster != nil {
		w.Cluster.EnableMetrics()
	}
	for _, c := range w.clients {
		c.Attach(trace.Instruments{Metrics: r})
	}
	// With spans armed, root-span latency histograms (with op-ID
	// exemplars) join the registry.
	w.Spans.EnableMetrics(r)
	return r
}

// ClientCacheStats returns the remote client's block-cache counters
// (zero for Local).
func (w *World) ClientCacheStats() cache.Stats {
	if w.cli == nil {
		return cache.Stats{}
	}
	return w.cli.Base.Cache().Stats()
}

// InvalidateClientCache drops the remote client's block cache (to start
// a measurement cold). No-op for the Local protocol.
func (w *World) InvalidateClientCache() {
	if w.cli != nil {
		w.cli.Base.Cache().InvalidateAll()
	}
}

// ServerDiskStats reports the server disk counters.
func (w *World) ServerDiskStats() disk.Stats {
	if w.SrvMedia != nil {
		return w.SrvMedia.Disk().Stats()
	}
	return disk.Stats{}
}

// mkdirs pre-creates a path chain on a store (setup outside the timed
// run).
func mkdirs(st *localfs.Store, paths ...string) {
	for _, path := range paths {
		cur := st.Root()
		for comp, rest := vfs.Next(path); comp != ""; comp, rest = vfs.Next(rest) {
			a, err := st.Lookup(cur, comp)
			if err != nil {
				a, err = st.Mkdir(cur, comp, 0o755)
				if err != nil {
					panic(fmt.Sprintf("harness mkdirs %s: %v", path, err))
				}
			}
			cur = a.Ino
		}
	}
}

// BuildOptions are per-world overrides for ablations.
type BuildOptions struct {
	// ReadAhead overrides the client read-ahead policy when non-nil.
	ReadAhead *bool
	// Server overrides the SNFS server options (hybrid mode, table
	// limit, grace period).
	Server *server.SNFSOptions
}

// Build assembles a world for the given protocol and /tmp placement.
func Build(pr Proto, tmpRemote bool, pm Params) *World {
	return BuildOpt(pr, tmpRemote, pm, BuildOptions{})
}

// BuildOpt is Build with ablation overrides.
func BuildOpt(pr Proto, tmpRemote bool, pm Params, opt BuildOptions) *World {
	k := sim.NewKernel(pm.Seed)
	w := &World{K: k, NS: &vfs.Namespace{}, Proto: pr, TmpRemote: tmpRemote, params: pm}
	if pm.Spans {
		w.Spans = span.NewRecorder(k.Now, pm.SpanTopK)
	}

	// The client's local disk always exists (it holds /tmp in the
	// tmp-local configurations and everything under Local).
	lst := localfs.NewStore(k.Now, pm.ServerBlockSize)
	ld := disk.New(k, "client-disk", pm.ClientDisk)
	ld.Spans = w.Spans
	w.LocalMedia = localfs.NewMedia(lst, ld, 99, pm.ClientCacheBytes)
	w.LocalMedia.MetaSync = true
	mkdirs(lst, "data", "tmp", "usr/tmp")
	w.LocalFS = localmount.New(k, w.LocalMedia)
	w.LocalFS.Spans = w.Spans

	if pr == Local {
		w.NS.Mount("/", w.LocalFS)
	} else {
		w.Net = simnet.New(k, pm.Net)
		in := pm.serverInstruments(k, w.Spans, 0, pm.Audit && pr == SNFS)
		spec := pm.serverHost(pr)
		if opt.Server != nil {
			spec.SNFS = *opt.Server
		}
		if pm.SNFS.NameCache {
			// The §7 name cache is one protocol: a client that caches
			// names needs a server that invalidates them.
			spec.SNFS.NameCacheProtocol = true
		}
		w.srv = cluster.NewServerHost(k, w.Net, spec, in)
		pm.dumpFlightOnViolation(w.srv)
		w.servers = []*cluster.ServerHost{w.srv}
		// The paper workloads' directory layout (a federation's is its
		// shard map's, the daemon's what -populate makes).
		mkdirs(w.srv.Media.Store(), "data", "tmp", "usr/tmp")
		w.NFSSrv, w.SNFSSrv, w.RFSSrv, w.SrvMedia = w.srv.NFS, w.srv.SNFS, w.srv.RFS, w.srv.Media
		w.Auditor = in.Auditor

		cs := pm.clientHost(pr)
		if opt.ReadAhead != nil {
			cs.Config.ReadAhead = *opt.ReadAhead
		}
		w.cli = w.addClient("client", cs)
		w.NS = w.cli.NS
		w.NFSCli, w.SNFSCli, w.RFSCli = w.cli.NFS, w.cli.SNFS, w.cli.RFS
		if !tmpRemote {
			w.NS.Mount("/tmp", w.LocalFS)
			w.NS.Mount("/usr/tmp", w.LocalFS)
		}
	}

	// The local update daemon (/etc/update): flushes the local disk's
	// delayed writes. The SNFS client runs its own (per pm.SNFS). A pass
	// is background work, not a syscall, so it goes to the media below
	// the mount's root spans.
	if pm.LocalSyncInterval > 0 {
		k.Go("etc-update", func(p *sim.Proc) {
			for {
				p.Sleep(pm.LocalSyncInterval)
				w.LocalMedia.SyncOlderThan(p.Now())
			}
		})
	}
	return w
}

// newClient builds a client host of the world's server, rooting its
// syscalls in the world's span recorder and, when audited, mounted
// through its auditor.
func (w *World) newClient(s cluster.ClientSpec, audited bool) *cluster.ClientHost {
	s.Config.Server = w.srv.Addr
	s.Config.Root = w.srv.Base.RootHandle()
	in := trace.Instruments{Spans: w.Spans}
	if audited {
		in.Auditor = w.Auditor
	}
	return cluster.NewClientHost(w.K, w.Net, s, in)
}

// addClient attaches a full-size client host (see Params.clientHost) to a
// remote world, armed with whatever the world's hosts have been armed
// with since construction.
func (w *World) addClient(name simnet.Addr, s cluster.ClientSpec) *cluster.ClientHost {
	s.Name = name
	h := w.newClient(s, true)
	h.Attach(w.late)
	w.clients = append(w.clients, h)
	return h
}

// AddNFSClient attaches another NFS client host to a remote world and
// returns it with a namespace rooted at the export.
func (w *World) AddNFSClient(name simnet.Addr, opts client.NFSOptions) (*client.NFSClient, *vfs.Namespace) {
	s := w.params.clientHost(NFS)
	s.NFS = opts
	h := w.addClient(name, s)
	return h.NFS, h.NS
}

// AddSNFSClient attaches another SNFS client host to a remote world and
// returns it with a namespace rooted at the export.
func (w *World) AddSNFSClient(name simnet.Addr, opts client.SNFSOptions) (*client.SNFSClient, *vfs.Namespace) {
	s := w.params.clientHost(SNFS)
	s.SNFS = opts
	h := w.addClient(name, s)
	return h.SNFS, h.NS
}

// AddRFSClient attaches another RFS client host to a remote world.
func (w *World) AddRFSClient(name simnet.Addr) (*client.RFSClient, *vfs.Namespace) {
	h := w.addClient(name, w.params.clientHost(RFS))
	return h.RFS, h.NS
}

// SamplerSeriesBudget caps the timeline of every harness-started
// sampler. A full single-world registry is a few hundred series; the
// budget only bites if someone registers per-client labeled series at
// fleet scale, which is exactly the mistake it exists to catch (the
// drop count surfaces in timeline.json as dropped_series).
const SamplerSeriesBudget = 2048

// StartSampler arms the time-series sampler on a running world: reg
// (the registry EnableMetrics returned; nil for none) and every server
// host's registry that is not reg are sampled into a budget-capped
// timeline. The first sample is taken now, the next by a "tsdb-sampler"
// process on the sim clock at every multiple of interval, and the last by
// Run when the workload returns: the windows cover the run from now to
// its end, and all but the first and the last are whole, aligned
// intervals. A host's own series are prefixed with its address
// ("shard<i>/") so per-shard hot spots stay visible in one timeline — the
// measurement the load-driven rebalancing work consumes. Call it at
// measurement start, at most once per world.
func (w *World) StartSampler(reg *metrics.Registry, interval sim.Duration) *tsdb.Sampler {
	smp := tsdb.NewSampler(0)
	smp.LimitSeries(SamplerSeriesBudget)
	smp.Watch("", reg)
	for _, h := range w.servers {
		if h.Metrics != reg {
			smp.Watch(string(h.Addr)+"/", h.Metrics)
		}
	}
	smp.Sample(w.K.Now())
	w.sampler = smp
	w.K.Go("tsdb-sampler", func(p *sim.Proc) {
		for {
			p.Sleep(interval - sim.Duration(p.Now())%interval)
			smp.Sample(p.Now())
		}
	})
	return smp
}

// Run executes fn as the main workload process and stops the world when
// it returns, reporting any error fn produced; an armed sampler takes its
// last sample then, closing the run's last, partial window. With auditing
// armed, any invariant violation any server's auditor recorded fails the
// run.
func (w *World) Run(fn func(p *sim.Proc) error) error {
	var err error
	w.K.Go("workload", func(p *sim.Proc) {
		defer w.K.Stop()
		err = fn(p)
		w.sampler.Sample(p.Now())
	})
	w.K.Run()
	if err == nil {
		err = w.Auditor.Err()
	}
	if err == nil && w.Cluster != nil {
		err = w.Cluster.AuditErr()
	}
	return err
}

// RunEach runs fn(cp, i) for every i in [0, n) at once, each on a process
// of its own named name+i, waits on p for all of them, and returns the
// lowest-numbered failure.
func (w *World) RunEach(p *sim.Proc, n int, name string, fn func(cp *sim.Proc, i int) error) error {
	var wg sim.WaitGroup
	wg.Add(n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		w.K.Go(fmt.Sprintf("%s%d", name, i), func(cp *sim.Proc) {
			defer wg.Done()
			errs[i] = fn(cp, i)
		})
	}
	wg.Wait(p)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s%d: %w", name, i, err)
		}
	}
	return nil
}
