package harness

import (
	"fmt"
	"io"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/client"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/localmount"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/spanfs"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/tsdb"
	"spritelynfs/internal/vfs"
)

// World is one assembled testbed: a client host with a namespace of
// mounts, and (for the remote protocols) a server host across the
// simulated Ethernet.
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

	// Flight is the server's black-box event ring (nil unless
	// Params.FlightCapacity is set). With auditing armed and a
	// FlightSink configured, the first violation dumps it automatically.
	Flight *tsdb.FlightRecorder

	// Spans is the causal span recorder (nil unless Params.Spans is
	// set): one recorder shared by every host, so an operation's spans
	// assemble into a single cross-host tree.
	Spans *span.Recorder

	// srv and cli are the protocol-independent halves of whichever
	// server and measurement client run (nil for Local).
	srv    *server.Base
	cli    *client.Base
	params Params
}

// spanMount wraps a to-be-mounted FS so every syscall through it roots a
// span (identity when spans are off).
func (w *World) spanMount(fs vfs.FS, host string) vfs.FS {
	return spanfs.WrapFS(w.Spans, host, fs)
}

// ClientOps returns the client's RPC counters (empty for Local).
func (w *World) ClientOps() *stats.Ops {
	if w.cli != nil {
		return w.cli.Ops()
	}
	return stats.NewOps()
}

// EnableSeries starts recording the server time series for the figures.
func (w *World) EnableSeries(bucket sim.Duration) *server.Series {
	if w.srv != nil {
		return w.srv.EnableSeries(bucket)
	}
	return nil
}

// ServerCPUUtilization reports cumulative server CPU utilization.
func (w *World) ServerCPUUtilization() float64 {
	if w.srv != nil {
		return w.srv.CPU().Utilization()
	}
	return 0
}

// EnableTrace attaches one tracer to every component of the world (both
// endpoints, the server, its state table, and the client) and returns it.
func (w *World) EnableTrace(capacity int) *trace.Tracer {
	tr := trace.New(w.K.Now, capacity)
	if w.srv != nil {
		w.srv.SetTracer(tr)
		w.srv.Endpoint().Tracer = tr
		w.cli.SetTracer(tr)
		w.cli.Endpoint().Tracer = tr
	}
	if w.SNFSSrv != nil {
		w.SNFSSrv.Table().Tracer = tr
	}
	return tr
}

// EnableMetrics attaches one metrics registry to every component of the
// world: both RPC endpoints record per-procedure latency histograms, the
// server exports CPU and (for SNFS) state-table gauges, and the client
// exports cache gauges. Call it at measurement start so setup traffic
// stays out of the distributions.
func (w *World) EnableMetrics() *metrics.Registry {
	r := metrics.New()
	if w.SNFSSrv != nil {
		w.SNFSSrv.EnableMetrics(r)
	} else if w.srv != nil {
		w.srv.EnableMetrics(r)
	}
	if w.cli != nil {
		w.cli.EnableMetrics(r)
	}
	// With spans armed, root-span latency histograms (with op-ID
	// exemplars) join the registry.
	w.Spans.EnableMetrics(r)
	return r
}

// InvalidateClientCache drops the remote client's block cache (to start
// a measurement cold). No-op for the Local protocol.
func (w *World) InvalidateClientCache() {
	if w.cli != nil {
		w.cli.Cache().InvalidateAll()
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
		for _, comp := range vfs.SplitPath(path) {
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
	// NameCacheServer enables the server side of the §7 name-cache
	// protocol (the client side is pm.SNFS.NameCache).
	NameCacheServer bool
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

	if pr == Local {
		w.NS.Mount("/", w.spanMount(w.LocalFS, "local"))
	} else {
		w.Net = simnet.New(k, pm.Net)
		sep := rpc.NewEndpoint(k, w.Net, "server", rpc.Options{Workers: pm.ServerWorkers})
		sep.Spans = w.Spans
		sst := localfs.NewStore(k.Now, pm.ServerBlockSize)
		sd := disk.New(k, "server-disk", pm.ServerDisk)
		sd.Spans = w.Spans
		w.SrvMedia = localfs.NewMedia(sst, sd, pm.Server.FSID, pm.ServerCacheBytes)
		// The write-gathering configuration group-commits synchronous
		// flushes: concurrent COMMIT runs and structural updates share
		// sorted arm sweeps instead of one random op each.
		w.SrvMedia.Gather = pm.UnstableWrites
		mkdirs(sst, "data", "tmp", "usr/tmp")

		switch pr {
		case NFS:
			w.NFSSrv = server.NewNFS(k, sep, w.SrvMedia, pm.Server)
			w.srv = w.NFSSrv.Base
		case RFS:
			w.RFSSrv = server.NewRFS(k, sep, w.SrvMedia, pm.Server)
			w.srv = w.RFSSrv.Base
		case SNFS:
			srvOpts := server.SNFSOptions{}
			if opt.Server != nil {
				srvOpts = *opt.Server
			}
			if opt.NameCacheServer {
				srvOpts.NameCacheProtocol = true
			}
			w.SNFSSrv = server.NewSNFS(k, sep, w.SrvMedia, pm.Server, srvOpts)
			w.srv = w.SNFSSrv.Base
			if pm.Audit {
				w.Auditor = audit.New(k, pm.AuditSink)
				w.SNFSSrv.SetAuditor(w.Auditor)
			}
		}
		w.srv.SetSpans(w.Spans)

		readAhead := true
		if opt.ReadAhead != nil {
			readAhead = *opt.ReadAhead
		}
		st := w.newClient(clientSpec{
			name: "client", proto: pr, cacheBytes: pm.ClientCacheBytes, readAhead: readAhead,
			nfs: pm.NFS, snfs: pm.SNFS, audit: true,
		})
		w.cli, w.NS = st.base, st.ns
		w.NFSCli, w.SNFSCli, w.RFSCli = st.nfs, st.snfs, st.rfs
		if pm.FlightCapacity > 0 {
			w.Flight = tsdb.NewFlightRecorder(k.Now, pm.FlightCapacity)
			w.srv.SetFlight(w.Flight)
			if w.Auditor != nil && pm.FlightSink != nil {
				wireFlightDump(w.Auditor, w.Flight, pm.FlightSink)
			}
		}
		if !tmpRemote {
			w.NS.Mount("/tmp", w.spanMount(w.LocalFS, "local"))
			w.NS.Mount("/usr/tmp", w.spanMount(w.LocalFS, "local"))
		}
	}

	// The local update daemon (/etc/update): flushes the local disk's
	// delayed writes. The SNFS client runs its own (per pm.SNFS).
	if pm.LocalSyncInterval > 0 {
		k.Go("etc-update", func(p *sim.Proc) {
			for {
				p.Sleep(pm.LocalSyncInterval)
				w.LocalFS.SyncAll(p)
			}
		})
	}
	return w
}

// clientSpec says how one client host differs from another; the rest of a
// stack's configuration comes from the world's Params.
type clientSpec struct {
	name       simnet.Addr
	proto      Proto
	cacheBytes int64
	readAhead  bool
	// exec is the pool that serves the host's callback RPCs: nil gives it
	// four threads of its own, a fleet passes its shared executor.
	exec *sim.Executor
	// nfs and snfs are the client policies; only proto's is read. A fleet
	// passes them with the per-client daemons switched off.
	nfs  client.NFSOptions
	snfs client.SNFSOptions
	// audit mounts an SNFS client through the world's auditor, if armed.
	audit bool
}

// clientStack is one assembled client host. fs is the protocol client
// itself, beneath whatever wrappers its mount in ns goes through; exactly
// one of nfs, snfs and rfs is set.
type clientStack struct {
	base *client.Base
	fs   vfs.FS
	ns   *vfs.Namespace
	nfs  *client.NFSClient
	snfs *client.SNFSClient
	rfs  *client.RFSClient
}

// newClient is the only place a client stack is built: an RPC endpoint on
// the world's network, the protocol client over it, the span recorder on
// both, and a namespace with the (audit- and span-wrapped) client at "/".
func (w *World) newClient(s clientSpec) clientStack {
	ep := rpc.NewEndpoint(w.K, w.Net, s.name, rpc.Options{Workers: 4, Exec: s.exec})
	ep.Spans = w.Spans
	cfg := client.Config{
		Server:     "server",
		Root:       w.srv.RootHandle(),
		BlockSize:  w.params.TransferSize,
		CacheBytes: s.cacheBytes,
		ReadAhead:  s.readAhead,
	}
	if s.proto != RFS {
		// The post-1989 extensions are NFS and SNFS features; RFS runs
		// as §2.5 describes it.
		cfg.UnstableWrites = w.params.UnstableWrites
		cfg.AttrPiggyback = w.params.AttrPiggyback
		cfg.LookupPath = w.params.LookupPath
	}
	var st clientStack
	switch s.proto {
	case NFS:
		st.nfs = client.NewNFS(w.K, ep, cfg, s.nfs)
		st.base, st.fs = st.nfs.Base, st.nfs
	case SNFS:
		st.snfs = client.NewSNFS(w.K, ep, cfg, s.snfs)
		st.base, st.fs = st.snfs.Base, st.snfs
	case RFS:
		st.rfs = client.NewRFS(w.K, ep, cfg)
		st.base, st.fs = st.rfs.Base, st.rfs
	}
	st.base.SetSpans(w.Spans)
	mount := st.fs
	if s.audit && st.snfs != nil && w.Auditor != nil {
		mount = w.Auditor.WrapFS(mount)
	}
	st.ns = &vfs.Namespace{}
	st.ns.Mount("/", w.spanMount(mount, string(s.name)))
	return st
}

// addClient attaches another full-size client host (the measurement
// client's cache and read-ahead) to a remote world.
func (w *World) addClient(name simnet.Addr, pr Proto, nfs client.NFSOptions, snfs client.SNFSOptions) clientStack {
	return w.newClient(clientSpec{
		name: name, proto: pr, cacheBytes: w.params.ClientCacheBytes, readAhead: true,
		nfs: nfs, snfs: snfs, audit: true,
	})
}

// AddNFSClient attaches another NFS client host to a remote world and
// returns it with a namespace rooted at the export.
func (w *World) AddNFSClient(name simnet.Addr, opts client.NFSOptions) (*client.NFSClient, *vfs.Namespace) {
	st := w.addClient(name, NFS, opts, client.SNFSOptions{})
	return st.nfs, st.ns
}

// AddSNFSClient attaches another SNFS client host to a remote world and
// returns it with a namespace rooted at the export.
func (w *World) AddSNFSClient(name simnet.Addr, opts client.SNFSOptions) (*client.SNFSClient, *vfs.Namespace) {
	st := w.addClient(name, SNFS, client.NFSOptions{}, opts)
	return st.snfs, st.ns
}

// AddRFSClient attaches another RFS client host to a remote world.
func (w *World) AddRFSClient(name simnet.Addr) (*client.RFSClient, *vfs.Namespace) {
	st := w.addClient(name, RFS, client.NFSOptions{}, client.SNFSOptions{})
	return st.rfs, st.ns
}

// wireFlightDump arranges for the first audit violation to dump the
// flight recorder to sink, headed by the offending operation ID. The
// auditor holds its lock during the callback, so the dump only reads
// the recorder and writes the sink — it never reenters the auditor.
func wireFlightDump(a *audit.Auditor, fr *tsdb.FlightRecorder, sink io.Writer) {
	dumped := false
	a.OnViolation = func(v audit.Violation) {
		if dumped {
			return
		}
		dumped = true
		fr.WriteText(sink, fmt.Sprintf("audit violation op=%d %s: %s", v.Op, v.Invariant, v.Detail))
	}
}

// SamplerSeriesBudget caps the timeline of every harness-started
// sampler. A full single-world registry is a few hundred series; the
// budget only bites if someone registers per-client labeled series at
// fleet scale, which is exactly the mistake it exists to catch (the
// drop count surfaces in timeline.json as dropped_series).
const SamplerSeriesBudget = 2048

// newSampler returns a budget-capped sampler that a "tsdb-sampler"
// process on k drives every interval for the life of the kernel; the
// caller points it at registries with Watch.
func newSampler(k *sim.Kernel, interval sim.Duration, capacity int) *tsdb.Sampler {
	smp := tsdb.NewSampler(capacity)
	smp.LimitSeries(SamplerSeriesBudget)
	k.Go("tsdb-sampler", func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			smp.Sample(p.Now())
		}
	})
	return smp
}

// StartSampler arms the time-series sampler on a running world: reg is
// sampled on the sim clock every interval (for the life of the world)
// into a timeline with the given per-series capacity. Call it with the
// registry EnableMetrics returned, at measurement start.
func (w *World) StartSampler(reg *metrics.Registry, interval sim.Duration, capacity int) *tsdb.Sampler {
	smp := newSampler(w.K, interval, capacity)
	smp.Watch("", reg)
	return smp
}

// Run executes fn as the main workload process and stops the world when
// it returns, reporting any error fn produced. With auditing armed, any
// invariant violation the auditor recorded fails the run.
func (w *World) Run(fn func(p *sim.Proc) error) error {
	var err error
	w.K.Go("workload", func(p *sim.Proc) {
		defer w.K.Stop()
		err = fn(p)
	})
	w.K.Run()
	if err == nil {
		err = w.Auditor.Err()
	}
	return err
}

// traceState and traceCallback re-export the kinds used in tests without
// making the harness API depend on trace's enum directly.
func traceState() trace.Kind    { return trace.State }
func traceCallback() trace.Kind { return trace.Callback }
