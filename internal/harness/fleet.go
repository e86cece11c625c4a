package harness

import (
	"fmt"

	"spritelynfs/internal/cluster"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
)

// FleetOptions sizes a fleet of lightweight client hosts.
type FleetOptions struct {
	// Proto selects the client protocol (NFS or SNFS).
	Proto Proto
	// Clients is the fleet size.
	Clients int
	// CacheBytes is the per-client block cache (0 = 256 KiB — a fleet
	// client models a lightly-provisioned workstation, not the 16 MB
	// measurement client, and 4,000 of those must fit in one process).
	CacheBytes int64
	// ReadAhead enables the one-block read-ahead policy. Off by default:
	// each prefetch is a transient process, and a scenario's offered
	// load, not per-client prefetch concurrency, is what a fleet run
	// measures.
	ReadAhead bool
	// SyncInterval, when nonzero on an SNFS fleet, drives delayed-write
	// flushing from one shared staggered sweep: client i's SyncPass runs
	// at phase i/N of each interval, on a pooled executor process,
	// instead of each client parking its own update-daemon process.
	SyncInterval sim.Duration
	// Audit wraps every fleet client in the world's protocol auditor
	// (requires the world to have been built with Params.Audit). Meant
	// for small-N smoke runs; the auditor's ledger is global, so a
	// 4,000-client run with auditing on measures the auditor.
	Audit bool
}

func (o *FleetOptions) fill() {
	if o.Clients == 0 {
		o.Clients = 1
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 10
	}
}

// FleetClient is one lightweight client host: an RPC endpoint served from
// the fleet's executor, a small-cache protocol client with every
// per-client daemon disabled, and a namespace rooted at the export.
type FleetClient = cluster.ClientHost

// Fleet is a World scaled out: one server and network shared by N
// lightweight client stacks. Where World models the paper's measurement
// testbed (one fully-featured client), Fleet models the paper's closing
// concern — what happens to a cache-consistency protocol when the
// client population grows by orders of magnitude.
type Fleet struct {
	W *World
	// Exec is the shared process pool servicing every client's blocking
	// work: incoming callback RPCs, scenario file operations, and the
	// staggered sync sweep. Its Spawned() is the fleet's whole
	// goroutine footprint.
	Exec    *sim.Executor
	Clients []*FleetClient
}

// NewFleet attaches a fleet of opt.Clients light client stacks to an
// already-built remote world. The world's own measurement client is left
// untouched (and typically unused).
func NewFleet(w *World, opt FleetOptions) *Fleet {
	opt.fill()
	f := &Fleet{
		W:       w,
		Exec:    sim.NewExecutor(w.K, "fleet"),
		Clients: make([]*FleetClient, 0, opt.Clients),
	}
	// Every per-client daemon stays off: delayed writes are flushed by
	// the shared sweep below, and a fleet run never exercises crash
	// recovery per client.
	so := w.params.SNFS
	so.UpdateInterval = 0
	so.KeepaliveInterval = 0
	spec := w.params.clientHost(opt.Proto)
	spec.Config.CacheBytes, spec.Config.ReadAhead = opt.CacheBytes, opt.ReadAhead
	spec.Exec, spec.SNFS = f.Exec, so
	for i := 0; i < opt.Clients; i++ {
		spec.Name = simnet.Addr(fmt.Sprintf("c%04d", i))
		f.Clients = append(f.Clients, w.newClient(spec, opt.Audit))
	}
	if opt.Proto == SNFS && opt.SyncInterval > 0 {
		f.startSyncSweep(opt.SyncInterval)
	}
	return f
}

// startSyncSweep schedules each SNFS client's delayed-write flush as a
// recurring event at phase i/N of the interval — the whole fleet's
// update-daemon duty carried by timer events and pooled processes, not
// N parked goroutines, and staggered so the flush load spreads across
// the interval instead of arriving as a thundering herd.
func (f *Fleet) startSyncSweep(interval sim.Duration) {
	n := len(f.Clients)
	for i, fc := range f.Clients {
		c := fc.SNFS
		offset := sim.Duration(int64(interval) * int64(i) / int64(n))
		// Bound once per client: a pass submits and reschedules the
		// same three func values for the life of the fleet.
		var pass func()
		job := c.SyncPass
		again := func() { f.W.K.After(interval, pass) }
		pass = func() { f.Exec.Submit(0, job, again) }
		f.W.K.After(offset+interval, pass)
	}
}

// Client returns fleet member i.
func (f *Fleet) Client(i int) *FleetClient { return f.Clients[i] }

// FleetStats aggregates the fleet's client-side counters.
type FleetStats struct {
	CallsSent   int64
	Retransmits int64
	Timeouts    int64
	CacheBlocks int64
	DirtyBlocks int64
	CacheHits   int64
	CacheMisses int64
}

// Stats sums counters across the fleet (O(N) compute, O(1) series).
func (f *Fleet) Stats() FleetStats {
	var s FleetStats
	for _, fc := range f.Clients {
		b := fc.Base
		es := b.Endpoint().Stats()
		s.CallsSent += es.CallsSent
		s.Retransmits += es.Retransmits
		s.Timeouts += es.Timeouts
		cs := b.Cache().Stats()
		s.CacheBlocks += int64(b.Cache().Len())
		s.DirtyBlocks += int64(b.Cache().DirtyCount())
		s.CacheHits += cs.Hits
		s.CacheMisses += cs.Misses
	}
	return s
}

// EnableMetrics registers the fleet's aggregate gauges on r. Unlike
// World.EnableMetrics — which exports ~15 host-labeled series per client
// and per-procedure histograms per endpoint — the fleet's cardinality is
// constant in N: each gauge sums across clients at sample time. A
// 4,000-client fleet adds the same handful of series as a 4-client one.
func (f *Fleet) EnableMetrics(r *metrics.Registry) {
	r.GaugeFunc("snfs_fleet_clients",
		func() float64 { return float64(len(f.Clients)) })
	r.GaugeFunc("snfs_fleet_exec_workers",
		func() float64 { return float64(f.Exec.Spawned()) })
	r.GaugeFunc("snfs_fleet_exec_active",
		func() float64 { return float64(f.Exec.Active()) })
	r.GaugeFunc("snfs_fleet_calls_sent_total",
		func() float64 { return float64(f.Stats().CallsSent) })
	r.GaugeFunc("snfs_fleet_retransmits_total",
		func() float64 { return float64(f.Stats().Retransmits) })
	r.GaugeFunc("snfs_fleet_cache_blocks",
		func() float64 { return float64(f.Stats().CacheBlocks) })
	r.GaugeFunc("snfs_fleet_dirty_blocks",
		func() float64 { return float64(f.Stats().DirtyBlocks) })
	r.GaugeFunc("snfs_fleet_cache_hits_total",
		func() float64 { return float64(f.Stats().CacheHits) })
	r.GaugeFunc("snfs_fleet_cache_misses_total",
		func() float64 { return float64(f.Stats().CacheMisses) })
}

// SyncAllClients flushes every client's delayed writes and (for SNFS)
// sends owed closes — end-of-run settlement so a scenario's dirty data
// reaches the server before the world stops.
func (f *Fleet) SyncAllClients(p *sim.Proc) {
	for _, fc := range f.Clients {
		fc.FS.SyncAll(p)
	}
}

// BuildFleet assembles a remote world for pr (its built-in measurement
// client idled: daemons off) and attaches a fleet to it.
func BuildFleet(pr Proto, pm Params, opt FleetOptions) *Fleet {
	// The world's own client is not part of the fleet; silence its
	// periodic daemons so fleet runs schedule no work for it.
	pm.SNFS.UpdateInterval = 0
	pm.SNFS.KeepaliveInterval = 0
	pm.LocalSyncInterval = 0
	opt.Proto = pr
	w := Build(pr, true, pm)
	return NewFleet(w, opt)
}
