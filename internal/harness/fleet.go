package harness

import (
	"fmt"

	"spritelynfs/internal/cache"
	"spritelynfs/internal/cluster"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
)

// FleetOptions sizes a fleet of lightweight client hosts.
type FleetOptions struct {
	// Clients is the fleet size (0 = 1).
	Clients int
	// SyncInterval, when nonzero on an SNFS fleet, drives delayed-write
	// flushing from one shared staggered sweep: client i's SyncPass runs
	// at phase i/N of the interval, on a pooled executor process, instead
	// of each client parking its own update-daemon process. A client with
	// no dirty block is passed over until a block goes dirty (see
	// startSyncSweep).
	SyncInterval sim.Duration
}

// fleetCacheBytes is a fleet client's block cache: a fleet client models
// a lightly-provisioned workstation, not the 16 MB measurement client,
// and 4,000 of those must fit in one process.
const fleetCacheBytes = 256 << 10

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

// NewFleet attaches a fleet of opt.Clients light client stacks of the
// world's protocol to an already-built remote world; with the world's
// auditor armed, every fleet client is witnessed by it (meant for small-N
// smoke runs: the auditor's ledger is global, so a 4,000-client audited
// run measures the auditor). The world's own measurement client is left
// untouched (and typically unused).
func NewFleet(w *World, opt FleetOptions) *Fleet {
	if opt.Clients == 0 {
		opt.Clients = 1
	}
	f := &Fleet{
		W:       w,
		Exec:    sim.NewExecutor(w.K, "fleet"),
		Clients: make([]*FleetClient, 0, opt.Clients),
	}
	// Every per-client daemon stays off: delayed writes are flushed by
	// the shared sweep below, and a fleet run never exercises crash
	// recovery per client. Read-ahead is off too: each prefetch is a
	// transient process, and a scenario's offered load, not per-client
	// prefetch concurrency, is what a fleet run measures.
	so := w.params.SNFS
	so.UpdateInterval = 0
	so.KeepaliveInterval = 0
	spec := w.params.clientHost(w.Proto)
	spec.Config.CacheBytes, spec.Config.ReadAhead = fleetCacheBytes, false
	spec.Exec, spec.SNFS = f.Exec, so
	for i := 0; i < opt.Clients; i++ {
		spec.Name = simnet.Addr(fmt.Sprintf("c%04d", i))
		f.Clients = append(f.Clients, w.newClient(spec, w.Auditor != nil))
	}
	if w.Proto == SNFS && opt.SyncInterval > 0 {
		f.startSyncSweep(opt.SyncInterval, so.DelayedClose || so.NameCache)
	}
	return f
}

// startSyncSweep gives each SNFS client a delayed-write flush on its own
// grid, staggered at phase i/N of the interval so the flush load spreads
// across it instead of arriving as a thundering herd — the whole fleet's
// update-daemon duty carried by timer events and pooled processes, not N
// parked goroutines. A client's grid is last + k·interval, where last is
// the completion of its last pass, or the build instant plus its phase
// offset before the first. A pass with nothing to write has no work, so a
// client's chain of passes sleeps once a pass leaves its cache clean, and
// the cache's first dirty block wakes it at the first grid instant after
// now: every pass that writes runs at the instant a pass every interval
// would have run it, since a pass with nothing to write ends the instant
// it starts. With delayed closes or the name cache armed, a pass has work
// even with nothing dirty, and the chain runs every interval.
func (f *Fleet) startSyncSweep(interval sim.Duration, periodic bool) {
	k := f.W.K
	n := len(f.Clients)
	for i, fc := range f.Clients {
		offset := sim.Duration(int64(interval) * int64(i) / int64(n))
		s := &syncPass{
			f: f, job: fc.SNFS.SyncPass, interval: interval,
			cache: fc.Base.Cache(), periodic: periodic, last: k.Now().Add(offset),
		}
		s.again, s.dueFn = s.rearm, s.Due
		if periodic {
			k.After(offset+interval, s.dueFn)
		} else {
			s.cache.OnFirstDirty(s.dirtied)
		}
	}
}

// syncPass is one client's place in the sync sweep, standing as the event
// that submits its pass. Its job and callbacks are bound once, so a pass
// submits and re-arms the same values for the life of the fleet; the
// re-arm waits in the kernel's lane for the sweep's interval.
type syncPass struct {
	f        *Fleet
	job      func(p *sim.Proc)
	again    func()
	dueFn    func()
	interval sim.Duration
	cache    *cache.Cache
	periodic bool     // passes run whether or not a block is dirty
	armed    bool     // a pass is due or running
	last     sim.Time // where the grid starts: the last pass's end
}

// idle reports whether a pass now would have nothing to do.
func (s *syncPass) idle() bool { return !s.periodic && s.cache.DirtyCount() == 0 }

// Due submits the pass at its grid instant, unless the blocks that armed
// it are gone already (written back on close or eviction, or deleted).
func (s *syncPass) Due() {
	if s.idle() {
		s.last, s.armed = s.f.W.K.Now(), false
		return
	}
	s.f.Exec.Submit(0, s.job, s.again)
}

// rearm runs as a pass ends: the next is due an interval on, if there is
// still work for it.
func (s *syncPass) rearm() {
	s.last = s.f.W.K.Now()
	if s.idle() {
		s.armed = false
		return
	}
	s.f.W.K.AfterFixed(s.interval, s)
}

// dirtied wakes a sleeping chain when its cache's first block goes dirty:
// the pass is due at the first instant of the grid strictly after now.
func (s *syncPass) dirtied() {
	if s.armed {
		return
	}
	s.armed = true
	now := s.f.W.K.Now()
	k := max(0, now.Sub(s.last)/s.interval) + 1
	s.f.W.K.After(s.last.Add(k*s.interval).Sub(now), s.dueFn)
}

// FleetWork is a fleet's host-work census: its kernel's counts, its
// executor's submits, its endpoints' wire-image work, and the cache
// blocks its clients' caches and its servers' buffer caches made and
// reused (cache.Stats).
type FleetWork struct {
	sim.KernelWork
	Submits                  int64
	RPC                      rpc.Work
	BlocksMade, BlocksReused int64
}

// Work returns the fleet's host-work counts so far.
func (f *Fleet) Work() FleetWork {
	fw := FleetWork{KernelWork: f.W.K.Work(), Submits: f.Exec.Work().Submits, RPC: f.W.RPCWork()}
	count := func(cs cache.Stats) {
		fw.BlocksMade, fw.BlocksReused = fw.BlocksMade+cs.Made, fw.BlocksReused+cs.Reused
	}
	for _, fc := range f.Clients {
		fw.RPC = fw.RPC.Add(fc.Base.Endpoint().Work())
		count(fc.Base.Cache().Stats())
	}
	for _, h := range f.W.servers {
		count(h.Media.CacheStats())
	}
	return fw
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
	w := Build(pr, true, pm)
	return NewFleet(w, opt)
}
