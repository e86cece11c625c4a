package server

import (
	"fmt"

	"spritelynfs/internal/core"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/trace"
)

// SNFSOptions configures the Spritely server beyond the base Config.
type SNFSOptions struct {
	// TableLimit bounds the state table (0 = the paper's 1000).
	TableLimit int
	// Hybrid accepts plain-NFS accesses to files under SNFS state by
	// treating them as implicit opens (§6.1).
	Hybrid bool
	// GraceDur is the post-reboot window during which only reopens are
	// accepted while the state table is reconstructed (0 = 2 s).
	GraceDur sim.Duration
	// NameCacheProtocol extends the consistency protocol to directory
	// entries (the approach §7 suggests): clients hold read-opens on
	// directories whose entries they cache, and every namespace
	// mutation invalidates the other holders before it completes.
	NameCacheProtocol bool
}

// SNFSServer is the stateful Spritely NFS server: the NFS file procedures
// plus the open/close/callback consistency machinery of §3 and §4.3. Its
// volatile state — the state table, the per-file mutexes and the grace
// window — starts afresh with every incarnation (reset).
type SNFSServer struct {
	*Base
	table      *core.Table
	locks      map[proto.Handle]*sim.Mutex
	opts       SNFSOptions
	graceUntil sim.Time

	// Backup role: the event-sourced image of the primary's state table
	// plus stream progress, consumed by Promote (repl.go).
	mirror          map[proto.Handle]*mirrorEntry
	replApplied     uint64
	replGap         bool
	primIncarnation uint64
}

// NewSNFS creates a Spritely NFS server on ep.
func NewSNFS(k *sim.Kernel, ep *rpc.Endpoint, media *localfs.Media, cfg Config, opts SNFSOptions) *SNFSServer {
	if opts.GraceDur == 0 {
		opts.GraceDur = 2 * sim.Second
	}
	s := &SNFSServer{
		Base:   newBase(k, ep, media, cfg),
		table:  core.NewTable(opts.TableLimit),
		locks:  make(map[proto.Handle]*sim.Mutex),
		opts:   opts,
		mirror: make(map[proto.Handle]*mirrorEntry),
	}
	// A closure, not the method value s.table.Drop: reset replaces the
	// table, and a method value would keep the first incarnation's.
	s.onRemoved = func(h proto.Handle) { s.table.Drop(h) }
	s.onReset = s.reset
	ep.Serve(proto.ProgNFS, s.serve)
	return s
}

// reset is the SNFS server's part of a new incarnation: an empty state
// table and per-file mutexes, and a grace window in which only reopens are
// served while clients re-register their opens (§2.4).
func (s *SNFSServer) reset() {
	s.table = core.NewTable(s.opts.TableLimit)
	s.observe()
	s.locks = make(map[proto.Handle]*sim.Mutex)
	s.graceUntil = s.k.Now().Add(s.opts.GraceDur)
}

// observe fills the state table's Observer slot only while the auditor,
// the replication stream or the event ring consumes transitions.
func (s *SNFSServer) observe() {
	s.table.Observer = nil
	if s.sinks.Auditor != nil || s.repl != nil || s.sinks.Tracer != nil {
		s.table.Observer = s.observeTransition
	}
}

// observeTransition is the state table's single Observer slot, fanning
// each mutation out to every attached consumer: the auditor's shadow
// machine, the replication stream and the event ring (each nil-safe).
// The ring keeps a line per open and close; the auditor's journal has
// every transition.
func (s *SNFSServer) observeTransition(ev core.TransitionEvent) {
	s.sinks.Auditor.OnTransition(ev)
	if s.repl != nil {
		s.repl.noteTransition(ev)
	}
	if s.sinks.Tracer == nil {
		return
	}
	switch ev.Event {
	case "open":
		s.record(trace.State, s.k.CurrentOp(), "open(%s, %s, write=%v) -> %s v%d cache=%v cbs=%d",
			ev.Handle, ev.Client, ev.Write, ev.To, ev.Version, ev.CacheEnabled, ev.Callbacks)
	case "close":
		s.record(trace.State, s.k.CurrentOp(), "close(%s, %s, write=%v) -> %s", ev.Handle, ev.Client, ev.Write, ev.To)
	}
}

// Attach arms the base's sinks and the state table's consumers. A
// registry also gets the state-table view the protocol revolves around —
// entries per Table 4-1 state, table occupancy, outstanding callbacks,
// and the cumulative reclaim/callback/inconsistency counts; an auditor
// is fed every transition and the callback fan-out, and survives Reboot.
func (s *SNFSServer) Attach(in trace.Instruments) {
	s.Base.Attach(in)
	s.observe()
	r := in.Metrics
	if r == nil {
		return
	}
	for st := core.StateClosed; st <= core.StateWriteShared; st++ {
		st := st
		r.GaugeFunc(metrics.Label("snfs_server_state_entries", "state", st.String()),
			func() float64 { return float64(s.table.StateCount(st)) })
	}
	r.GaugeFunc("snfs_server_state_table_size",
		func() float64 { return float64(s.table.Len()) })
	r.GaugeFunc("snfs_server_callbacks_outstanding",
		func() float64 { return float64(s.cbSem.InUse()) })
	r.GaugeFunc("snfs_server_callbacks_issued_total",
		func() float64 { return float64(s.ep.Sent()[stats.Callback]) })
	r.GaugeFunc("snfs_server_reclaims_total",
		func() float64 { return float64(s.table.Stats().Reclaims) })
	r.GaugeFunc("snfs_server_inconsistencies_total",
		func() float64 { return float64(s.table.Stats().Inconsistencies) })
	r.GaugeFunc("snfs_server_version_bumps_total",
		func() float64 { return float64(s.table.Stats().VersionBumps) })
}

// EnableMetrics attaches a metrics registry alone.
func (s *SNFSServer) EnableMetrics(r *metrics.Registry) { s.Attach(trace.Instruments{Metrics: r}) }

// deliver sends cbs in order and declares dead every client that does
// not answer (§3.2). lost reports that one of those owed a write-back:
// its dirty blocks are gone.
func (s *SNFSServer) deliver(p *sim.Proc, cbs ...core.Callback) (lost bool) {
	for _, cb := range cbs {
		if err := s.callback(p, cb); err != nil {
			s.table.ClientDead(cb.Client)
			lost = lost || cb.WriteBack
		}
	}
	return lost
}

// Table exposes the state table (for tests and stats).
func (s *SNFSServer) Table() *core.Table { return s.table }

// InGrace reports whether the server is in its recovery window.
func (s *SNFSServer) InGrace() bool { return s.k.Now() < s.graceUntil }

func (s *SNFSServer) lockFor(h proto.Handle) *sim.Mutex {
	m, ok := s.locks[h]
	if !ok {
		m = sim.NewMutex(s.k)
		s.locks[h] = m
	}
	return m
}

// snfsProcs are the procedures the Spritely server implements: every one
// in ProgNFS's table.
var snfsProcs = commonProcs | procsOf(proto.ProcOpen, proto.ProcClose, proto.ProcReopen,
	proto.ProcServerInfo, proto.ProcDumpState, proto.ProcAudit,
	proto.ProcReplStream, proto.ProcReplSync)

func (s *SNFSServer) serve(p *sim.Proc, from simnet.Addr, proc uint32, args, tail []byte) (rpc.Reply, rpc.Status) {
	// admit runs the shard route guard before the hybrid/name-cache hooks
	// below, so a misrouted operation is bounced without delivering any
	// callbacks.
	var a callArgs
	if body, st, done := s.admit(p, from, proc, args, tail, snfsProcs, &a); done {
		return body, st
	}
	switch proc {
	case proto.ProcOpen:
		return s.serveOpen(p, from, &a.open), rpc.StatusOK
	case proto.ProcClose:
		return s.serveClose(p, from, &a.close), rpc.StatusOK
	case proto.ProcReopen:
		return s.serveReopen(p, from, &a.reopen), rpc.StatusOK
	case proto.ProcReplStream:
		return s.serveReplStream(p, &a.replStream), rpc.StatusOK
	case proto.ProcReplSync:
		return s.serveReplSync(&a.replSync), rpc.StatusOK
	case proto.ProcServerInfo:
		return reply((&proto.ServerInfoReply{Status: proto.OK, Epoch: s.incarnation, InGrace: s.InGrace()}).XDR)
	case proto.ProcDumpState:
		return s.dumpState(), rpc.StatusOK
	case proto.ProcAudit:
		return reply((&proto.AuditReply{Status: proto.OK, Text: s.sinks.Auditor.Summary()}).XDR)
	}
	if s.sinks.Auditor != nil {
		// Journal commits, the durability point the no-lost-committed-
		// data check pivots on, and the compound procedures, so the audit
		// trail shows the attribute observations they hand the client.
		switch proc {
		case proto.ProcCommit:
			s.sinks.Auditor.NoteEvent(p.Op(), "commit", a.commit.Handle, string(from),
				fmt.Sprintf("verifier %d, epoch %d", s.incarnation, s.incarnation))
		case proto.ProcLookupPath:
			s.sinks.Auditor.NoteEvent(p.Op(), "lookuppath", a.path.Dir, string(from),
				fmt.Sprintf("%d components", len(a.path.Names)))
		case proto.ProcReaddirAttrs:
			s.sinks.Auditor.NoteEvent(p.Op(), "readdirattrs", a.file.Handle, string(from), "")
		}
	}
	if s.opts.Hybrid {
		if body, st, done := s.serveHybrid(p, from, proc, &a); done {
			return body, st
		}
	}
	if s.opts.NameCacheProtocol && proc != proto.ProcLookup && proc != proto.ProcLookupPath {
		s.invalidateNameCaches(p, from, proc, &a)
	}
	if proc == proto.ProcCreate {
		// A create over an existing file truncates it in place (same
		// inode): clients caching the old contents — including a last
		// writer holding dirty blocks — must drop them first, or a
		// later write-back would resurrect the dead data.
		s.truncateOnCreate(p, from, &a.create)
	}
	return s.serveCommon(p, proc, &a)
}

// invalidateNameCaches runs before a namespace mutation: every other
// client holding a caching read-open on the affected directory is called
// back to drop its cached name translations (§7 extension). The mutation
// itself then proceeds normally. A handle that is not a live directory
// fails the mutation: bumped, a file's version would cost its writer's
// next open the delayed writes.
func (s *SNFSServer) invalidateNameCaches(p *sim.Proc, from simnet.Addr, proc uint32, a *callArgs) {
	names, n := a.dirNames(proc)
	if n == 2 && names[1].dir == names[0].dir {
		n = 1 // a rename within one directory
	}
	cid := core.ClientID(from)
	for _, nm := range names[:n] {
		if attr, st := s.handle(nm.dir); st != proto.OK || attr.Type != localfs.TypeDirectory {
			continue
		}
		lk := s.lockFor(nm.dir)
		lk.Lock(p)
		s.deliver(p, s.table.InvalidateReaders(nm.dir, cid)...)
		lk.Unlock()
	}
}

// truncateOnCreate delivers invalidations for a create that will
// truncate an existing file.
func (s *SNFSServer) truncateOnCreate(p *sim.Proc, from simnet.Addr, a *proto.CreateArgs) {
	existing, err := s.media.Store().Lookup(a.Dir.Ino, a.Name)
	if err != nil {
		return // fresh create: nothing cached anywhere
	}
	h := s.toHandle(existing)
	lk := s.lockFor(h)
	lk.Lock(p)
	defer lk.Unlock()
	s.deliver(p, s.table.DropWithInvalidate(h, core.ClientID(from))...)
}

func (s *SNFSServer) serveOpen(p *sim.Proc, from simnet.Addr, a *proto.OpenArgs) rpc.Reply {
	if _, st := s.handle(a.Handle); st != proto.OK {
		return rpc.Encode((&proto.OpenReply{Status: st}).XDR)
	}
	if s.InGrace() {
		return rpc.Encode((&proto.OpenReply{Status: proto.ErrGrace}).XDR)
	}
	lk := s.lockFor(a.Handle)
	lk.Lock(p)
	defer lk.Unlock()

	cid := core.ClientID(from)
	res := s.table.Open(a.Handle, cid, a.WriteMode)
	if res.TableFull {
		// Reclaim closed-dirty entries by write-back callbacks
		// (§4.3.1), then retry once.
		for _, cb := range s.table.ReclaimCandidates(4) {
			s.deliver(p, cb)
			s.table.Reclaimed(cb.Handle)
		}
		res = s.table.Open(a.Handle, cid, a.WriteMode)
		if res.TableFull {
			return rpc.Encode((&proto.OpenReply{Status: proto.ErrTableFull}).XDR)
		}
	}
	// A client that cannot serve its callback is down (§3.2): the open
	// is honored, but if dirty data was at stake the opener is warned.
	inconsistent := s.deliver(p, res.Callbacks...) || res.Inconsistent
	// Attributes are fetched after callbacks so forced write-backs are
	// reflected (size, mtime).
	attr, st := s.handle(a.Handle)
	if st != proto.OK {
		return rpc.Encode((&proto.OpenReply{Status: st}).XDR)
	}
	status := proto.OK
	if inconsistent {
		status = proto.ErrInconsistent
	}
	return rpc.Encode((&proto.OpenReply{
		Status:       status,
		CacheEnabled: res.CacheEnabled,
		Version:      res.Version,
		PrevVersion:  res.PrevVersion,
		Attr:         s.fattr(attr),
	}).XDR)
}

func (s *SNFSServer) serveClose(p *sim.Proc, from simnet.Addr, a *proto.CloseArgs) rpc.Reply {
	lk := s.lockFor(a.Handle)
	lk.Lock(p)
	defer lk.Unlock()
	s.table.Close(a.Handle, core.ClientID(from), a.WriteMode)
	if a.WantAttr {
		// Post-op attributes save the getattr that commonly trails a
		// close; journaled so the audit can correlate client views.
		s.sinks.Auditor.NoteEvent(p.Op(), "close-wcc", a.Handle, string(from), "")
		return s.wccReply(proto.OK, a.Handle)
	}
	return rpc.Encode((&proto.StatusReply{Status: proto.OK}).XDR)
}

func (s *SNFSServer) serveReopen(p *sim.Proc, from simnet.Addr, a *proto.ReopenArgs) rpc.Reply {
	attr, st := s.handle(a.Handle)
	if st != proto.OK {
		return rpc.Encode((&proto.OpenReply{Status: st}).XDR)
	}
	lk := s.lockFor(a.Handle)
	lk.Lock(p)
	defer lk.Unlock()
	cid := core.ClientID(from)
	s.table.Recover(a.Handle, cid, a.Readers, a.Writers, a.Version, a.HasDirty)
	return rpc.Encode((&proto.OpenReply{
		Status:       proto.OK,
		CacheEnabled: s.table.CachingFor(a.Handle, cid) || (a.HasDirty && a.Readers == 0 && a.Writers == 0),
		Version:      s.table.Version(a.Handle),
		PrevVersion:  s.table.Version(a.Handle),
		Attr:         s.fattr(attr),
	}).XDR)
}

// serveHybrid implements §6.1: a data or attribute access from a client
// with no open registered (a plain NFS client) is bracketed by an
// implicit open and close, so SNFS clients' caches stay consistent with
// NFS traffic — and the NFS client sees post-write-back attributes.
// Writes from a file's last writer (delayed write-back and callback-
// forced flushes arrive without an open) are exempt.
func (s *SNFSServer) serveHybrid(p *sim.Proc, from simnet.Addr, proc uint32, a *callArgs) (rpc.Reply, rpc.Status, bool) {
	var h proto.Handle
	var isWrite bool
	switch proc {
	case proto.ProcRead:
		h = a.read.Handle
	case proto.ProcWrite:
		h, isWrite = a.write.Handle, true
	case proto.ProcGetattr:
		h = a.file.Handle
	case proto.ProcSetattr:
		h, isWrite = a.setattr.Handle, true
	default:
		return rpc.Reply{}, rpc.StatusOK, false
	}
	cid := core.ClientID(from)
	if s.table.HasClient(h, cid) || s.table.LastWriter(h) == cid || s.inCallback[cbKey{h, cid}] > 0 {
		return rpc.Reply{}, rpc.StatusOK, false // a participating SNFS client
	}
	if s.table.State(h) == core.StateClosed && s.table.Len() == 0 {
		// Nothing under SNFS state anywhere: plain NFS op.
		return rpc.Reply{}, rpc.StatusOK, false
	}
	lk := s.lockFor(h)
	lk.Lock(p)
	s.deliver(p, s.table.Open(h, cid, isWrite).Callbacks...)
	lk.Unlock()
	// A READ reply's data is a view the store froze, so the reply keeps
	// its read instant across the lock wait below.
	body, st := s.serveCommon(p, proc, a)
	lk.Lock(p)
	s.table.Close(h, cid, isWrite)
	lk.Unlock()
	return body, st, true
}

// Expel forces every client out of h's cache and drops its consistency
// state: each client with an open or cached copy (including a
// closed-dirty last writer) is called back to write dirty blocks through
// and invalidate. The cluster
// layer quiesces files this way before migrating a subtree to another
// shard — after Expel returns, the store holds the only copy of the
// file's bytes and no client may use a cached block without reopening
// (which, post-migration, earns ErrStale and a re-walk to the new home).
func (s *SNFSServer) Expel(p *sim.Proc, h proto.Handle) {
	lk := s.lockFor(h)
	lk.Lock(p)
	defer lk.Unlock()
	cbs := s.table.DropWithInvalidate(h, "")
	for i := range cbs {
		// Unlike a truncating create, the contents survive the move:
		// dirty delayed writes must come back before the copy.
		cbs[i].WriteBack = true
	}
	s.deliver(p, cbs...)
}

// dumpState snapshots the consistency table for the administrative dump
// procedure.
func (s *SNFSServer) dumpState() rpc.Reply {
	r := proto.DumpStateReply{Status: proto.OK, Epoch: s.incarnation}
	for _, e := range s.table.Snapshot() {
		de := proto.DumpEntry{
			Handle:       e.Handle,
			State:        uint32(e.State),
			StateName:    e.State.String(),
			Version:      e.Version,
			LastWriter:   string(e.LastWriter),
			Inconsistent: e.Inconsistent,
		}
		for _, c := range e.Clients {
			de.Clients = append(de.Clients, proto.DumpClient{
				Client:  string(c.Client),
				Readers: uint32(c.Readers),
				Writers: uint32(c.Writers),
				Caching: c.Caching,
			})
		}
		r.Entries = append(r.Entries, de)
	}
	return rpc.Encode(r.XDR)
}
