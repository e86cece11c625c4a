package server

import (
	"fmt"
	"sync/atomic"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/core"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/xdr"
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
// plus the open/close/callback consistency machinery of §3 and §4.3.
//
// Callback delivery is bounded to Workers-1 concurrent callbacks, the
// paper's rule for avoiding deadlock: a callback blocks a worker until
// the client's forced write-backs complete, and those write-backs are
// WRITE calls that need a free worker of their own.
type SNFSServer struct {
	*Base
	table      *core.Table
	locks      map[proto.Handle]*sim.Mutex
	cbSem      *sim.Semaphore
	opts       SNFSOptions
	epoch      uint64
	graceUntil sim.Time
	crashed    bool
	locksTab   *lockTable
	// inCallback tracks clients currently being called back for a
	// handle, so their forced write-backs are never mistaken for new
	// plain-NFS traffic by the hybrid path (that would deadlock
	// against the entry lock held across the callback).
	inCallback map[cbKey]int
	// cbOutstanding counts callbacks currently in flight (issued, reply
	// not yet received) for the observability gauges.
	cbOutstanding atomic.Int64
	auditor       *audit.Auditor

	// Backup role: the event-sourced image of the primary's state table
	// plus stream progress, consumed by Promote (repl.go).
	mirror       map[proto.Handle]*mirrorEntry
	replApplied  uint64
	replGap      bool
	primEpoch    uint64
	primVerifier uint64
	promoted     bool
	promotedAt   sim.Time
	healed       bool
	healedAt     sim.Time
}

type cbKey struct {
	h proto.Handle
	c core.ClientID
}

// NewSNFS creates a Spritely NFS server on ep.
func NewSNFS(k *sim.Kernel, ep *rpc.Endpoint, media *localfs.Media, cfg Config, opts SNFSOptions) *SNFSServer {
	if opts.GraceDur == 0 {
		opts.GraceDur = 2 * sim.Second
	}
	s := &SNFSServer{
		Base:       newBase(k, ep, media, cfg),
		table:      core.NewTable(opts.TableLimit),
		locks:      make(map[proto.Handle]*sim.Mutex),
		cbSem:      sim.NewSemaphore(k, maxInt(1, ep.Workers()-1)),
		opts:       opts,
		epoch:      1,
		locksTab:   newLockTable(),
		inCallback: make(map[cbKey]int),
		mirror:     make(map[proto.Handle]*mirrorEntry),
	}
	s.onRemoved = func(h proto.Handle) {
		s.table.Drop(h)
		s.locksTab.drop(h)
	}
	s.table.Observer = s.observeTransition
	ep.RegisterMsg(proto.ProgNFS, s.serve)
	return s
}

// observeTransition is the state table's single Observer slot, fanning
// each mutation out to every attached consumer: the auditor's shadow
// machine and the flight recorder (both nil-safe).
func (s *SNFSServer) observeTransition(ev core.TransitionEvent) {
	s.auditor.OnTransition(ev)
	if s.repl != nil {
		s.repl.noteTransition(ev)
	}
	if s.flight != nil {
		s.flight.Recordf(string(s.ep.Addr()), "state", s.k.CurrentOp(),
			"%s %s %s: %s -> %s v%d", ev.Event, ev.Handle, ev.Client, ev.From, ev.To, ev.Version)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// EnableMetrics attaches a metrics registry: the base gauges plus the
// state-table view the protocol revolves around — entries per Table 4-1
// state, table occupancy, outstanding callbacks, and the cumulative
// reclaim/callback/inconsistency counts.
func (s *SNFSServer) EnableMetrics(r *metrics.Registry) {
	s.Base.EnableMetrics(r)
	for st := core.StateClosed; st <= core.StateWriteShared; st++ {
		st := st
		r.GaugeFunc(metrics.Label("snfs_server_state_entries", "state", st.String()),
			func() float64 { return float64(s.table.StateCount(st)) })
	}
	r.GaugeFunc("snfs_server_state_table_size",
		func() float64 { return float64(s.table.Len()) })
	r.GaugeFunc("snfs_server_callbacks_outstanding",
		func() float64 { return float64(s.cbOutstanding.Load()) })
	r.GaugeFunc("snfs_server_callbacks_issued_total",
		func() float64 { return float64(s.table.Stats().CallbacksIssued) })
	r.GaugeFunc("snfs_server_reclaims_total",
		func() float64 { return float64(s.table.Stats().Reclaims) })
	r.GaugeFunc("snfs_server_inconsistencies_total",
		func() float64 { return float64(s.table.Stats().Inconsistencies) })
	r.GaugeFunc("snfs_server_version_bumps_total",
		func() float64 { return float64(s.table.Stats().VersionBumps) })
}

// SetAuditor attaches a protocol auditor: the state table feeds it every
// transition, and callback fan-out is journaled. Survives Reboot.
func (s *SNFSServer) SetAuditor(a *audit.Auditor) {
	s.auditor = a
	s.table.Observer = s.observeTransition
}

// clientDead records the loss of a client everywhere: state table and
// lock table.
func (s *SNFSServer) clientDead(c core.ClientID) {
	s.table.ClientDead(c)
	s.locksTab.clientDead(c)
}

// Table exposes the state table (for tests and stats).
func (s *SNFSServer) Table() *core.Table { return s.table }

// Epoch returns the server incarnation number.
func (s *SNFSServer) Epoch() uint64 { return s.epoch }

// InGrace reports whether the server is in its recovery window.
func (s *SNFSServer) InGrace() bool { return s.k.Now() < s.graceUntil }

// Crashed reports whether the server is currently down.
func (s *SNFSServer) Crashed() bool { return s.crashed }

func (s *SNFSServer) lockFor(h proto.Handle) *sim.Mutex {
	m, ok := s.locks[h]
	if !ok {
		m = sim.NewMutex(s.k)
		s.locks[h] = m
	}
	return m
}

// Crash detaches the server from the network, losing all volatile state
// when it reboots.
func (s *SNFSServer) Crash() {
	s.Tracer().Record("server", trace.Crash, "server crash (epoch %d)", s.epoch)
	s.flight.Recordf(string(s.ep.Addr()), "crash", 0, "server crash (epoch %d)", s.epoch)
	s.crashed = true
	// The buffer cache dies with the server: unstable writes that no
	// COMMIT has landed are gone, and the bumped verifier at reboot is
	// how their writers find out.
	if lost := s.media.DropDirty(); lost > 0 {
		s.Tracer().Record("server", trace.Crash, "crash dropped %d uncommitted dirty blocks", lost)
	}
	s.ep.Stop()
}

// Reboot restarts a crashed server with an empty state table and a fresh
// epoch, entering the grace period during which clients re-register their
// opens (§2.4).
func (s *SNFSServer) Reboot() {
	if !s.crashed {
		return
	}
	s.crashed = false
	s.epoch++
	// The write verifier is the crash epoch: advancing it here is what
	// turns a reboot into a visible event for unstable-write clients.
	s.verifier++
	s.table = core.NewTable(s.opts.TableLimit)
	s.locksTab = newLockTable()
	s.onRemoved = func(h proto.Handle) {
		s.table.Drop(h)
		s.locksTab.drop(h)
	}
	s.locks = make(map[proto.Handle]*sim.Mutex)
	s.graceUntil = s.k.Now().Add(s.opts.GraceDur)
	s.ep.Restart()
	s.table.Tracer = s.Tracer()
	s.table.Observer = s.observeTransition
	if s.auditor != nil {
		s.auditor.ServerRebooted()
	}
	s.Tracer().Record("server", trace.Crash, "server reboot (epoch %d, grace until %v)", s.epoch, s.graceUntil)
	s.flight.Recordf(string(s.ep.Addr()), "crash", 0, "server reboot (epoch %d)", s.epoch)
}

func (s *SNFSServer) serve(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) (proto.Message, rpc.Status) {
	s.recordServe(p, from, proc)
	// The replication stream is handled ahead of the ownership guard: a
	// backup is by definition not its shard's owner, and a new primary
	// must still answer (ErrDemoted) so a partitioned old primary learns.
	switch proc {
	case proto.ProcReplStream:
		return s.serveReplStream(p, from, args), rpc.StatusOK
	case proto.ProcReplSync:
		return s.serveReplSync(p, from, args), rpc.StatusOK
	}
	if body, rejected := s.ownerCheck(p, proc); rejected {
		return body, rpc.StatusOK
	}
	s.noteHealed(from, proc)
	switch proc {
	case proto.ProcOpen:
		return s.serveOpen(p, from, args), rpc.StatusOK
	case proto.ProcClose:
		return s.serveClose(p, from, args), rpc.StatusOK
	case proto.ProcReopen:
		return s.serveReopen(p, from, args), rpc.StatusOK
	case proto.ProcServerInfo:
		s.chargeCPU(p, 0)
		s.account(proc)
		return &proto.ServerInfoReply{
			Status: proto.OK, Epoch: s.epoch, InGrace: s.InGrace(),
		}, rpc.StatusOK
	case proto.ProcDumpState:
		s.chargeCPU(p, 0)
		s.account(proc)
		return s.dumpState(), rpc.StatusOK
	case proto.ProcAudit:
		s.chargeCPU(p, 0)
		s.account(proc)
		return &proto.AuditReply{
			Status: proto.OK, Text: s.auditor.Summary(),
		}, rpc.StatusOK
	case proto.ProcLock, proto.ProcUnlock:
		return s.serveLock(p, from, proc, args)
	}
	// The shard route guard runs before the hybrid/name-cache hooks so a
	// misrouted operation is bounced without delivering any callbacks.
	if body, rejected := s.routeCheck(p, proc, args); rejected {
		return body, rpc.StatusOK
	}
	if proc == proto.ProcCommit && s.auditor != nil {
		// Journal commits: the durability point the no-lost-committed-
		// data check pivots on.
		h := proto.DecodeCommitArgs(xdr.NewDecoder(args)).Handle
		s.auditor.NoteEvent(p.Op(), "commit", h, string(from),
			fmt.Sprintf("verifier %d, epoch %d", s.verifier, s.epoch))
	}
	if s.auditor != nil {
		// Journal the compound procedures so the audit trail shows the
		// attribute observations they hand the client.
		switch proc {
		case proto.ProcLookupPath:
			a := proto.DecodeLookupPathArgs(xdr.NewDecoder(args))
			s.auditor.NoteEvent(p.Op(), "lookuppath", a.Dir, string(from),
				fmt.Sprintf("%d components", len(a.Names)))
		case proto.ProcReaddirAttrs:
			a := proto.DecodeHandleArgs(xdr.NewDecoder(args))
			s.auditor.NoteEvent(p.Op(), "readdirattrs", a.Handle, string(from), "")
		}
	}
	if s.opts.Hybrid {
		if body, st, done := s.serveHybrid(p, from, proc, args); done {
			return body, st
		}
	}
	if s.opts.NameCacheProtocol {
		s.invalidateNameCaches(p, from, proc, args)
	}
	if proc == proto.ProcCreate {
		// A create over an existing file truncates it in place (same
		// inode): clients caching the old contents — including a last
		// writer holding dirty blocks — must drop them first, or a
		// later write-back would resurrect the dead data.
		s.truncateOnCreate(p, from, args)
	}
	body, st, handled := s.serveCommon(p, proc, args)
	if !handled {
		return nil, rpc.StatusProcUnavail
	}
	return body, st
}

// invalidateNameCaches runs before a namespace mutation: every other
// client holding a caching read-open on the affected directory is called
// back to drop its cached name translations (§7 extension). The mutation
// itself then proceeds normally.
func (s *SNFSServer) invalidateNameCaches(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) {
	var dirs []proto.Handle
	d := xdr.NewDecoder(args)
	switch proc {
	case proto.ProcCreate, proto.ProcMkdir:
		dirs = append(dirs, proto.DecodeCreateArgs(d).Dir)
	case proto.ProcSymlink:
		dirs = append(dirs, proto.DecodeSymlinkArgs(d).Dir)
	case proto.ProcLink:
		dirs = append(dirs, proto.DecodeLinkArgs(d).ToDir)
	case proto.ProcRemove, proto.ProcRmdir:
		dirs = append(dirs, proto.DecodeDirOpArgs(d).Dir)
	case proto.ProcRename:
		a := proto.DecodeRenameArgs(d)
		dirs = append(dirs, a.SrcDir)
		if a.DstDir != a.SrcDir {
			dirs = append(dirs, a.DstDir)
		}
	default:
		return
	}
	cid := core.ClientID(from)
	for _, dir := range dirs {
		lk := s.lockFor(dir)
		lk.Lock(p)
		cbs := s.table.InvalidateReaders(dir, cid)
		for _, cb := range cbs {
			if err := s.deliverCallback(p, cb); err != nil {
				s.clientDead(cb.Client)
			}
		}
		lk.Unlock()
	}
}

// truncateOnCreate delivers invalidations for a create that will
// truncate an existing file.
func (s *SNFSServer) truncateOnCreate(p *sim.Proc, from simnet.Addr, args []byte) {
	a := proto.DecodeCreateArgs(xdr.NewDecoder(args))
	existing, err := s.media.Store().Lookup(a.Dir.Ino, a.Name)
	if err != nil {
		return // fresh create: nothing cached anywhere
	}
	h := s.toHandle(existing)
	lk := s.lockFor(h)
	lk.Lock(p)
	defer lk.Unlock()
	for _, cb := range s.table.DropWithInvalidate(h, core.ClientID(from)) {
		if err := s.deliverCallback(p, cb); err != nil {
			s.clientDead(cb.Client)
		}
	}
}

func (s *SNFSServer) serveOpen(p *sim.Proc, from simnet.Addr, args []byte) proto.Message {
	a := proto.DecodeOpenArgs(xdr.NewDecoder(args))
	s.chargeCPU(p, 0)
	s.account(proto.ProcOpen)
	if _, st := s.handle(a.Handle); st != proto.OK {
		return &proto.OpenReply{Status: st}
	}
	if s.InGrace() {
		return &proto.OpenReply{Status: proto.ErrGrace}
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
			if err := s.deliverCallback(p, cb); err != nil {
				s.clientDead(cb.Client)
			}
			s.table.Reclaimed(cb.Handle)
		}
		res = s.table.Open(a.Handle, cid, a.WriteMode)
		if res.TableFull {
			return &proto.OpenReply{Status: proto.ErrTableFull}
		}
	}
	inconsistent := res.Inconsistent
	for _, cb := range res.Callbacks {
		if err := s.deliverCallback(p, cb); err != nil {
			// The client serving the callback is down (§3.2):
			// honor the open, but if dirty data was at stake,
			// warn the opener.
			s.clientDead(cb.Client)
			if cb.WriteBack {
				inconsistent = true
			}
		}
	}
	// Attributes are fetched after callbacks so forced write-backs are
	// reflected (size, mtime).
	attr, st := s.handle(a.Handle)
	if st != proto.OK {
		return &proto.OpenReply{Status: st}
	}
	status := proto.OK
	if inconsistent {
		status = proto.ErrInconsistent
	}
	return &proto.OpenReply{
		Status:       status,
		CacheEnabled: res.CacheEnabled,
		Version:      res.Version,
		PrevVersion:  res.PrevVersion,
		Attr:         s.fattr(attr),
	}
}

func (s *SNFSServer) serveClose(p *sim.Proc, from simnet.Addr, args []byte) proto.Message {
	d := xdr.NewDecoder(args)
	a := proto.DecodeCloseArgs(d)
	wantAttr := proto.DecodeWantAttr(d)
	s.chargeCPU(p, 0)
	s.account(proto.ProcClose)
	lk := s.lockFor(a.Handle)
	lk.Lock(p)
	defer lk.Unlock()
	s.table.Close(a.Handle, core.ClientID(from), a.WriteMode)
	if wantAttr {
		// Post-op attributes save the getattr that commonly trails a
		// close; journaled so the audit can correlate client views.
		s.auditor.NoteEvent(p.Op(), "close-wcc", a.Handle, string(from), "")
		return s.wccReply(proto.OK, a.Handle)
	}
	return &proto.StatusReply{Status: proto.OK}
}

func (s *SNFSServer) serveReopen(p *sim.Proc, from simnet.Addr, args []byte) proto.Message {
	a := proto.DecodeReopenArgs(xdr.NewDecoder(args))
	s.chargeCPU(p, 0)
	s.account(proto.ProcReopen)
	attr, st := s.handle(a.Handle)
	if st != proto.OK {
		return &proto.OpenReply{Status: st}
	}
	lk := s.lockFor(a.Handle)
	lk.Lock(p)
	defer lk.Unlock()
	cid := core.ClientID(from)
	s.table.Recover(a.Handle, cid, a.Readers, a.Writers, a.Version, a.HasDirty)
	return &proto.OpenReply{
		Status:       proto.OK,
		CacheEnabled: s.table.CachingFor(a.Handle, cid) || (a.HasDirty && a.Readers == 0 && a.Writers == 0),
		Version:      s.table.Version(a.Handle),
		PrevVersion:  s.table.Version(a.Handle),
		Attr:         s.fattr(attr),
	}
}

// serveHybrid implements §6.1: a data or attribute access from a client
// with no open registered (a plain NFS client) is bracketed by an
// implicit open and close, so SNFS clients' caches stay consistent with
// NFS traffic — and the NFS client sees post-write-back attributes.
// Writes from a file's last writer (delayed write-back and callback-
// forced flushes arrive without an open) are exempt.
func (s *SNFSServer) serveHybrid(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) (proto.Message, rpc.Status, bool) {
	var h proto.Handle
	var isWrite bool
	d := xdr.NewDecoder(args)
	switch proc {
	case proto.ProcRead:
		h = proto.DecodeReadArgs(d).Handle
	case proto.ProcWrite:
		h = proto.DecodeWriteArgs(d).Handle
		isWrite = true
	case proto.ProcGetattr:
		h = proto.DecodeHandleArgs(d).Handle
	case proto.ProcSetattr:
		h = proto.DecodeSetattrArgs(d).Handle
		isWrite = true
	default:
		return nil, rpc.StatusOK, false
	}
	cid := core.ClientID(from)
	if s.table.CachingFor(h, cid) || s.hasOpen(h, cid) || s.table.LastWriter(h) == cid ||
		s.inCallback[cbKey{h, cid}] > 0 {
		return nil, rpc.StatusOK, false // a participating SNFS client
	}
	if s.table.State(h) == core.StateClosed && s.table.Len() == 0 {
		// Nothing under SNFS state anywhere: plain NFS op.
		return nil, rpc.StatusOK, false
	}
	lk := s.lockFor(h)
	lk.Lock(p)
	res := s.table.Open(h, cid, isWrite)
	for _, cb := range res.Callbacks {
		if err := s.deliverCallback(p, cb); err != nil {
			s.clientDead(cb.Client)
		}
	}
	lk.Unlock()
	body, st, _ := s.serveCommon(p, proc, args)
	lk.Lock(p)
	s.table.Close(h, cid, isWrite)
	lk.Unlock()
	return body, st, true
}

// hasOpen reports whether client c has any registered open of h.
func (s *SNFSServer) hasOpen(h proto.Handle, c core.ClientID) bool {
	// The table has no direct accessor for this; CachingFor covers the
	// caching case, and for non-caching (write-shared) participants we
	// check the open counts via CachingClients' complement. A small
	// dedicated accessor keeps this honest.
	return s.table.HasClient(h, c)
}

// deliverCallback sends one callback RPC to a client and waits for it
// (including any write-backs it triggers), bounded by the Workers-1
// semaphore.
func (s *SNFSServer) deliverCallback(p *sim.Proc, cb core.Callback) error {
	s.cbSem.Acquire(p)
	defer s.cbSem.Release()
	s.cbOutstanding.Add(1)
	defer s.cbOutstanding.Add(-1)
	if tr := s.Tracer(); tr != nil { // variadic args are boxed even for a nil tracer
		tr.RecordOp("server", trace.Callback, p.Op(), "-> %s %s writeback=%v invalidate=%v",
			cb.Client, cb.Handle, cb.WriteBack, cb.Invalidate)
	}
	if s.Flight() != nil {
		s.Flight().Recordf(string(s.Endpoint().Addr()), "callback", p.Op(),
			"-> %s %s writeback=%v invalidate=%v", cb.Client, cb.Handle, cb.WriteBack, cb.Invalidate)
	}
	if s.auditor != nil {
		s.auditor.NoteEvent(p.Op(), "callback", cb.Handle, string(cb.Client),
			fmt.Sprintf("writeback=%v invalidate=%v", cb.WriteBack, cb.Invalidate))
	}
	k := cbKey{cb.Handle, cb.Client}
	s.inCallback[k]++
	defer func() {
		s.inCallback[k]--
		if s.inCallback[k] == 0 {
			delete(s.inCallback, k)
		}
	}()
	s.ops.Inc("callback")
	args := &proto.CallbackArgs{
		Handle:     cb.Handle,
		WriteBack:  cb.WriteBack,
		Invalidate: cb.Invalidate,
	}
	// Tight retry budget: a callback to a dead client must be declared
	// failed before the open that triggered it times out at its client
	// (§3.2: the opener retries harmlessly, but must not give up first).
	body, err := s.ep.CallMsgEx(p, simnet.Addr(cb.Client), proto.ProgCallback, 1, proto.CbProcCallback, args,
		sim.Second, 2)
	if err != nil {
		return err
	}
	r := proto.DecodeStatusReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		return fmt.Errorf("callback to %s: %s", cb.Client, r.Status)
	}
	return nil
}

// Expel forces every client out of h's cache and drops its consistency
// state: each client with an open or cached copy (including a
// closed-dirty last writer) is called back to write dirty blocks through
// and invalidate, and any advisory locks are discarded. The cluster
// layer quiesces files this way before migrating a subtree to another
// shard — after Expel returns, the store holds the only copy of the
// file's bytes and no client may use a cached block without reopening
// (which, post-migration, earns ErrStale and a re-walk to the new home).
func (s *SNFSServer) Expel(p *sim.Proc, h proto.Handle) {
	lk := s.lockFor(h)
	lk.Lock(p)
	defer lk.Unlock()
	for _, cb := range s.table.DropWithInvalidate(h, "") {
		// Unlike a truncating create, the contents survive the move:
		// dirty delayed writes must come back before the copy.
		cb.WriteBack = true
		if err := s.deliverCallback(p, cb); err != nil {
			s.clientDead(cb.Client)
		}
	}
	s.locksTab.drop(h)
}

// ReclaimIdle proactively reclaims closed-dirty entries when the table is
// within margin of its limit; servers may run this from a housekeeping
// process.
func (s *SNFSServer) ReclaimIdle(p *sim.Proc, margin int) int {
	if !s.table.NeedsReclaim(margin) {
		return 0
	}
	n := 0
	for _, cb := range s.table.ReclaimCandidates(margin) {
		if err := s.deliverCallback(p, cb); err != nil {
			s.clientDead(cb.Client)
		}
		s.table.Reclaimed(cb.Handle)
		n++
	}
	return n
}

// dumpState snapshots the consistency table for the administrative dump
// procedure.
func (s *SNFSServer) dumpState() *proto.DumpStateReply {
	r := &proto.DumpStateReply{Status: proto.OK, Epoch: s.epoch}
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
	return r
}
