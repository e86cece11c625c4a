package server

import (
	"sort"

	"spritelynfs/internal/core"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/xdr"
)

// Primary/backup replication for a sharded SNFS server.
//
// The primary and its backup share one Store (the durable bytes survive a
// primary crash the way a dual-ported disk would), so what the stream
// carries is exactly the volatile state a failover must not lose: every
// state-table transition, every write/commit charged to the primary's
// media (so the backup's cache and disk mirror the primary's warmth and
// durability work), and the duplicate-cache entry of every non-idempotent
// reply (so a retransmission that crosses the failover is answered from
// the cache instead of re-executed).
//
// The stream is asynchronous — a bounded queue drained by a sender
// process — with ProcReplSync as the explicit barrier the view-change
// protocol uses before a primary acknowledges a view. If the queue ever
// overflows, the dropped records consume sequence numbers, the backup
// sees the gap, and its pings report unsynced: the viewservice will then
// refuse to promote it, which is the safe failure.

const (
	// replQueueMax bounds the primary's outgoing record queue.
	replQueueMax = 8192
	// replBatchMax bounds records per ProcReplStream call.
	replBatchMax = 64
)

// Replicator is the primary side of the stream.
type Replicator struct {
	k        *sim.Kernel
	ep       *rpc.Endpoint
	backup   simnet.Addr
	shard    uint32
	crashed  func() bool
	epoch    func() uint64
	verifier func() uint64
	// onDemoted fires when the backup answers ErrDemoted: a newer map
	// names it primary, and this server must stop streaming and install
	// the map (self-demotion closes the split-brain window left by a
	// primary partitioned from the viewservice but not its clients).
	onDemoted func(m proto.ShardMap)

	q       *sim.Queue[proto.ReplRecord]
	lastSeq uint64 // highest sequence number assigned
	acked   uint64 // highest sequence number the backup confirmed
	gap     bool   // records were dropped; the backup can no longer sync
	stopped bool   // demoted: discard everything
}

// StartReplication begins streaming this server's consistency state,
// charged writes, and non-idempotent reply cache to a backup. onDemoted,
// if non-nil, additionally observes a self-demotion (the newer map is
// always installed first).
func (s *SNFSServer) StartReplication(backup simnet.Addr, onDemoted func(proto.ShardMap)) *Replicator {
	r := &Replicator{
		k:        s.k,
		ep:       s.ep,
		backup:   backup,
		shard:    s.shardID,
		crashed:  func() bool { return s.crashed },
		epoch:    func() uint64 { return s.epoch },
		verifier: func() uint64 { return s.verifier },
		q:        sim.NewQueue[proto.ReplRecord](s.k),
	}
	r.onDemoted = func(m proto.ShardMap) {
		s.SetShardMap(m, s.shardID)
		s.Tracer().Record("server", trace.Crash, "demoted by %s (map v%d)", backup, m.Version)
		s.flight.Recordf(string(s.ep.Addr()), "crash", 0, "demoted: map v%d names a new primary", m.Version)
		if onDemoted != nil {
			onDemoted(m)
		}
	}
	s.repl = r
	s.ep.OnServed = r.noteServed
	s.k.Go(string(s.ep.Addr())+"/repl-sender", r.sender)
	return r
}

// enqueue assigns the next sequence number and queues rec. A full queue
// drops the record but still consumes its sequence number, so the backup
// detects the hole and reports itself unsynced.
func (r *Replicator) enqueue(rec proto.ReplRecord) {
	if r.stopped || (r.crashed != nil && r.crashed()) {
		return
	}
	r.lastSeq++
	if r.q.Len() >= replQueueMax {
		r.gap = true
		return
	}
	rec.Seq = r.lastSeq
	r.q.Put(rec)
}

// noteTransition queues a state-table transition for the backup's mirror.
func (r *Replicator) noteTransition(ev core.TransitionEvent) {
	rec := proto.ReplRecord{
		Kind:       proto.ReplTransition,
		Event:      ev.Event,
		Handle:     ev.Handle,
		Client:     string(ev.Client),
		To:         uint32(ev.To),
		Version:    ev.Version,
		LastWriter: string(ev.LastWriter),
		HasDirty:   ev.HasDirty,
		Dropped:    ev.Dropped,
	}
	switch ev.Event {
	case "open", "close":
		// Project the open mode into a count delta.
		if ev.Write {
			rec.Writers = 1
		} else {
			rec.Readers = 1
		}
	case "recover":
		rec.Readers, rec.Writers = ev.Readers, ev.Writers
	}
	r.enqueue(rec)
}

// noteWrite queues one charged write.
func (r *Replicator) noteWrite(ino uint64, off int64, n int, unstable bool) {
	r.enqueue(proto.ReplRecord{
		Kind: proto.ReplWrite, Ino: ino, Offset: off, Length: uint32(n), Unstable: unstable,
	})
}

// noteCommit queues one COMMIT.
func (r *Replicator) noteCommit(ino uint64) {
	r.enqueue(proto.ReplRecord{Kind: proto.ReplCommit, Ino: ino})
}

// noteServed is the endpoint's OnServed hook: replicate the dupcache
// entry of every non-idempotent reply, so a retransmission arriving after
// failover is answered from the backup's cache instead of re-executed.
func (r *Replicator) noteServed(from simnet.Addr, xid, prog, vers, proc uint32, wire []byte) {
	if prog != proto.ProgNFS || !nonIdempotent(proc) {
		return
	}
	r.enqueue(proto.ReplRecord{
		Kind: proto.ReplDup, From: string(from), Xid: xid, Wire: wire,
	})
}

// nonIdempotent reports whether re-executing proc can change the outcome
// (the procedures whose dupcache entries are worth replicating).
func nonIdempotent(proc uint32) bool {
	switch proc {
	case proto.ProcCreate, proto.ProcRemove, proto.ProcRename, proto.ProcMkdir,
		proto.ProcRmdir, proto.ProcLink, proto.ProcSymlink, proto.ProcSetattr,
		proto.ProcOpen, proto.ProcClose, proto.ProcLock, proto.ProcUnlock:
		return true
	}
	return false
}

// Status reports replication health for the viewservice ping: synced
// means the backup has confirmed every assigned sequence number and no
// record was ever dropped. Lag is the unconfirmed record count.
func (r *Replicator) Status() (synced bool, lag uint32) {
	pending := uint32(r.lastSeq - r.acked)
	return !r.gap && !r.stopped && pending == 0, pending
}

// Lag returns the number of records assigned but not yet confirmed.
func (r *Replicator) Lag() int { return int(r.lastSeq - r.acked) }

// Stop shuts the stream down for good: demotion, or the viewservice
// declaring the backup dead. Queued records are abandoned.
func (r *Replicator) Stop() { r.stopped = true }

// Sync is the barrier: it waits until the backup confirms every record
// assigned so far, then verifies with an explicit ProcReplSync round
// trip. It returns false if the stream has a gap, was demoted, or the
// backup stays unreachable.
func (r *Replicator) Sync(p *sim.Proc) bool {
	target := r.lastSeq
	for i := 0; i < 400; i++ {
		if r.gap || r.stopped {
			return false
		}
		if r.acked >= target {
			args := &proto.ReplSyncArgs{Shard: r.shard, Seq: target}
			body, err := r.ep.CallMsgEx(p, r.backup, proto.ProgNFS, proto.VersNFS, proto.ProcReplSync,
				args, 200*sim.Millisecond, 1)
			if err == nil {
				rep := proto.DecodeReplSyncReply(xdr.NewDecoder(body))
				if rep.Status == proto.OK && rep.Synced {
					return true
				}
				if rep.Status == proto.ErrDemoted {
					return false
				}
			}
		}
		p.Sleep(5 * sim.Millisecond)
	}
	return false
}

// sender drains the queue in batches. Send failures retry the same batch
// (same sequence numbers — the backup deduplicates), pausing while the
// host is crashed: a dead machine transmits nothing.
func (r *Replicator) sender(p *sim.Proc) {
	for {
		first := r.q.Get(p)
		batch := []proto.ReplRecord{first}
		for len(batch) < replBatchMax {
			rec, ok := r.q.TryGet()
			if !ok {
				break
			}
			batch = append(batch, rec)
		}
		for !r.stopped {
			if r.crashed != nil && r.crashed() {
				p.Sleep(100 * sim.Millisecond)
				continue
			}
			if r.send(p, batch) {
				break
			}
			p.Sleep(50 * sim.Millisecond)
		}
	}
}

// send transmits one batch; true means the batch is settled (acked, or
// the stream is over).
func (r *Replicator) send(p *sim.Proc, batch []proto.ReplRecord) bool {
	args := &proto.ReplStreamArgs{
		Shard: r.shard, Epoch: r.epoch(), Verifier: r.verifier(), Records: batch,
	}
	body, err := r.ep.CallMsgEx(p, r.backup, proto.ProgNFS, proto.VersNFS, proto.ProcReplStream,
		args, 500*sim.Millisecond, 1)
	if err != nil {
		return false
	}
	rep := proto.DecodeReplStreamReply(xdr.NewDecoder(body))
	switch rep.Status {
	case proto.OK:
		if rep.Applied > r.acked {
			r.acked = rep.Applied
		}
		return true
	case proto.ErrDemoted:
		r.stopped = true
		if r.onDemoted != nil {
			r.onDemoted(rep.Map)
		}
		return true
	}
	return false
}

// mirrorClient is one client's open counts within a mirrored entry.
type mirrorClient struct {
	readers, writers uint32
}

// mirrorEntry is the backup's image of one state-table entry, maintained
// event-sourced from the transition stream. It holds exactly what Promote
// needs to replay through Table.Recover — the same reconstruction a
// rebooted server performs from client reopens (§2.4), driven from the
// mirror instead of the network.
type mirrorEntry struct {
	state      core.FileState
	version    uint32
	lastWriter string
	clients    map[string]*mirrorClient
}

func (e *mirrorEntry) client(c string) *mirrorClient {
	cl, ok := e.clients[c]
	if !ok {
		cl = &mirrorClient{}
		e.clients[c] = cl
	}
	return cl
}

// serveReplStream applies one batch of the primary's stream. If this
// server has itself become the shard's primary (per its own, newer map),
// it refuses with ErrDemoted and returns the map, so a partitioned old
// primary self-demotes instead of split-braining.
func (s *SNFSServer) serveReplStream(p *sim.Proc, from simnet.Addr, args []byte) proto.Message {
	a := proto.DecodeReplStreamArgs(xdr.NewDecoder(args))
	s.chargeCPU(p, 0)
	s.account(proto.ProcReplStream)
	if s.isOwner() {
		return &proto.ReplStreamReply{
			Status: proto.ErrDemoted, Applied: s.replApplied, Map: s.shardMap,
		}
	}
	if a.Epoch > s.primEpoch {
		s.primEpoch = a.Epoch
	}
	if a.Verifier > s.primVerifier {
		s.primVerifier = a.Verifier
	}
	var stableInos []uint64
	seen := make(map[uint64]bool)
	for _, rec := range a.Records {
		if rec.Seq <= s.replApplied {
			continue // batch retransmission: already applied
		}
		if rec.Seq != s.replApplied+1 {
			// The primary overflowed its queue: records are gone for
			// good. Remember the hole — pings report unsynced and the
			// viewservice will not promote this backup.
			s.replGap = true
		}
		s.replApplied = rec.Seq
		switch rec.Kind {
		case proto.ReplTransition:
			s.applyMirror(rec)
		case proto.ReplWrite:
			// Land the bytes dirty in this cache (warmth and dirty
			// state); stable writes are gathered to disk at batch end,
			// mirroring the durability work the primary already did.
			s.media.ChargeWriteUnstable(p.Now(), rec.Ino, rec.Offset, int(rec.Length))
			if !rec.Unstable && !seen[rec.Ino] {
				seen[rec.Ino] = true
				stableInos = append(stableInos, rec.Ino)
			}
		case proto.ReplCommit:
			s.media.CommitFile(p, rec.Ino)
		case proto.ReplDup:
			s.ep.SeedDup(simnet.Addr(rec.From), rec.Xid, rec.Wire)
		}
	}
	for _, ino := range stableInos {
		s.media.CommitFile(p, ino)
	}
	return &proto.ReplStreamReply{Status: proto.OK, Applied: s.replApplied}
}

// serveReplSync answers the primary's barrier probe.
func (s *SNFSServer) serveReplSync(p *sim.Proc, from simnet.Addr, args []byte) proto.Message {
	a := proto.DecodeReplSyncArgs(xdr.NewDecoder(args))
	s.chargeCPU(p, 0)
	s.account(proto.ProcReplSync)
	if s.isOwner() {
		return &proto.ReplSyncReply{Status: proto.ErrDemoted, Applied: s.replApplied}
	}
	return &proto.ReplSyncReply{
		Status: proto.OK, Applied: s.replApplied,
		Synced: !s.replGap && s.replApplied >= a.Seq,
	}
}

// applyMirror folds one transition record into the mirror.
func (s *SNFSServer) applyMirror(rec proto.ReplRecord) {
	switch rec.Event {
	case "drop":
		// The file was removed (or truncated in place): its entry and
		// any mirrored dirty state go with it.
		delete(s.mirror, rec.Handle)
		s.media.Cancel(rec.Handle.Ino)
		return
	case "reclaim":
		if rec.Dropped {
			delete(s.mirror, rec.Handle)
		} else if ent, ok := s.mirror[rec.Handle]; ok {
			ent.state = core.FileState(rec.To)
			ent.lastWriter = ""
		}
		return
	}
	ent, ok := s.mirror[rec.Handle]
	if !ok {
		ent = &mirrorEntry{clients: make(map[string]*mirrorClient)}
		s.mirror[rec.Handle] = ent
	}
	ent.state = core.FileState(rec.To)
	if rec.Version > ent.version {
		ent.version = rec.Version
	}
	ent.lastWriter = rec.LastWriter
	switch rec.Event {
	case "open":
		cl := ent.client(rec.Client)
		cl.readers += rec.Readers
		cl.writers += rec.Writers
	case "close":
		if cl, ok := ent.clients[rec.Client]; ok {
			if rec.Readers > 0 && cl.readers > 0 {
				cl.readers--
			}
			if rec.Writers > 0 && cl.writers > 0 {
				cl.writers--
			}
			if cl.readers == 0 && cl.writers == 0 {
				delete(ent.clients, rec.Client)
			}
		}
	case "recover":
		if rec.Readers == 0 && rec.Writers == 0 {
			delete(ent.clients, rec.Client)
		} else {
			ent.clients[rec.Client] = &mirrorClient{readers: rec.Readers, writers: rec.Writers}
		}
	case "client-dead":
		delete(ent.clients, rec.Client)
	}
	if ent.state == core.StateClosed && len(ent.clients) == 0 && ent.lastWriter == "" {
		delete(s.mirror, rec.Handle) // fully quiescent: nothing to replay
	}
}

// Promote turns this backup into the shard's primary under map m
// (published by the viewservice as view viewNum). It is a reboot in every
// protocol-visible way — the audit shadow resets, the epoch and write
// verifier advance past both incarnations' history so keepalive clients
// re-register and unstable-write clients redrive — except that the state
// table is rebuilt immediately from the mirror instead of waiting out a
// grace period of client reopens.
func (s *SNFSServer) Promote(p *sim.Proc, m proto.ShardMap, viewNum uint64) {
	if s.crashed || s.promoted {
		return
	}
	s.promoted = true
	if s.auditor != nil {
		// Same contract as a reboot: the shadow resets and the recover
		// edges replayed below are the legal reconstruction path.
		s.auditor.ServerRebooted()
	}
	if s.primEpoch > s.epoch {
		s.epoch = s.primEpoch
	}
	s.epoch++
	if s.primVerifier > s.verifier {
		s.verifier = s.primVerifier
	}
	s.verifier++
	// Mirrored-unstable data dies exactly like a rebooting server's
	// buffer cache; the bumped verifier makes the writers redrive it.
	s.media.DropDirty()
	s.SetShardMap(m, s.shardID)

	handles := make([]proto.Handle, 0, len(s.mirror))
	for h := range s.mirror {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i].Less(handles[j]) })
	for _, h := range handles {
		ent := s.mirror[h]
		if ent.lastWriter != "" {
			// The dirty registration must land first: Recover only
			// adopts a last writer from a closed, dirty reopen.
			s.table.Recover(h, core.ClientID(ent.lastWriter), 0, 0, ent.version, true)
		}
		names := make([]string, 0, len(ent.clients))
		for c := range ent.clients {
			names = append(names, c)
		}
		sort.Strings(names)
		for _, c := range names {
			cl := ent.clients[c]
			if cl.readers == 0 && cl.writers == 0 {
				continue
			}
			s.table.Recover(h, core.ClientID(c), cl.readers, cl.writers, ent.version, false)
		}
	}
	// Reissue invalidations for write-shared files: every sharer must be
	// running uncached, and a client that missed the old primary's
	// callback mid-crash learns it here.
	reissued := 0
	for _, e := range s.table.Snapshot() {
		if e.State != core.StateWriteShared {
			continue
		}
		clients := append([]core.ClientSnapshot(nil), e.Clients...)
		sort.Slice(clients, func(i, j int) bool { return clients[i].Client < clients[j].Client })
		for _, c := range clients {
			cb := core.Callback{Client: c.Client, Handle: e.Handle, Invalidate: true}
			if err := s.deliverCallback(p, cb); err != nil {
				s.clientDead(cb.Client)
			}
			reissued++
		}
	}
	s.promotedAt = s.k.Now()
	s.Tracer().Record("server", trace.Crash,
		"promote to primary (view %d, epoch %d, verifier %d, %d entries rebuilt, %d callbacks reissued)",
		viewNum, s.epoch, s.verifier, len(handles), reissued)
	s.flight.Recordf(string(s.ep.Addr()), "crash", 0,
		"promote to primary (view %d, epoch %d, verifier %d, %d entries rebuilt, %d callbacks reissued)",
		viewNum, s.epoch, s.verifier, len(handles), reissued)
}

// Promoted reports whether this server took over its shard, and when.
func (s *SNFSServer) Promoted() (sim.Time, bool) { return s.promotedAt, s.promoted }

// HealedAt returns when the first client data RPC after promotion was
// served (the client-visible end of the failover), if any arrived yet.
func (s *SNFSServer) HealedAt() (sim.Time, bool) { return s.healedAt, s.healed }

// ReplSynced reports whether the mirrored stream has been gap-free.
func (s *SNFSServer) ReplSynced() bool { return !s.replGap }

// noteHealed stamps the first post-promotion data RPC.
func (s *SNFSServer) noteHealed(from simnet.Addr, proc uint32) {
	if !s.promoted || s.healed {
		return
	}
	switch proc {
	case proto.ProcNull, proto.ProcServerInfo, proto.ProcDumpState, proto.ProcAudit,
		proto.ProcMetrics, proto.ProcShardMap, proto.ProcMountRoot:
		return // control plane: not a client healing onto this primary
	}
	s.healed = true
	s.healedAt = s.k.Now()
	s.flight.Recordf(string(s.ep.Addr()), "crash", 0,
		"healed: first %s from %s after promotion", proto.ProcName(proto.ProgNFS, proc), from)
}
