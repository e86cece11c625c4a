package server

import (
	"slices"

	"spritelynfs/internal/core"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
)

// RFSServer implements the System V Remote File Sharing consistency
// scheme the paper describes in §2.5 as the point between NFS and Sprite:
// clients send open and close messages (stateful), every client may cache
// read data, writes go through to the server as in NFS, and the server
// sends invalidate callbacks only when writes actually occur — "unlike
// Sprite, RFS waits until writes actually occur before invalidating
// client caches". Version numbers validate caches across close/reopen,
// as in both Sprite and NFS.
//
// The paper's prediction, which the harness's rfs experiment tests:
// "RFS provides the same consistency guarantees as Sprite, but because
// RFS uses the same write policy as NFS, its performance should be
// closer to that of NFS."
//
// A reboot empties the open table. RFS has no reopen protocol, so an open
// held across a reboot is not re-registered: its client is no longer an
// invalidation target, and its cached blocks hold until its next open,
// whose version check refetches them if another client wrote the file.
type RFSServer struct {
	*Base
	tab *rfsTable
}

// rfsTable tracks which clients have each file open (and may therefore
// be caching it), plus the version numbers for reopen validation.
type rfsTable struct {
	entries map[proto.Handle]*rfsEntry
	// nextVer is the version source. A reboot keeps it, as if it were
	// kept on disk: a client may still hold a version an earlier
	// incarnation handed out, and a restarted count could hand it out
	// again for newer contents, validating the stale copy.
	nextVer uint32
	max     int
}

type rfsEntry struct {
	version uint32
	prev    uint32
	// opens counts live opens per client; a client with any count may
	// hold cached blocks and is an invalidation target.
	opens map[core.ClientID]int
	// cached marks clients that may retain cached blocks from a past
	// open (cache survives close; invalidation must reach them too
	// while the entry lives).
	cached map[core.ClientID]bool
	stamp  uint64
}

func newRFSTable(max int) *rfsTable {
	if max <= 0 {
		max = 1000
	}
	return &rfsTable{entries: make(map[proto.Handle]*rfsEntry), max: max}
}

func (t *rfsTable) get(h proto.Handle) *rfsEntry {
	e, ok := t.entries[h]
	if !ok {
		if len(t.entries) >= t.max {
			// Evict the entry with no opens that is oldest; a
			// reopen after eviction merely refetches.
			var victim proto.Handle
			var best *rfsEntry
			for vh, ve := range t.entries {
				if len(ve.opens) > 0 {
					continue
				}
				if best == nil || ve.stamp < best.stamp {
					victim, best = vh, ve
				}
			}
			if best != nil {
				delete(t.entries, victim)
			}
		}
		e = &rfsEntry{
			opens:  make(map[core.ClientID]int),
			cached: make(map[core.ClientID]bool),
		}
		t.entries[h] = e
	}
	return e
}

// NewRFS creates an RFS server on ep.
func NewRFS(k *sim.Kernel, ep *rpc.Endpoint, media *localfs.Media, cfg Config) *RFSServer {
	s := &RFSServer{Base: newBase(k, ep, media, cfg), tab: newRFSTable(0)}
	s.onRemoved = func(h proto.Handle) { delete(s.tab.entries, h) }
	s.onReset = func() { clear(s.tab.entries) }
	ep.Serve(proto.ProgNFS, s.serve)
	return s
}

// rfsProcs are the procedures the RFS server implements: NFS's, plus
// open and close.
var rfsProcs = commonProcs | procsOf(proto.ProcOpen, proto.ProcClose)

func (s *RFSServer) serve(p *sim.Proc, from simnet.Addr, proc uint32, args, tail []byte) (rpc.Reply, rpc.Status) {
	var a callArgs
	if body, st, done := s.admit(p, from, proc, args, tail, rfsProcs, &a); done {
		return body, st
	}
	switch proc {
	case proto.ProcOpen:
		return s.serveOpen(from, &a.open), rpc.StatusOK
	case proto.ProcClose:
		return s.serveClose(from, &a.close), rpc.StatusOK
	case proto.ProcWrite:
		// The defining RFS move: invalidate the other caching
		// clients *when the write occurs*, then execute it.
		s.invalidateForWrite(p, from, a.write.Handle)
	case proto.ProcSetattr:
		if a.setattr.SetSize { // a truncation is a write
			s.invalidateForWrite(p, from, a.setattr.Handle)
		}
	case proto.ProcCreate:
		// A create over an existing file truncates it.
		if old, err := s.media.Store().Lookup(a.create.Dir.Ino, a.create.Name); err == nil {
			s.invalidateForWrite(p, from, s.toHandle(old))
		}
	case proto.ProcRead:
		// A read after invalidation refills the client's cache; track
		// it as an invalidation target again.
		if e, ok := s.tab.entries[a.read.Handle]; ok {
			e.cached[core.ClientID(from)] = true
		}
	}
	return s.serveCommon(p, proc, &a)
}

func (s *RFSServer) serveOpen(from simnet.Addr, a *proto.OpenArgs) rpc.Reply {
	attr, st := s.handle(a.Handle)
	if st != proto.OK {
		return rpc.Encode((&proto.OpenReply{Status: st}).XDR)
	}
	e := s.tab.get(a.Handle)
	s.tab.nextVer++ // stamp source (cheap monotonic clock)
	e.stamp = uint64(s.tab.nextVer)
	if e.version == 0 {
		s.tab.nextVer++
		e.version = s.tab.nextVer
	}
	if a.WriteMode {
		s.tab.nextVer++
		e.prev = e.version
		e.version = s.tab.nextVer
	}
	cid := core.ClientID(from)
	e.opens[cid]++
	e.cached[cid] = true
	// Every client may cache under RFS; writes are what invalidate.
	return rpc.Encode((&proto.OpenReply{
		Status:       proto.OK,
		CacheEnabled: true,
		Version:      e.version,
		PrevVersion:  e.prev,
		Attr:         s.fattr(attr),
	}).XDR)
}

func (s *RFSServer) serveClose(from simnet.Addr, a *proto.CloseArgs) rpc.Reply {
	if e, ok := s.tab.entries[a.Handle]; ok {
		cid := core.ClientID(from)
		if e.opens[cid] > 0 {
			e.opens[cid]--
			if e.opens[cid] == 0 {
				delete(e.opens, cid)
			}
		}
		// The client may retain its cache across close (e.cached
		// stays set); version validation covers reopen after
		// eviction of the entry.
	}
	return rpc.Encode((&proto.StatusReply{Status: proto.OK}).XDR)
}

// invalidateForWrite sends invalidate callbacks to every caching client
// other than the writer, before the write executes.
func (s *RFSServer) invalidateForWrite(p *sim.Proc, from simnet.Addr, h proto.Handle) {
	e, ok := s.tab.entries[h]
	if !ok {
		return
	}
	writer := core.ClientID(from)
	// Callbacks block, so they go out in client order, not map order:
	// the order moves the simulated clock.
	cids := make([]core.ClientID, 0, len(e.cached))
	for cid := range e.cached {
		cids = append(cids, cid)
	}
	slices.Sort(cids)
	for _, cid := range cids {
		if cid == writer || !e.cached[cid] {
			continue // the writer, or invalidated by a concurrent write meanwhile
		}
		if err := s.callback(p, core.Callback{Client: cid, Handle: h, Invalidate: true}); err != nil {
			// Dead client: it cannot read its stale cache anyway.
			delete(e.opens, cid)
		}
		delete(e.cached, cid)
	}
}
