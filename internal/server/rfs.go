package server

import (
	"sort"

	"spritelynfs/internal/core"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/xdr"
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
type RFSServer struct {
	*Base
	tab   *rfsTable
	cbSem *sim.Semaphore
}

// rfsTable tracks which clients have each file open (and may therefore
// be caching it), plus the version numbers for reopen validation.
type rfsTable struct {
	entries map[proto.Handle]*rfsEntry
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
	s := &RFSServer{
		Base:  newBase(k, ep, media, cfg),
		tab:   newRFSTable(0),
		cbSem: sim.NewSemaphore(k, maxInt(1, ep.Workers()-1)),
	}
	s.onRemoved = func(h proto.Handle) { delete(s.tab.entries, h) }
	ep.RegisterMsg(proto.ProgNFS, s.serve)
	return s
}

func (s *RFSServer) serve(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) (proto.Message, rpc.Status) {
	s.recordServe(p, from, proc)
	switch proc {
	case proto.ProcOpen:
		return s.serveOpen(p, from, args), rpc.StatusOK
	case proto.ProcClose:
		return s.serveClose(p, from, args), rpc.StatusOK
	case proto.ProcWrite:
		// The defining RFS move: invalidate the other caching
		// clients *when the write occurs*, then execute it.
		s.invalidateForWrite(p, from, args)
	case proto.ProcRead:
		// A read after invalidation refills the client's cache; track
		// it as an invalidation target again.
		h := proto.DecodeReadArgs(xdr.NewDecoder(args)).Handle
		if e, ok := s.tab.entries[h]; ok {
			e.cached[core.ClientID(from)] = true
		}
	}
	body, st, handled := s.serveCommon(p, proc, args)
	if !handled {
		return nil, rpc.StatusProcUnavail
	}
	return body, st
}

func (s *RFSServer) serveOpen(p *sim.Proc, from simnet.Addr, args []byte) proto.Message {
	a := proto.DecodeOpenArgs(xdr.NewDecoder(args))
	s.chargeCPU(p, 0)
	s.account(proto.ProcOpen)
	attr, st := s.handle(a.Handle)
	if st != proto.OK {
		return &proto.OpenReply{Status: st}
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
	return &proto.OpenReply{
		Status:       proto.OK,
		CacheEnabled: true,
		Version:      e.version,
		PrevVersion:  e.prev,
		Attr:         s.fattr(attr),
	}
}

func (s *RFSServer) serveClose(p *sim.Proc, from simnet.Addr, args []byte) proto.Message {
	a := proto.DecodeCloseArgs(xdr.NewDecoder(args))
	s.chargeCPU(p, 0)
	s.account(proto.ProcClose)
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
	return &proto.StatusReply{Status: proto.OK}
}

// invalidateForWrite sends invalidate callbacks to every caching client
// other than the writer, before the write executes.
func (s *RFSServer) invalidateForWrite(p *sim.Proc, from simnet.Addr, args []byte) {
	h := proto.DecodeWriteArgs(xdr.NewDecoder(args)).Handle
	e, ok := s.tab.entries[h]
	if !ok {
		return
	}
	writer := core.ClientID(from)
	// Callbacks block, so they go out in client order, not map order:
	// the order moves the simulated clock.
	cids := make([]core.ClientID, 0, len(e.cached))
	for cid := range e.cached {
		if cid != writer {
			cids = append(cids, cid)
		}
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
	for _, cid := range cids {
		if !e.cached[cid] {
			continue // invalidated by a concurrent write meanwhile
		}
		s.cbSem.Acquire(p)
		s.ops.Inc("callback")
		s.Tracer().Record("server", trace.Callback, "rfs invalidate -> %s %s", cid, h)
		_, err := s.ep.CallMsgEx(p, simnet.Addr(cid), proto.ProgCallback, 1, proto.CbProcCallback,
			&proto.CallbackArgs{Handle: h, Invalidate: true}, sim.Second, 2)
		s.cbSem.Release()
		if err != nil {
			// Dead client: it cannot read its stale cache anyway.
			delete(e.cached, cid)
			delete(e.opens, cid)
			continue
		}
		delete(e.cached, cid)
	}
}

// Table size, for tests.
func (s *RFSServer) TableLen() int { return len(s.tab.entries) }

// Readers reports the clients currently tracked as possibly caching h.
func (s *RFSServer) Readers(h proto.Handle) int {
	if e, ok := s.tab.entries[h]; ok {
		return len(e.cached)
	}
	return 0
}
