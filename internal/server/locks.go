package server

import (
	"spritelynfs/internal/core"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/xdr"
)

// lockTable is the SNFS server's advisory lock manager — the "other
// mechanism, such as file locking" §2.2 presumes for serializing
// read/write sharing. Locks are per-file (whole-file granularity, like
// the consistency protocol itself), shared or exclusive, and polled:
// a denied request is answered immediately and the client retries.
//
// Like the state table, the lock table is volatile: locks die with the
// server (clients re-acquire after recovery) and a client's locks are
// released when the server declares it dead.
type lockTable struct {
	locks map[proto.Handle]*fileLock
}

type fileLock struct {
	exclusive core.ClientID // holder of the exclusive lock, "" if none
	shared    map[core.ClientID]int
}

func newLockTable() *lockTable {
	return &lockTable{locks: make(map[proto.Handle]*fileLock)}
}

// acquire tries to take the lock, returning whether it was granted.
// Locks are reentrant per client (counts for shared; idempotent for
// exclusive).
func (t *lockTable) acquire(h proto.Handle, c core.ClientID, exclusive bool) bool {
	l, ok := t.locks[h]
	if !ok {
		l = &fileLock{shared: make(map[core.ClientID]int)}
		t.locks[h] = l
	}
	if exclusive {
		if l.exclusive == c {
			return true
		}
		if l.exclusive != "" {
			return false
		}
		// Shared holders other than the requester block an upgrade.
		for holder := range l.shared {
			if holder != c {
				return false
			}
		}
		l.exclusive = c
		return true
	}
	if l.exclusive != "" && l.exclusive != c {
		return false
	}
	l.shared[c]++
	return true
}

// release drops one lock held by c (the exclusive one if held, else one
// shared count). Releasing nothing is harmless.
func (t *lockTable) release(h proto.Handle, c core.ClientID) {
	l, ok := t.locks[h]
	if !ok {
		return
	}
	if l.exclusive == c {
		l.exclusive = ""
	} else if l.shared[c] > 0 {
		l.shared[c]--
		if l.shared[c] == 0 {
			delete(l.shared, c)
		}
	}
	if l.exclusive == "" && len(l.shared) == 0 {
		delete(t.locks, h)
	}
}

// clientDead releases everything c held.
func (t *lockTable) clientDead(c core.ClientID) {
	for h, l := range t.locks {
		if l.exclusive == c {
			l.exclusive = ""
		}
		delete(l.shared, c)
		if l.exclusive == "" && len(l.shared) == 0 {
			delete(t.locks, h)
		}
	}
}

// drop removes all locks on h (file removed).
func (t *lockTable) drop(h proto.Handle) { delete(t.locks, h) }

// serveLock handles ProcLock and ProcUnlock on the SNFS server.
func (s *SNFSServer) serveLock(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) (proto.Message, rpc.Status) {
	a := proto.DecodeLockArgs(xdr.NewDecoder(args))
	s.chargeCPU(p, 0)
	s.account(proc)
	if _, st := s.handle(a.Handle); st != proto.OK {
		return &proto.LockReply{Status: st}, rpc.StatusOK
	}
	cid := core.ClientID(from)
	switch proc {
	case proto.ProcLock:
		granted := s.locksTab.acquire(a.Handle, cid, a.Exclusive)
		return &proto.LockReply{Status: proto.OK, Granted: granted}, rpc.StatusOK
	default: // ProcUnlock
		s.locksTab.release(a.Handle, cid)
		return &proto.LockReply{Status: proto.OK, Granted: true}, rpc.StatusOK
	}
}
