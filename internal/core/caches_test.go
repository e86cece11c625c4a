package core_test

import (
	"fmt"
	"slices"
	"testing"

	"spritelynfs/internal/core"
	"spritelynfs/internal/proto"
)

// cachesStates is the number of distinct states TestCachesExhaustive
// reaches.
const cachesStates = 51074

// cacheCopy is a client's abstract cache of the file: which write its
// blocks hold, and whether they are dirty.
type cacheCopy struct {
	has, dirty bool
	data       uint8 // a write ID; 0 is the file's initial contents
}

// site is one client of the composed model: its consistency record, which
// counts its opens by mode, and its cache.
type site struct {
	rec   core.FileRecord
	cache cacheCopy
}

// system composes the server's table and the file's contents at the
// server with three clients, plus what the properties need to know: the
// latest write that survives, and whether a death lost a write that the
// next open has yet to warn of.
type system struct {
	tab    *core.Table
	disk   uint8
	sites  [3]site
	latest uint8
	lost   bool
}

// do carries out a rule's Action on a client's cache in the order
// client.Base.apply uses, and describes any dirty write it discards.
func (y *system) do(c int, a core.Action) string {
	cc := &y.sites[c].cache
	if a.Flush && cc.dirty {
		y.disk, cc.dirty = cc.data, false
	}
	if a.Invalidate {
		if cc.dirty {
			return fmt.Sprintf("%s's invalidation discards dirty write %d", clients[c], cc.data)
		}
		*cc = cacheCopy{}
	}
	return ""
}

func (y *system) steps() []step {
	out := []step{{kind: stepCrowd}}
	for o := range perms {
		out = append(out, step{kind: stepReboot, c: o})
	}
	for c, s := range y.sites {
		for _, write := range []bool{false, true} {
			if s.rec.Readers+s.rec.Writers < maxOpens {
				out = append(out, step{stepOpen, c, write})
			}
			if (write && s.rec.Writers > 0) || (!write && s.rec.Readers > 0) {
				out = append(out, step{stepClose, c, write})
			}
		}
		if s.rec.InUse() {
			out = append(out, step{kind: stepRead, c: c})
		}
		if s.rec.Writers > 0 {
			out = append(out, step{kind: stepWrite, c: c})
		}
		if s.cache.dirty {
			out = append(out, step{kind: stepFlush, c: c})
		}
		out = append(out, step{kind: stepDie, c: c})
	}
	return out
}

// take applies s to a copy of y made in n (whose table it reuses) and
// returns the first property the step breaks ("" if none).
func (y *system) take(s step, n *system) string {
	tab := n.tab
	*n = *y
	n.tab = tab
	n.tab.CopyFrom(y.tab)
	h := files[0]
	var id core.ClientID
	var me *site
	if s.kind != stepReboot && s.kind != stepCrowd {
		id, me = clients[s.c], &n.sites[s.c]
	}
	switch s.kind {
	case stepOpen:
		// The server's open (serveOpen): callbacks are served before the
		// reply is built.
		res := n.tab.Open(h, id, s.write)
		for _, cb := range res.Callbacks {
			d := int(cb.Client[0] - 'A')
			a := n.sites[d].rec.ApplyCallback(proto.CallbackArgs{Handle: h, WriteBack: cb.WriteBack, Invalidate: cb.Invalidate})
			if bad := n.do(d, a); bad != "" {
				return bad
			}
		}
		for d, o := range n.sites {
			if d != s.c && o.cache.dirty {
				return fmt.Sprintf("%s opens while %s holds dirty write %d", id, clients[d], o.cache.data)
			}
		}
		if !res.CacheEnabled && me.cache.dirty {
			// Open's write-back for an uncachable reply is defence: the
			// search shows no schedule reaches it with dirty blocks, so
			// taking it out is an equivalent change.
			return fmt.Sprintf("%s's uncachable open finds its dirty write %d", id, me.cache.data)
		}
		if n.lost && !res.Inconsistent {
			return fmt.Sprintf("%s's open is not warned of the lost write", id)
		}
		n.lost = false
		reply := proto.OpenReply{CacheEnabled: res.CacheEnabled, Version: res.Version, PrevVersion: res.PrevVersion}
		if bad := n.do(s.c, me.rec.Open(reply, s.write)); bad != "" {
			return bad
		}
	case stepClose:
		me.rec.Close(s.write)
		n.tab.Close(h, id, s.write)
	case stepRead:
		got := n.disk
		if me.rec.Caching {
			if !me.cache.has {
				me.cache = cacheCopy{has: true, data: n.disk}
			}
			got = me.cache.data
		}
		if got != n.latest {
			return fmt.Sprintf("%s reads write %d, not the latest, %d", id, got, n.latest)
		}
	case stepWrite:
		n.latest = n.newWrite()
		if me.rec.Caching {
			me.cache = cacheCopy{has: true, dirty: true, data: n.latest}
		} else {
			n.disk = n.latest
		}
	case stepFlush:
		n.disk, me.cache.dirty = me.cache.data, false
	case stepDie:
		n.tab.ClientDead(id)
		if me.cache.dirty {
			// Its unflushed writes, and only those, are lost.
			n.lost = true
			if n.latest == me.cache.data {
				n.latest = n.disk
			}
		}
		*me = site{}
	case stepCrowd:
		// serveOpen for a second file in a one-entry table: the closed
		// entry is reclaimed, a closed-dirty one after its last writer's
		// write-back. The second file is then removed.
		other := files[1]
		n.tab.SetLimit(1)
		if n.tab.Open(other, "A", false).TableFull {
			for _, cb := range n.tab.ReclaimCandidates(4) {
				d := int(cb.Client[0] - 'A')
				a := n.sites[d].rec.ApplyCallback(proto.CallbackArgs{Handle: h, WriteBack: true})
				if bad := n.do(d, a); bad != "" {
					return bad
				}
				n.tab.Reclaimed(cb.Handle)
			}
			n.tab.Open(other, "A", false)
		}
		n.tab.Drop(other)
		n.tab.SetLimit(0)
	case stepReboot:
		// Each client in turn re-registers what it holds (client.recover),
		// answered as serveReopen answers it. A pending warning of a lost
		// write was the old table's: the rebuilt one learns only from
		// live clients (§2.4).
		n.tab = core.NewTable(0)
		n.lost = false
		for _, o := range perms[s.c] {
			c := int(o)
			st := &n.sites[c]
			if !st.rec.InUse() && !st.cache.dirty {
				n.do(c, st.rec.Forget())
				continue
			}
			id := clients[c]
			r, w := uint32(st.rec.Readers), uint32(st.rec.Writers)
			n.tab.Recover(h, id, r, w, st.rec.Version, st.cache.dirty)
			v := n.tab.Version(h)
			reply := proto.OpenReply{
				CacheEnabled: n.tab.CachingFor(h, id) || (st.cache.dirty && r+w == 0),
				Version:      v, PrevVersion: v,
			}
			if bad := n.do(c, st.rec.Reopen(reply)); bad != "" {
				return bad
			}
		}
	}
	return ""
}

// newWrite returns a write ID no copy of the file holds.
func (y *system) newWrite() uint8 {
	m := max(y.disk, y.latest)
	for _, s := range y.sites {
		m = max(m, s.cache.data)
	}
	return m + 1
}

// key encodes y for the visited set, after renumbering its versions and
// its write IDs by rank (0 staying 0).
func (y *system) key(b []byte) []byte {
	for c := range y.sites {
		// A closed client's caching flag, and its version label when it
		// caches nothing, are rewritten by its next open before any step
		// reads them: forget them, so that they split no states.
		if r := &y.sites[c].rec; !r.InUse() {
			r.Caching = false
			if !y.sites[c].cache.has {
				r.Version = 0
			}
		}
	}
	y.tab.Renumber(&y.sites[0].rec.Version, &y.sites[1].rec.Version, &y.sites[2].rec.Version)
	var buf [5]*uint8
	ids := append(buf[:0], &y.disk, &y.latest)
	for c := range y.sites {
		if y.sites[c].cache.has {
			ids = append(ids, &y.sites[c].cache.data)
		}
	}
	var valsBuf [6]uint8
	vals := append(valsBuf[:0], 0)
	for _, p := range ids {
		vals = append(vals, *p)
	}
	slices.Sort(vals)
	vals = slices.Compact(vals)
	for _, p := range ids {
		r, _ := slices.BinarySearch(vals, *p)
		*p = uint8(r)
	}
	// The clients are interchangeable: the key is the least encoding
	// over their renamings. Client names are the table encoding's only
	// letters, so a renaming maps its bytes.
	tk := y.tab.AppendKey(scratch.table[:0], func(c core.ClientID) byte { return c[0] })
	start := len(b)
	best := scratch.best[:0]
	for i, perm := range perms {
		b = b[:start]
		for _, c := range tk {
			if c >= 'A' && c <= 'C' {
				c = 'A' + perm[c-'A']
			}
			b = append(b, c)
		}
		b = append(b, '#', '0'+y.disk, '0'+y.latest, '0'+byte(b2i(y.lost)))
		for _, c := range inverse(perm) {
			r, cc := y.sites[c].rec, y.sites[c].cache
			b = append(b, '|', byte('0'+b2i(r.Caching)), byte('0'+r.Version), byte('0'+r.Readers), byte('0'+r.Writers),
				byte('0'+b2i(cc.has)), '0'+cc.data, byte('0'+b2i(cc.dirty)))
		}
		if i == 0 || string(b[start:]) < string(best) {
			best = append(best[:0], b[start:]...)
		}
	}
	scratch.table, scratch.best = tk, best
	return append(b[:start], best...)
}

// scratch holds key's buffers between calls.
var scratch struct{ table, best []byte }

// perms lists the renamings of three clients: perm[c] is c's new index.
var perms = [][3]byte{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// inverse lists the clients in the order a renaming puts them.
func inverse(perm [3]byte) [3]byte {
	var out [3]byte
	for c, to := range perm {
		out[to] = byte(c)
	}
	return out
}

// TestCachesExhaustive composes the state table with the client rules —
// core.FileRecord's Open, Reopen and ApplyCallback, their Actions carried
// out as client.Base.apply carries them out — over three clients of one
// file, each holding at most two opens, and searches breadth-first every
// state reachable by opens, closes, reads and writes inside held opens,
// update-daemon flushes, client deaths and a server reboot with every
// client's recovery. Three properties must hold at every step:
//   - a read inside an open returns the latest write that survives;
//   - a death loses exactly the dead client's unflushed writes, and the
//     next open is warned (§3.2);
//   - a client holding dirty blocks is called back before another client's
//     open returns, and no rule discards dirty blocks.
func TestCachesExhaustive(t *testing.T) {
	states := explore(t, &system{tab: core.NewTable(0)},
		func() *system { return &system{tab: new(core.Table)} },
		(*system).steps, (*system).take, (*system).key)
	if states != cachesStates {
		t.Errorf("%d reachable states, want %d", states, cachesStates)
	}
}
