package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"spritelynfs/internal/core"
)

// table41States is the number of distinct states the exhaustive search
// reaches. A change to the table's transitions that moves it must be
// explained, not just re-pinned.
const table41States = 5086

// maxOpens bounds the opens one client holds on the file in the search.
const maxOpens = 2

// The steps of the exhaustive search.
const (
	stepOpen       = iota // a client opens the file
	stepClose             // a client closes an open it holds
	stepDie               // a client dies
	stepReboot            // the server reboots; the clients recover in order perms[c]
	stepInvalidate        // a client changes the file as a directory (§7)
	stepDrop              // the file is removed
	stepCrowd             // another file's open, in a one-entry table
	stepRead              // a client reads inside an open (caches_test.go)
	stepWrite             // a client writes inside a write open
	stepFlush             // the client's update daemon writes back
)

type step struct {
	kind  int
	c     int
	write bool
}

func (s step) String() string {
	if s.kind == stepReboot {
		o := perms[s.c]
		return fmt.Sprintf("the server reboots; %s, %s and %s recover in turn", clients[o[0]], clients[o[1]], clients[o[2]])
	}
	c := clients[s.c]
	switch s.kind {
	case stepOpen:
		return fmt.Sprintf("%s opens write=%v", c, s.write)
	case stepClose:
		return fmt.Sprintf("%s closes write=%v", c, s.write)
	case stepDie:
		return fmt.Sprintf("%s dies", c)
	case stepInvalidate:
		return fmt.Sprintf("%s changes the directory", c)
	case stepDrop:
		return "the file is removed"
	case stepRead:
		return fmt.Sprintf("%s reads", c)
	case stepWrite:
		return fmt.Sprintf("%s writes", c)
	case stepFlush:
		return fmt.Sprintf("%s's update daemon flushes", c)
	}
	return "another file is opened, under a table limit of 1, and removed"
}

// world is one state of the search: the server's table, and what the
// clients hold — their opens of the file by mode, and their write grants.
type world struct {
	tab   *core.Table
	opens [3][2]uint8 // [client][write]
	g     grants
}

// steps lists every step enabled in w.
func (w *world) steps() []step {
	out := []step{{kind: stepDrop}, {kind: stepCrowd}}
	for o := range perms {
		out = append(out, step{kind: stepReboot, c: o})
	}
	writing := w.opens[0][1]+w.opens[1][1]+w.opens[2][1] > 0
	for c, o := range w.opens {
		for _, write := range []bool{false, true} {
			if o[0]+o[1] < maxOpens {
				out = append(out, step{stepOpen, c, write})
			}
			if o[b2i(write)] > 0 {
				out = append(out, step{stepClose, c, write})
			}
		}
		// The server invalidates name caches on directories, which no
		// client opens for write: no writer, no last writer.
		if !writing && w.tab.LastWriter(files[0]) == "" {
			out = append(out, step{kind: stepInvalidate, c: c})
		}
		out = append(out, step{kind: stepDie, c: c})
	}
	return out
}

// take applies s to a copy of w made in n under the judge's eye, and
// returns the judge's verdict ("" when the step is sound).
func (w *world) take(s step, n *world, j *judge) string {
	n.tab.CopyFrom(w.tab)
	n.opens, n.g = w.opens, w.g
	if v := j.prime(n.tab); v != "" {
		return "priming the auditor: " + v
	}
	j.g = n.g
	j.watch(n.tab)
	h := files[0]
	var c core.ClientID
	if s.kind != stepReboot {
		c = clients[s.c]
	}
	bad := ""
	switch s.kind {
	case stepOpen:
		bad = j.opened(c, h, s.write, n.tab.Open(h, c, s.write))
		n.opens[s.c][b2i(s.write)]++
	case stepClose:
		n.tab.Close(h, c, s.write)
		n.opens[s.c][b2i(s.write)]--
	case stepDie:
		n.tab.ClientDead(c)
		n.opens[s.c] = [2]uint8{}
		j.died(c)
	case stepInvalidate:
		bad = j.callbacks(n.tab.InvalidateReaders(h, c))
	case stepDrop:
		n.tab.Drop(h)
		n.opens = [3][2]uint8{}
		j.g = 0
	case stepCrowd:
		// The server's open path (serveOpen) for a second file with a
		// table limit of 1: a closed entry is reclaimed silently, a full
		// table reclaims closed-dirty entries by write-back and retries
		// once. The second file is then removed.
		other := files[1]
		n.tab.SetLimit(1)
		if n.tab.Open(other, "A", false).TableFull {
			cbs := n.tab.ReclaimCandidates(4)
			bad = j.callbacks(cbs)
			for _, cb := range cbs {
				n.tab.Reclaimed(cb.Handle)
			}
			n.tab.Open(other, "A", false)
		}
		n.tab.Drop(other)
		n.tab.SetLimit(0)
	case stepReboot:
		// Each client in turn re-registers its opens, and a write grant
		// as dirty blocks (§2.4), with the version it last saw.
		j.a.ServerRebooted()
		n.tab = core.NewTable(0)
		j.watch(n.tab)
		for _, c := range perms[s.c] {
			id := clients[c]
			if o := n.opens[c]; o[0]+o[1] > 0 || j.g.has(id, h) {
				n.tab.Recover(h, id, uint32(o[0]), uint32(o[1]), w.tab.Version(h), j.g.has(id, h))
			}
		}
		for c, id := range clients {
			if n.opens[c][1] > 0 && n.tab.CachingFor(h, id) {
				j.g |= grantBit(id, h) // the reopen grants a writer caching
			}
		}
	}
	n.tab.Observer = nil
	n.g = j.g
	if v := j.verdict(); bad == "" {
		bad = v
	}
	if v0, v1 := w.tab.Version(h), n.tab.Version(h); bad == "" && n.tab.Has(h) && v1 < v0 {
		bad = fmt.Sprintf("version fell %d -> %d", v0, v1)
	}
	if bad == "" {
		bad = soleReaderDirtyUncached(n.tab)
	}
	return bad
}

// key encodes w for the visited set, after renumbering its versions.
func (w *world) key(b []byte) []byte {
	w.tab.Renumber()
	b = w.tab.AppendKey(b, func(c core.ClientID) byte { return c[0] })
	for _, o := range w.opens {
		b = append(b, byte('0'+o[0]), byte('0'+o[1]))
	}
	return append(b, byte('0'+w.g))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTable41Exhaustive searches breadth-first every state three clients
// reach on one file, each client holding at most two opens of it, through
// every step: opens, closes of held opens, client deaths, a server reboot
// with every client's recovery (in each order), name-cache
// invalidations, removal, and a second file's open in a one-entry table
// (reclamation). Every step from every reachable state is refereed by the
// judge, and no version may fall.
func TestTable41Exhaustive(t *testing.T) {
	j := newJudge()
	states := explore(t, &world{tab: core.NewTable(0)},
		func() *world { return &world{tab: new(core.Table)} },
		(*world).steps,
		func(w *world, s step, n *world) string { return w.take(s, n, j) },
		(*world).key)
	if states != table41States {
		t.Errorf("%d reachable states, want %d", states, table41States)
	}
}

// explore searches breadth-first every state reachable from root: take
// applies a step to a state in a spare one and reports the first
// property the step breaks, and key encodes a state for the visited set.
// It returns the number of states, or fails t with a shortest schedule to
// the first broken property.
func explore[S any](t *testing.T, root S, spare func() S, steps func(S) []step,
	take func(from S, s step, into S) string, key func(S, []byte) []byte) int {
	t.Helper()
	type node struct {
		parent int
		via    step
	}
	nodes := []node{{parent: -1}}
	visited := map[string]bool{string(key(root, nil)): true}
	frontier, ids := []S{root}, []int{0}
	n := spare()
	var kb []byte
	for len(frontier) > 0 {
		var next []S
		var nextIDs []int
		for i, y := range frontier {
			for _, s := range steps(y) {
				if bad := take(y, s, n); bad != "" {
					path := []string{s.String()}
					for id := ids[i]; id > 0; id = nodes[id].parent {
						path = append(path, nodes[id].via.String())
					}
					slices.Reverse(path)
					t.Fatalf("%s after\n\t%s", bad, strings.Join(path, "\n\t"))
				}
				kb = key(n, kb[:0])
				if visited[string(kb)] {
					continue
				}
				visited[string(kb)] = true
				nodes = append(nodes, node{ids[i], s})
				next, nextIDs = append(next, n), append(nextIDs, len(nodes)-1)
				n = spare()
			}
		}
		frontier, ids = next, nextIDs
	}
	return len(visited)
}

// soleReaderDirtyUncached describes a reachable entry whose one client
// reads, is recorded as last writer and does not cache ("" if none).
// Table 4-1 calls that entry ONE-READER, and the search shows no schedule
// reaches it: dropping derive's caching condition for ONE-RDR-DIRTY is
// an equivalent change.
func soleReaderDirtyUncached(tab *core.Table) string {
	for _, e := range tab.Snapshot() {
		if len(e.Clients) == 1 && e.Clients[0].Writers == 0 &&
			e.LastWriter == e.Clients[0].Client && !e.Clients[0].Caching {
			return fmt.Sprintf("sole reader %s is last writer without caching", e.LastWriter)
		}
	}
	return ""
}

// prime starts the auditor's shadow machine at tab's state, as if the
// server had just rebuilt it from recovery reopens, so that one step from
// any state the search reaches is audited as strictly as a whole walk.
// It returns the auditor's objection to the rebuilt state ("" if none).
func (j *judge) prime(tab *core.Table) string {
	j.a.ServerRebooted()
	for _, e := range tab.Snapshot() {
		ev := core.TransitionEvent{Event: "recover", Handle: e.Handle, Version: e.Version}
		writers := 0
		for i, ci := range e.Clients {
			ev.Client, ev.Readers, ev.Writers = ci.Client, uint32(ci.Readers), uint32(ci.Writers)
			if i == len(e.Clients)-1 {
				break
			}
			// What the shadow derives from the clients so far, with no
			// grant and no last writer.
			writers += ci.Writers
			ev.From = ev.To
			switch {
			case writers > 0:
				ev.To = core.StateWriteShared
			case i == 0:
				ev.To = core.StateOneReader
			default:
				ev.To = core.StateMultReaders
			}
			j.a.OnTransition(ev)
		}
		ev.From, ev.To, ev.LastWriter = ev.To, e.State, e.LastWriter
		for _, ci := range e.Clients {
			if ci.Caching {
				ev.Caching = append(ev.Caching, ci.Client)
			}
		}
		j.a.OnTransition(ev)
	}
	return j.verdict()
}
