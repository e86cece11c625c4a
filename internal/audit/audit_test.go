package audit_test

import (
	"bytes"
	"strings"
	"testing"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/core"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
)

// run drives fn as a simulation process with an auditor observing tab.
func run(t *testing.T, fn func(p *sim.Proc, a *audit.Auditor, tab *core.Table)) (*audit.Auditor, string) {
	t.Helper()
	k := sim.NewKernel(1)
	var journal bytes.Buffer
	a := audit.New(k, &journal)
	tab := core.NewTable(0)
	tab.Observer = a.OnTransition
	k.Go("test", func(p *sim.Proc) {
		defer k.Stop()
		fn(p, a, tab)
	})
	k.Run()
	return a, journal.String()
}

// TestShadowLifecycleClean replays a full Table 4-1 choreography — multiple
// readers, write sharing, client death, and crash recovery — through the
// shadow machine; a correct table must produce zero violations.
func TestShadowLifecycleClean(t *testing.T) {
	h := proto.Handle{FSID: 1, Ino: 42, Gen: 1}
	h2 := proto.Handle{FSID: 1, Ino: 43, Gen: 1}
	h3 := proto.Handle{FSID: 1, Ino: 44, Gen: 1}
	a, journal := run(t, func(p *sim.Proc, _ *audit.Auditor, tab *core.Table) {
		step := func(fn func()) { p.BeginOp(); fn(); p.Sleep(sim.Millisecond) }

		// Readers come and go.
		step(func() { tab.Open(h, "A", false) })  // ONE-READER
		step(func() { tab.Open(h, "B", false) })  // MULT-READERS
		step(func() { tab.Close(h, "A", false) }) // ONE-READER
		step(func() { tab.Close(h, "B", false) }) // CLOSED

		// A writes and leaves dirty blocks behind.
		step(func() { tab.Open(h, "A", true) })  // ONE-WRITER
		step(func() { tab.Close(h, "A", true) }) // CLOSED-DIRTY

		// B's read forces A's write-back; then A reopens for write
		// while B still reads: write sharing.
		step(func() { tab.Open(h, "B", false) }) // ONE-READER (callback to A)
		step(func() { tab.Open(h, "A", true) })  // WRITE-SHARED

		// B dies; A finishes.
		step(func() { tab.ClientDead("B") })
		step(func() { tab.Close(h, "A", true) }) // CLOSED

		// Crash recovery: clients re-register their opens, including a
		// write-sharing pair and a dirty closed file.
		step(func() { tab.Recover(h2, "A", 1, 0, 5, false) }) // ONE-READER
		step(func() { tab.Recover(h2, "B", 0, 1, 7, false) }) // WRITE-SHARED
		step(func() { tab.Recover(h3, "C", 0, 0, 9, true) })  // CLOSED-DIRTY
	})
	for _, v := range a.Violations() {
		t.Errorf("unexpected violation: %s", v)
	}
	if a.Events() == 0 {
		t.Fatal("auditor witnessed no events")
	}
	if !strings.Contains(journal, `"type":"event"`) {
		t.Error("journal has no event records")
	}
	if strings.Contains(journal, `"type":"violation"`) {
		t.Error("journal has violation records for a clean run")
	}
}

// TestCorruptTransitionFlagged feeds the auditor a fabricated transition no
// row of Table 4-1 permits; it must be flagged with the causal op ID of the
// process that produced it.
func TestCorruptTransitionFlagged(t *testing.T) {
	h := proto.Handle{FSID: 1, Ino: 7, Gen: 1}
	a, journal := run(t, func(p *sim.Proc, a *audit.Auditor, _ *core.Table) {
		p.SetOp(42)
		a.OnTransition(core.TransitionEvent{
			Event: "open", Handle: h, Client: "A",
			From: core.StateClosed, To: core.StateWriteShared,
		})
	})
	vs := a.Violations()
	if len(vs) == 0 {
		t.Fatal("illegal CLOSED -> WRITE-SHARED open not flagged")
	}
	for _, v := range vs {
		if v.Invariant != audit.InvTransition {
			t.Errorf("invariant = %s, want %s", v.Invariant, audit.InvTransition)
		}
		if v.Op != 42 {
			t.Errorf("violation op = %d, want the causal op 42", v.Op)
		}
	}
	if !strings.Contains(journal, `"type":"violation"`) {
		t.Error("violation missing from journal")
	}
}

// TestRepeatReadOpenDerived: a repeat read-only open is held to the same
// derivation as every other event. The sole reader is the recorded last
// writer and caches, so Table 4-1 derives ONE-RDR-DIRTY; a table that
// reports ONE-READER -> ONE-READER is flagged.
func TestRepeatReadOpenDerived(t *testing.T) {
	h := proto.Handle{FSID: 1, Ino: 9, Gen: 1}
	a, _ := run(t, func(p *sim.Proc, a *audit.Auditor, _ *core.Table) {
		a.OnTransition(core.TransitionEvent{
			Event: "open", Handle: h, Client: "A",
			From: core.StateClosed, To: core.StateOneReader, Caching: []core.ClientID{"A"},
		})
		a.OnTransition(core.TransitionEvent{
			Event: "open", Handle: h, Client: "A",
			From: core.StateOneReader, To: core.StateOneReader,
			LastWriter: "A", Caching: []core.ClientID{"A"},
		})
	})
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Invariant != audit.InvTransition {
		t.Fatalf("violations %v, want one %s for the underived ONE-READER", vs, audit.InvTransition)
	}
}

// TestVersionRegressionFlagged: a version number moving backwards (or an
// open-for-write not recording the prior version) breaks the §3.1 cache
// validation rule.
func TestVersionRegressionFlagged(t *testing.T) {
	h := proto.Handle{FSID: 1, Ino: 8, Gen: 1}
	a, _ := run(t, func(p *sim.Proc, a *audit.Auditor, _ *core.Table) {
		p.SetOp(1)
		a.OnTransition(core.TransitionEvent{
			Event: "open", Handle: h, Client: "A", Write: true,
			From: core.StateClosed, To: core.StateOneWriter,
			Version: 5, Prev: 0, Caching: []core.ClientID{"A"},
		})
		p.SetOp(2)
		a.OnTransition(core.TransitionEvent{
			Event: "close", Handle: h, Client: "A", Write: true,
			From: core.StateOneWriter, To: core.StateClosedDirty,
			Version: 5, Prev: 0, LastWriter: "A",
		})
		p.SetOp(3)
		// Reopen for write with a regressed version and a prev that does
		// not record the prior version.
		a.OnTransition(core.TransitionEvent{
			Event: "open", Handle: h, Client: "A", Write: true,
			From: core.StateClosedDirty, To: core.StateOneWriter,
			Version: 3, Prev: 2, Caching: []core.ClientID{"A"},
		})
	})
	byInv := map[string]bool{}
	for _, v := range a.Violations() {
		byInv[v.Invariant] = true
		if v.Op != 3 {
			t.Errorf("violation op = %d, want 3 (%s)", v.Op, v)
		}
	}
	if !byInv[audit.InvVersion] {
		t.Error("version regression not flagged")
	}
	if !byInv[audit.InvPrevVersion] {
		t.Error("prev-version mismatch not flagged")
	}
}

// TestWriteSharedCachingFlagged: a WRITE-SHARED file with a client still
// holding a caching grant violates the §2.2 rule.
func TestWriteSharedCachingFlagged(t *testing.T) {
	h := proto.Handle{FSID: 1, Ino: 9, Gen: 1}
	a, _ := run(t, func(p *sim.Proc, a *audit.Auditor, _ *core.Table) {
		p.SetOp(1)
		a.OnTransition(core.TransitionEvent{
			Event: "open", Handle: h, Client: "A", Write: true,
			From: core.StateClosed, To: core.StateOneWriter,
			Version: 1, Caching: []core.ClientID{"A"},
		})
		p.SetOp(2)
		a.OnTransition(core.TransitionEvent{
			Event: "open", Handle: h, Client: "B", Write: true,
			From: core.StateOneWriter, To: core.StateWriteShared,
			Version: 2, Prev: 1, Caching: []core.ClientID{"A"}, // A kept its grant!
		})
	})
	found := false
	for _, v := range a.Violations() {
		if v.Invariant == audit.InvWriteShared && v.Op == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("caching client in WRITE-SHARED not flagged: %v", a.Violations())
	}
}

// TestLedgerStaleRead exercises the write-ledger windows directly: a read
// returning bytes a later committed write superseded is stale; a read
// racing the write may legitimately return either version.
func TestLedgerStaleRead(t *testing.T) {
	k := sim.NewKernel(1)
	a := audit.New(k, nil)
	h := proto.Handle{FSID: 1, Ino: 10, Gen: 1}

	old := []byte("AAAA")
	fresh := []byte("BBBB")
	a.NoteWrite(1, h, 0, old, 10, 20)
	a.NoteWrite(2, h, 0, fresh, 100, 110)

	// A read overlapping the second write may still see the old bytes.
	a.CheckRead(3, h, 0, old, 95, 105)
	if n := len(a.Violations()); n != 0 {
		t.Fatalf("concurrent read of superseded bytes flagged: %v", a.Violations())
	}
	// A read entirely after the second write committed must see it.
	a.CheckRead(4, h, 0, fresh, 120, 125)
	if n := len(a.Violations()); n != 0 {
		t.Fatalf("current read flagged: %v", a.Violations())
	}
	a.CheckRead(5, h, 0, old, 130, 135)
	vs := a.Violations()
	if len(vs) != 1 {
		t.Fatalf("stale read not flagged: %v", vs)
	}
	if vs[0].Invariant != audit.InvStaleRead || vs[0].Op != 5 {
		t.Errorf("violation = %s, want %s with op 5", vs[0], audit.InvStaleRead)
	}

	// Unknown handles and never-written blocks are not vouched for.
	a.CheckRead(6, proto.Handle{FSID: 1, Ino: 99}, 0, old, 140, 145)
	a.CheckRead(7, h, 1<<20, old, 140, 145)
	if len(a.Violations()) != 1 {
		t.Errorf("unvouched reads flagged: %v", a.Violations())
	}
}

// TestLedgerCrossBlockWrite: a write spanning ledger blocks must be
// reassembled correctly on read.
func TestLedgerCrossBlockWrite(t *testing.T) {
	k := sim.NewKernel(1)
	a := audit.New(k, nil)
	h := proto.Handle{FSID: 1, Ino: 11, Gen: 1}

	data := bytes.Repeat([]byte("x"), 6000)
	copy(data[4090:], []byte("boundary"))
	a.NoteWrite(1, h, 1000, data, 10, 20)
	a.CheckRead(2, h, 1000, data, 30, 35)
	if len(a.Violations()) != 0 {
		t.Fatalf("cross-block read flagged: %v", a.Violations())
	}
	mangled := append([]byte(nil), data...)
	mangled[3500] ^= 0xff // corrupt a byte in the second ledger block
	a.CheckRead(3, h, 1000, mangled, 40, 45)
	if len(a.Violations()) != 1 {
		t.Errorf("corrupted cross-block read not flagged: %v", a.Violations())
	}
}
