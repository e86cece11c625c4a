package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"spritelynfs/internal/proto"
)

var fh = proto.Handle{FSID: 1, Ino: 42, Gen: 1}

func TestOpenReadFromClosed(t *testing.T) {
	tab := NewTable(0)
	res := tab.Open(fh, "A", false)
	if !res.CacheEnabled || len(res.Callbacks) != 0 {
		t.Errorf("res %+v", res)
	}
	if tab.State(fh) != StateOneReader {
		t.Errorf("state %v", tab.State(fh))
	}
}

func TestOpenWriteFromClosedBumpsVersion(t *testing.T) {
	tab := NewTable(0)
	res := tab.Open(fh, "A", true)
	if !res.CacheEnabled || res.Version == 0 || res.Version == res.PrevVersion {
		t.Errorf("res %+v", res)
	}
	if tab.State(fh) != StateOneWriter {
		t.Errorf("state %v", tab.State(fh))
	}
}

// TestTruncationLeavesNoVersionBehind: a create that truncates the file
// calls back its openers and its last writer, not a closed reader, whose
// clean copy stays labelled with the dropped entry's version. The next
// entry starts above it, so that reader's read-only open drops the copy.
func TestTruncationLeavesNoVersionBehind(t *testing.T) {
	tab := NewTable(0)
	copied := tab.Open(fh, "A", false).Version
	tab.Close(fh, "A", false)
	if cbs := tab.DropWithInvalidate(fh, "B"); len(cbs) != 0 {
		t.Fatalf("callbacks %+v to a closed reader", cbs)
	}
	tab.Open(fh, "B", false)
	if v := tab.Open(fh, "A", false).Version; v == copied {
		t.Errorf("the reader's reopen after the truncation validates its copy: version %d again", v)
	}
}

func TestSingleWriterLifecycle(t *testing.T) {
	// Write, close, reopen by the same client: cache stays valid via
	// the version numbers; no callbacks ever.
	tab := NewTable(0)
	r1 := tab.Open(fh, "A", true)
	tab.Close(fh, "A", true)
	if tab.State(fh) != StateClosedDirty {
		t.Fatalf("after close: %v", tab.State(fh))
	}
	if tab.LastWriter(fh) != "A" {
		t.Errorf("last writer %q", tab.LastWriter(fh))
	}
	r2 := tab.Open(fh, "A", false)
	if len(r2.Callbacks) != 0 {
		t.Errorf("reopen by last writer should not need callbacks: %+v", r2.Callbacks)
	}
	if r2.Version != r1.Version {
		t.Errorf("read reopen changed version %d -> %d", r1.Version, r2.Version)
	}
	if tab.State(fh) != StateOneRdrDirty {
		t.Errorf("state %v, want ONE-RDR-DIRTY", tab.State(fh))
	}
}

func TestClosedDirtyOtherReaderForcesWriteback(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", true)
	tab.Close(fh, "A", true)
	res := tab.Open(fh, "B", false)
	if len(res.Callbacks) != 1 {
		t.Fatalf("callbacks %+v", res.Callbacks)
	}
	cb := res.Callbacks[0]
	if cb.Client != "A" || !cb.WriteBack || cb.Invalidate {
		t.Errorf("callback %+v, want writeback-only to A", cb)
	}
	if !res.CacheEnabled {
		t.Error("B should be allowed to cache")
	}
	if tab.State(fh) != StateOneReader {
		t.Errorf("state %v", tab.State(fh))
	}
	if tab.LastWriter(fh) != "" {
		t.Error("last writer not cleared after writeback")
	}
}

func TestClosedDirtyOtherWriterBumpsAndFlushes(t *testing.T) {
	tab := NewTable(0)
	r1 := tab.Open(fh, "A", true)
	tab.Close(fh, "A", true)
	res := tab.Open(fh, "B", true)
	if len(res.Callbacks) != 1 || res.Callbacks[0].Client != "A" || !res.Callbacks[0].WriteBack {
		t.Fatalf("callbacks %+v", res.Callbacks)
	}
	if res.Version <= r1.Version || res.PrevVersion != r1.Version {
		t.Errorf("versions: r1=%d res=%+v", r1.Version, res)
	}
	if tab.State(fh) != StateOneWriter {
		t.Errorf("state %v", tab.State(fh))
	}
}

func TestTwoReadersNoCallbacks(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", false)
	res := tab.Open(fh, "B", false)
	if len(res.Callbacks) != 0 || !res.CacheEnabled {
		t.Errorf("res %+v", res)
	}
	if tab.State(fh) != StateMultReaders {
		t.Errorf("state %v", tab.State(fh))
	}
}

func TestReaderThenWriterInvalidatesReader(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", false)
	res := tab.Open(fh, "B", true)
	if res.CacheEnabled {
		t.Error("writer must not cache a write-shared file")
	}
	if len(res.Callbacks) != 1 {
		t.Fatalf("callbacks %+v", res.Callbacks)
	}
	cb := res.Callbacks[0]
	if cb.Client != "A" || !cb.Invalidate || cb.WriteBack {
		t.Errorf("callback %+v, want invalidate-only to A", cb)
	}
	if tab.State(fh) != StateWriteShared {
		t.Errorf("state %v", tab.State(fh))
	}
	if n := len(tab.entries[fh].cachingIDs()); n != 0 {
		t.Errorf("%d clients still caching a write-shared file", n)
	}
}

func TestWriterThenReaderFlushesAndInvalidatesWriter(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", true)
	res := tab.Open(fh, "B", false)
	if res.CacheEnabled {
		t.Error("reader of write-shared file must not cache")
	}
	if len(res.Callbacks) != 1 {
		t.Fatalf("callbacks %+v", res.Callbacks)
	}
	cb := res.Callbacks[0]
	if cb.Client != "A" || !cb.WriteBack || !cb.Invalidate {
		t.Errorf("callback %+v, want writeback+invalidate to A", cb)
	}
	if tab.State(fh) != StateWriteShared {
		t.Errorf("state %v", tab.State(fh))
	}
}

// A writer called back into WRITE-SHARED returns its dirty blocks with the
// callback, so it is no longer the last writer: once everyone has closed,
// the file is CLOSED and a later opener calls nobody back.
func TestCalledBackWriterIsNotLastWriter(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", true)
	tab.Close(fh, "A", true)
	tab.Open(fh, "A", true)
	res := tab.Open(fh, "B", false)
	if len(res.Callbacks) != 1 || !res.Callbacks[0].WriteBack || !res.Callbacks[0].Invalidate {
		t.Fatalf("callbacks %+v, want writeback+invalidate to A", res.Callbacks)
	}
	tab.Close(fh, "B", false)
	tab.Close(fh, "A", true)
	if tab.State(fh) != StateClosed || tab.LastWriter(fh) != "" {
		t.Errorf("state %v lastWriter %q, want CLOSED with none", tab.State(fh), tab.LastWriter(fh))
	}
	if res := tab.Open(fh, "C", false); len(res.Callbacks) != 0 {
		t.Errorf("C's open calls back %+v; A has nothing dirty", res.Callbacks)
	}
}

func TestMultReadersThenWriterInvalidatesAll(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", false)
	tab.Open(fh, "B", false)
	res := tab.Open(fh, "C", true)
	if len(res.Callbacks) != 2 {
		t.Fatalf("callbacks %+v, want 2 invalidates", res.Callbacks)
	}
	targets := map[ClientID]bool{}
	for _, cb := range res.Callbacks {
		if !cb.Invalidate || cb.WriteBack {
			t.Errorf("callback %+v", cb)
		}
		targets[cb.Client] = true
	}
	if !targets["A"] || !targets["B"] {
		t.Errorf("targets %v", targets)
	}
}

func TestExistingReaderUpgradesToWriterSameClient(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", false)
	res := tab.Open(fh, "A", true)
	if !res.CacheEnabled || len(res.Callbacks) != 0 {
		t.Errorf("same-client upgrade: %+v", res)
	}
	if tab.State(fh) != StateOneWriter {
		t.Errorf("state %v", tab.State(fh))
	}
}

func TestExistingReaderInMultUpgradesToWriteShared(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", false)
	tab.Open(fh, "B", false)
	res := tab.Open(fh, "A", true) // A already reads; now writes
	if res.CacheEnabled {
		t.Error("A must not cache")
	}
	// Only B needs a callback; A learns from the open reply.
	if len(res.Callbacks) != 1 || res.Callbacks[0].Client != "B" {
		t.Errorf("callbacks %+v", res.Callbacks)
	}
	if tab.State(fh) != StateWriteShared {
		t.Errorf("state %v", tab.State(fh))
	}
}

func TestRepeatOpensNoTransition(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", false)
	tab.Open(fh, "A", false)
	if tab.State(fh) != StateOneReader {
		t.Errorf("state %v", tab.State(fh))
	}
	r, w := openCounts(tab, fh)
	if r != 2 || w != 0 {
		t.Errorf("counts %d/%d", r, w)
	}
	tab.Close(fh, "A", false)
	if tab.State(fh) != StateOneReader {
		t.Errorf("state after one close %v", tab.State(fh))
	}
	tab.Close(fh, "A", false)
	if tab.State(fh) != StateClosed {
		t.Errorf("state after final close %v", tab.State(fh))
	}
}

func TestWriterStillReadingAfterWriteClose(t *testing.T) {
	// Table 4-1: ONE-WRITER, final close for write, client still
	// reading -> ONE-RDR-DIRTY, client recorded as last writer.
	tab := NewTable(0)
	tab.Open(fh, "A", false)
	tab.Open(fh, "A", true)
	tab.Close(fh, "A", true)
	if tab.State(fh) != StateOneRdrDirty {
		t.Errorf("state %v, want ONE-RDR-DIRTY", tab.State(fh))
	}
	if tab.LastWriter(fh) != "A" {
		t.Errorf("last writer %q", tab.LastWriter(fh))
	}
}

func TestOneRdrDirtyOtherReader(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", true)
	tab.Close(fh, "A", true)
	tab.Open(fh, "A", false) // ONE-RDR-DIRTY
	res := tab.Open(fh, "B", false)
	if len(res.Callbacks) != 1 || !res.Callbacks[0].WriteBack || res.Callbacks[0].Invalidate {
		t.Fatalf("callbacks %+v, want writeback-only", res.Callbacks)
	}
	if !res.CacheEnabled || tab.State(fh) != StateMultReaders {
		t.Errorf("res %+v state %v", res, tab.State(fh))
	}
}

func TestOneRdrDirtyOtherWriter(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", true)
	tab.Close(fh, "A", true)
	tab.Open(fh, "A", false) // ONE-RDR-DIRTY
	res := tab.Open(fh, "B", true)
	if len(res.Callbacks) != 1 || !res.Callbacks[0].WriteBack || !res.Callbacks[0].Invalidate {
		t.Fatalf("callbacks %+v, want writeback+invalidate", res.Callbacks)
	}
	if res.CacheEnabled || tab.State(fh) != StateWriteShared {
		t.Errorf("res %+v state %v", res, tab.State(fh))
	}
}

func TestWriteSharedDrainsToClosed(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", true)
	tab.Open(fh, "B", false) // write-shared
	tab.Close(fh, "B", false)
	// A alone remains, but was told to stop caching; conservatively the
	// entry stays write-shared until everyone is gone.
	if tab.State(fh) != StateWriteShared {
		t.Errorf("state %v", tab.State(fh))
	}
	tab.Close(fh, "A", true)
	// A was not caching at close time, so no dirty blocks anywhere.
	if tab.State(fh) != StateClosed {
		t.Errorf("state %v, want CLOSED (write-through writer has no dirty)", tab.State(fh))
	}
	if tab.LastWriter(fh) != "" {
		t.Error("write-through writer recorded as last writer")
	}
}

func TestMultReadersDrainToOneReader(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", false)
	tab.Open(fh, "B", false)
	tab.Close(fh, "A", false)
	if tab.State(fh) != StateOneReader {
		t.Errorf("state %v", tab.State(fh))
	}
}

func TestVersionMonotonic(t *testing.T) {
	tab := NewTable(0)
	last := uint32(0)
	for i := 0; i < 10; i++ {
		res := tab.Open(fh, "A", true)
		if res.Version <= last {
			t.Fatalf("version %d not above %d", res.Version, last)
		}
		if res.PrevVersion != last && i > 0 {
			t.Fatalf("prev %d, want %d", res.PrevVersion, last)
		}
		last = res.Version
		tab.Close(fh, "A", true)
	}
}

func TestGlobalCounterSharedAcrossFiles(t *testing.T) {
	// §4.3.3: the prototype generates versions from a global counter.
	tab := NewTable(0)
	h2 := proto.Handle{FSID: 1, Ino: 43, Gen: 1}
	r1 := tab.Open(fh, "A", true)
	r2 := tab.Open(h2, "A", true)
	if r1.Version == r2.Version {
		t.Error("two files got the same version from the global counter")
	}
}

func TestDropRemovesEntry(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", true)
	tab.Drop(fh)
	if tab.Len() != 0 {
		t.Error("entry survived Drop")
	}
	if tab.State(fh) != StateClosed {
		t.Error("dropped file not CLOSED")
	}
}

func TestClientDeadMarksInconsistent(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", true)
	tab.Close(fh, "A", true) // CLOSED-DIRTY, A holds dirty blocks
	affected := tab.ClientDead("A")
	if len(affected) != 1 || affected[0] != fh {
		t.Fatalf("affected %v", affected)
	}
	res := tab.Open(fh, "B", false)
	if !res.Inconsistent {
		t.Error("opener not warned about lost dirty data")
	}
	// Only the first opener is warned.
	tab.Close(fh, "B", false)
	res = tab.Open(fh, "B", false)
	if res.Inconsistent {
		t.Error("second opener warned again")
	}
}

// TestClientDeadInHandleOrder: a dead client's transitions are observed,
// and its handles returned, in handle order, whatever order the table's
// map walk takes — one client touching 40 entries, in three ways.
func TestClientDeadInHandleOrder(t *testing.T) {
	tab := NewTable(0)
	var seen []proto.Handle
	tab.Observer = func(ev TransitionEvent) {
		if ev.Event == "client-dead" {
			seen = append(seen, ev.Handle)
		}
	}
	for i := 0; i < 40; i++ {
		h := proto.Handle{FSID: uint32(1 + i%2), Ino: uint64(1000 - 7*i), Gen: 1}
		switch i % 3 {
		case 0: // open for reading
			tab.Open(h, "A", false)
		case 1: // closed dirty: A is the last writer
			tab.Open(h, "A", true)
			tab.Close(h, "A", true)
		default: // read by another client; A is not involved
			tab.Open(h, "B", false)
		}
	}
	affected := tab.ClientDead("A")
	if len(affected) != 27 {
		t.Fatalf("%d handles affected, want 27", len(affected))
	}
	if !slices.Equal(seen, affected) {
		t.Errorf("observed %v, returned %v", seen, affected)
	}
	for i := 1; i < len(affected); i++ {
		if !affected[i-1].Less(affected[i]) {
			t.Fatalf("handles out of order at %d: %v before %v", i, affected[i-1], affected[i])
		}
	}
}

func TestClientDeadWhileWritingOpen(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", true)
	tab.ClientDead("A")
	if tab.State(fh) != StateClosed {
		t.Errorf("state %v", tab.State(fh))
	}
	res := tab.Open(fh, "B", false)
	if !res.Inconsistent {
		t.Error("no inconsistency warning after caching writer died")
	}
}

func TestClientDeadReaderHarmless(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", false)
	tab.Open(fh, "B", false)
	tab.ClientDead("A")
	if tab.State(fh) != StateOneReader {
		t.Errorf("state %v", tab.State(fh))
	}
	res := tab.Open(fh, "C", false)
	if res.Inconsistent {
		t.Error("reader death should not warn")
	}
}

func TestTableLimitReclaimsClosedEntries(t *testing.T) {
	tab := NewTable(3)
	handles := make([]proto.Handle, 4)
	for i := range handles {
		handles[i] = proto.Handle{FSID: 1, Ino: uint64(100 + i), Gen: 1}
	}
	// Three files opened and fully closed (clean): they stay as CLOSED
	// entries holding versions.
	for i := 0; i < 3; i++ {
		tab.Open(handles[i], "A", false)
		tab.Close(handles[i], "A", false)
	}
	if tab.Len() != 3 {
		t.Fatalf("len %d", tab.Len())
	}
	// A fourth file forces reclamation of the oldest CLOSED entry.
	res := tab.Open(handles[3], "A", false)
	if res.TableFull {
		t.Fatal("open failed despite reclaimable entries")
	}
	if tab.Len() != 3 {
		t.Errorf("len %d after reclaim", tab.Len())
	}
	if tab.Stats().Reclaims != 1 {
		t.Errorf("reclaims %d", tab.Stats().Reclaims)
	}
}

func TestTableFullWhenAllOpen(t *testing.T) {
	tab := NewTable(2)
	tab.Open(proto.Handle{Ino: 1}, "A", false)
	tab.Open(proto.Handle{Ino: 2}, "A", false)
	res := tab.Open(proto.Handle{Ino: 3}, "A", false)
	if !res.TableFull {
		t.Error("expected TableFull with every entry open")
	}
}

func TestReclaimCandidates(t *testing.T) {
	tab := NewTable(0)
	h2 := proto.Handle{FSID: 1, Ino: 43, Gen: 1}
	tab.Open(fh, "A", true)
	tab.Close(fh, "A", true)
	tab.Open(h2, "B", true)
	tab.Close(h2, "B", true)
	cbs := tab.ReclaimCandidates(10)
	if len(cbs) != 2 {
		t.Fatalf("candidates %+v", cbs)
	}
	for _, cb := range cbs {
		if !cb.WriteBack {
			t.Errorf("reclaim callback %+v lacks writeback", cb)
		}
		tab.Reclaimed(cb.Handle)
	}
	if tab.State(fh) != StateClosed || tab.State(h2) != StateClosed {
		t.Error("reclaimed entries not CLOSED")
	}
	if tab.LastWriter(fh) != "" {
		t.Error("last writer survives reclamation")
	}
}

// Recovered entries not opened since all carry the same stamp; victims
// among them go lowest handle first, whatever the map's order.
func TestReclaimCandidatesTieByHandle(t *testing.T) {
	tab := NewTable(0)
	for i := uint64(0); i < 20; i++ {
		tab.Recover(proto.Handle{FSID: 1, Ino: 20 - i, Gen: 1}, "A", 0, 0, 3, true)
	}
	var got []uint64
	for _, cb := range tab.ReclaimCandidates(3) {
		got = append(got, cb.Handle.Ino)
	}
	if !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Errorf("victims %v, want inos [1 2 3]", got)
	}
}

func TestRecoverRebuildsState(t *testing.T) {
	tab := NewTable(0)
	tab.Recover(fh, "A", 0, 1, 17, true)
	if tab.State(fh) != StateOneWriter {
		t.Errorf("state %v", tab.State(fh))
	}
	if tab.Version(fh) != 17 {
		t.Errorf("version %d", tab.Version(fh))
	}
	// The global counter must resume above recovered versions.
	res := tab.Open(proto.Handle{Ino: 99}, "B", true)
	if res.Version <= 17 {
		t.Errorf("post-recovery version %d not above 17", res.Version)
	}
}

func TestRecoverWriteSharingDetected(t *testing.T) {
	tab := NewTable(0)
	tab.Recover(fh, "A", 0, 1, 5, false)
	tab.Recover(fh, "B", 1, 0, 5, false)
	if tab.State(fh) != StateWriteShared {
		t.Errorf("state %v, want WRITE-SHARED", tab.State(fh))
	}
	if len(tab.entries[fh].cachingIDs()) != 0 {
		t.Error("recovered write-shared file has caching clients")
	}
}

func TestRecoverClosedDirty(t *testing.T) {
	tab := NewTable(0)
	tab.Recover(fh, "A", 0, 0, 7, true)
	if tab.State(fh) != StateClosedDirty || tab.LastWriter(fh) != "A" {
		t.Errorf("state %v lastWriter %q", tab.State(fh), tab.LastWriter(fh))
	}
}

// TestRecoverReaderKeepsDirty pins a schedule the exhaustive searches
// found: A reads, writes and closes its write open (ONE-RDR-DIRTY), the
// server reboots, and A's reopen reports one reader and dirty blocks. The
// rebuilt entry must still name A the last writer, so that B's open calls
// A's blocks back.
func TestRecoverReaderKeepsDirty(t *testing.T) {
	tab := NewTable(0)
	tab.Recover(fh, "A", 1, 0, 7, true)
	if tab.State(fh) != StateOneRdrDirty || tab.LastWriter(fh) != "A" {
		t.Fatalf("state %v lastWriter %q, want ONE-RDR-DIRTY and A", tab.State(fh), tab.LastWriter(fh))
	}
	res := tab.Open(fh, "B", false)
	if len(res.Callbacks) != 1 || res.Callbacks[0].Client != "A" || !res.Callbacks[0].WriteBack {
		t.Errorf("B's open called back %+v, want a write-back to A", res.Callbacks)
	}
}

// TestReclaimedEntryStartsAboveEveryVersion pins a schedule
// TestCachesExhaustive found: A reads the file at version 0 and closes, B
// writes it and closes, and the table, full, reclaims the entry. A's
// reopen makes a new entry, whose version must not be one A's stale
// blocks carry.
func TestReclaimedEntryStartsAboveEveryVersion(t *testing.T) {
	tab := NewTable(1)
	tab.Open(fh, "A", false)
	tab.Close(fh, "A", false)
	tab.Open(fh, "B", true)
	tab.Close(fh, "B", true)
	for _, cb := range tab.ReclaimCandidates(1) {
		tab.Reclaimed(cb.Handle)
	}
	if tab.Len() != 0 {
		t.Fatalf("%d entries after reclamation, want 0", tab.Len())
	}
	if res := tab.Open(fh, "A", false); res.Version <= 1 {
		t.Errorf("reopen after reclamation at version %d, which A's or B's blocks may carry", res.Version)
	}
}

// TestReclaimKeepsWarning pins a schedule TestCachesExhaustive found: A
// dies holding dirty blocks, and the full table needs an entry for
// another file. The file's closed entry holds the warning owed to its
// next opener (§3.2), so it is not reclaimed.
func TestReclaimKeepsWarning(t *testing.T) {
	tab := NewTable(1)
	tab.Open(fh, "A", true)
	tab.ClientDead("A")
	if !tab.Open(proto.Handle{FSID: 1, Ino: 99, Gen: 1}, "B", false).TableFull {
		t.Error("the warned entry was reclaimed for another file")
	}
	if !tab.Open(fh, "B", false).Inconsistent {
		t.Error("the next opener was not warned")
	}
}

// The paper's correctness claim: no two clients ever have inconsistent
// cached copies. Operationally on the table: whenever any client holds
// the file open for writing, no OTHER client is permitted to cache, and
// if two or more clients have it open with a writer among them, NO client
// caches. Checked across random open/close sequences.
func TestQuickConsistencyInvariant(t *testing.T) {
	type action struct {
		Client uint8
		Write  bool
		Open   bool
	}
	clients := []ClientID{"A", "B", "C"}
	f := func(actions []action, seed int64) bool {
		tab := NewTable(0)
		rng := rand.New(rand.NewSource(seed))
		// Track open handles per (client, mode) so closes are legal.
		type openRec struct {
			c ClientID
			w bool
		}
		var opens []openRec
		for _, a := range actions {
			c := clients[int(a.Client)%len(clients)]
			if a.Open || len(opens) == 0 {
				tab.Open(fh, c, a.Write)
				opens = append(opens, openRec{c, a.Write})
			} else {
				i := rng.Intn(len(opens))
				rec := opens[i]
				opens = append(opens[:i], opens[i+1:]...)
				tab.Close(fh, rec.c, rec.w)
			}

			// Invariant check.
			caching := tab.entries[fh].cachingIDs()
			writers := 0
			clientsWithOpen := map[ClientID]bool{}
			for _, rec := range opens {
				clientsWithOpen[rec.c] = true
				if rec.w {
					writers++
				}
			}
			if writers > 0 && len(clientsWithOpen) > 1 {
				// Write-shared: nobody may cache.
				if len(caching) > 0 {
					return false
				}
				if tab.State(fh) != StateWriteShared {
					return false
				}
			}
			if writers > 0 && len(clientsWithOpen) == 1 {
				// Single writer: only that client may cache.
				for _, cc := range caching {
					if !clientsWithOpen[cc] {
						return false
					}
				}
			}
			r, w := openCounts(tab, fh)
			if w != writers || r != len(opens)-writers {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: version numbers never decrease, and every open-for-write
// strictly increases the file's version.
func TestQuickVersionMonotonicity(t *testing.T) {
	type action struct {
		Client uint8
		Write  bool
	}
	f := func(actions []action) bool {
		tab := NewTable(0)
		last := uint32(0)
		for _, a := range actions {
			c := ClientID([]string{"A", "B"}[int(a.Client)%2])
			res := tab.Open(fh, c, a.Write)
			if res.Version < last {
				return false
			}
			if a.Write && res.Version <= last && last != 0 {
				return false
			}
			if a.Write && res.PrevVersion != last {
				return false
			}
			last = res.Version
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: callbacks are never addressed to the opener itself.
func TestQuickCallbacksNeverToOpener(t *testing.T) {
	type action struct {
		Client uint8
		Write  bool
		Open   bool
	}
	clients := []ClientID{"A", "B", "C"}
	f := func(actions []action) bool {
		tab := NewTable(0)
		openCount := map[ClientID]map[bool]int{}
		for _, c := range clients {
			openCount[c] = map[bool]int{}
		}
		for _, a := range actions {
			c := clients[int(a.Client)%len(clients)]
			if a.Open || openCount[c][a.Write] == 0 {
				res := tab.Open(fh, c, a.Write)
				openCount[c][a.Write]++
				for _, cb := range res.Callbacks {
					if cb.Client == c {
						return false
					}
				}
			} else {
				tab.Close(fh, c, a.Write)
				openCount[c][a.Write]--
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestReturningOpenAllocationBudget holds an open and close of a resident
// entry by a client that opened it before, read and write, alone and
// beside a reader that stays, to no object: the entry holds its clients'
// records by value, in an array the close leaves for the next open (1
// while each open made its client's record).
func TestReturningOpenAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	tab := NewTable(0)
	other := proto.Handle{FSID: 1, Ino: 43, Gen: 1}
	tab.Open(other, "B", false)
	for _, tc := range []struct {
		name  string
		h     proto.Handle
		write bool
	}{{"read alone", fh, false}, {"write alone", fh, true}, {"read beside a reader", other, false}} {
		if allocs := testing.AllocsPerRun(100, func() {
			tab.Open(tc.h, "A", tc.write)
			tab.Close(tc.h, "A", tc.write)
		}); allocs > 0 {
			t.Errorf("%s: a returning Open+Close allocates %.0f objects, budget 0", tc.name, allocs)
		}
	}
}

func TestStateStrings(t *testing.T) {
	states := map[FileState]string{
		StateClosed:      "CLOSED",
		StateClosedDirty: "CLOSED-DIRTY",
		StateOneReader:   "ONE-READER",
		StateOneRdrDirty: "ONE-RDR-DIRTY",
		StateMultReaders: "MULT-READERS",
		StateOneWriter:   "ONE-WRITER",
		StateWriteShared: "WRITE-SHARED",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", true)
	tab.Open(fh, "B", false) // callback to A, write-share
	tab.Close(fh, "A", true)
	tab.Close(fh, "B", false)
	s := tab.Stats()
	if s.WriteShares != 1 || s.VersionBumps != 1 {
		t.Errorf("stats %+v", s)
	}
}

// WriteShares counts transitions into WRITE-SHARED, not opens of a file
// already there.
func TestWriteSharesCountsTransitions(t *testing.T) {
	tab := NewTable(0)
	tab.Open(fh, "A", true)
	tab.Open(fh, "B", false) // into WRITE-SHARED
	tab.Open(fh, "C", true)  // already there
	tab.Close(fh, "B", false)
	tab.Close(fh, "C", true)
	if got := tab.Stats().WriteShares; got != 1 {
		t.Errorf("WriteShares %d, want 1", got)
	}
}

func TestSnapshot(t *testing.T) {
	tab := NewTable(0)
	h2 := proto.Handle{FSID: 1, Ino: 43, Gen: 1}
	tab.Open(fh, "A", true)
	tab.Open(h2, "B", false)
	tab.Open(h2, "C", false)
	snap := tab.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("%d entries", len(snap))
	}
	// Most recently touched first: h2.
	if snap[0].Handle != h2 || snap[1].Handle != fh {
		t.Errorf("order: %v then %v", snap[0].Handle, snap[1].Handle)
	}
	if snap[0].State != StateMultReaders || len(snap[0].Clients) != 2 {
		t.Errorf("h2 snapshot %+v", snap[0])
	}
	if snap[1].State != StateOneWriter || snap[1].Clients[0].Writers != 1 || !snap[1].Clients[0].Caching {
		t.Errorf("fh snapshot %+v", snap[1])
	}
	// Snapshots are copies: mutating the table later must not affect
	// the snapshot.
	tab.Close(h2, "B", false)
	if snap[0].State != StateMultReaders {
		t.Error("snapshot aliased live state")
	}
}

// TestSnapshotOfRecoveredEntriesInHandleOrder: entries a recovery rebuilt
// carry no stamp, so recency cannot order them; they follow every
// stamped entry in handle order, not map order. A promoted backup's
// reissued invalidations and the state dump read this order.
func TestSnapshotOfRecoveredEntriesInHandleOrder(t *testing.T) {
	tab := NewTable(0)
	for i := 0; i < 40; i++ {
		h := proto.Handle{FSID: uint32(1 + i%2), Ino: uint64(1000 - 7*i), Gen: 1}
		tab.Recover(h, "A", 1, 0, 3, false)
	}
	tab.Open(fh, "B", false)
	snap := tab.Snapshot()
	if len(snap) != 41 || snap[0].Handle != fh {
		t.Fatalf("%d entries, first %v; want 41, first the stamped %v", len(snap), snap[0].Handle, fh)
	}
	for i := 2; i < len(snap); i++ {
		if !snap[i-1].Handle.Less(snap[i].Handle) {
			t.Fatalf("recovered entries out of handle order at %d: %v before %v", i, snap[i-1].Handle, snap[i].Handle)
		}
	}
}

func TestDropWithInvalidate(t *testing.T) {
	tab := NewTable(0)
	// A holds dirty blocks (CLOSED-DIRTY); B has it open for read.
	tab.Open(fh, "A", true)
	tab.Close(fh, "A", true)
	tab.Open(fh, "B", false) // writeback callback would fire in the server; here state is ONE-READER with lastWriter cleared
	// Rebuild the interesting shape: A dirty, B reading.
	tab.Drop(fh)
	tab.Open(fh, "B", false)
	e := tab.entries[fh]
	e.lastWriter = "A" // simulate dirty holder alongside the reader
	cbs := tab.DropWithInvalidate(fh, "C")
	if len(cbs) != 2 {
		t.Fatalf("callbacks %+v, want invalidations for A and B", cbs)
	}
	for _, cb := range cbs {
		if !cb.Invalidate || cb.WriteBack {
			t.Errorf("callback %+v, want invalidate-only", cb)
		}
	}
	if cbs[0].Client != "A" || cbs[1].Client != "B" {
		t.Errorf("order %v, want deterministic A then B", cbs)
	}
	if tab.Len() != 0 {
		t.Error("entry survived")
	}
	if tab.DropWithInvalidate(fh, "C") != nil {
		t.Error("second drop returned callbacks")
	}
	// The truncating client itself is exempt.
	tab.Open(fh, "A", true)
	tab.Close(fh, "A", true)
	if cbs := tab.DropWithInvalidate(fh, "A"); len(cbs) != 0 {
		t.Errorf("creator received its own invalidation: %+v", cbs)
	}
}

// openCounts totals the reader and writer opens h's entry records.
func openCounts(t *Table, h proto.Handle) (readers, writers int) {
	for _, ci := range t.entries[h].clients {
		readers += ci.readers
		writers += ci.writers
	}
	return readers, writers
}

// cachingIDs lists the clients caching e, as a transition reports them
// (Table.observe).
func (e *entry) cachingIDs() []ClientID {
	var ids []ClientID
	for _, ci := range e.clients {
		if ci.caching {
			ids = append(ids, ci.id)
		}
	}
	return ids
}
