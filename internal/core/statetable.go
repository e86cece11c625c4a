// Package core implements the paper's central contribution: the Spritely
// NFS consistency machinery. The server side is the state-table manager of
// §4.3 — per-file consistency states, the transitions of Table 4-1,
// callback generation, version-number management, and the bounded table
// with reclamation — and the client side (engine.go) is the cache-
// consistency engine that decides when cached blocks are valid and how to
// react to callbacks.
//
// The state table is a pure, non-blocking data structure: an Open or Close
// computes the transition immediately and returns the callbacks the server
// must issue (and await) before replying to the client. Serializing opens
// of the same file while callbacks are outstanding is the caller's job
// (the SNFS server holds a per-file lock across the open).
//
// Table 4-1 is derived, not transcribed: every method that moves an entry
// updates its opens, caching grants and recorded last writer, then sets
// the state from them with entry.derive. Open's per-state switch decides
// only whom the open calls back and which other clients stop caching.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"spritelynfs/internal/proto"
)

// FileState is a file's consistency state (§4.3.4).
type FileState int

// The seven states of the paper's prototype.
const (
	// StateClosed: file not open by any client. (The entry is retained
	// so the version number survives for cache validation on reopen;
	// it is the first candidate for reclamation.)
	StateClosed FileState = iota
	// StateClosedDirty: file not open, but the last writer may still
	// have dirty blocks.
	StateClosedDirty
	// StateOneReader: open read-only by one client.
	StateOneReader
	// StateOneRdrDirty: open read-only by one client, which may have
	// dirty blocks cached from a previous open.
	StateOneRdrDirty
	// StateMultReaders: open read-only by two or more clients.
	StateMultReaders
	// StateOneWriter: open read-write by one client.
	StateOneWriter
	// StateWriteShared: open by two or more clients, including at least
	// one writer. Nobody caches.
	StateWriteShared
)

func (s FileState) String() string {
	switch s {
	case StateClosed:
		return "CLOSED"
	case StateClosedDirty:
		return "CLOSED-DIRTY"
	case StateOneReader:
		return "ONE-READER"
	case StateOneRdrDirty:
		return "ONE-RDR-DIRTY"
	case StateMultReaders:
		return "MULT-READERS"
	case StateOneWriter:
		return "ONE-WRITER"
	case StateWriteShared:
		return "WRITE-SHARED"
	}
	return fmt.Sprintf("FileState(%d)", int(s))
}

// ClientID identifies a client host (its network address in this
// reproduction; the paper's implementation used the host's network
// address the same way, §4.3.2).
type ClientID string

// Callback is a server-to-client request the caller must deliver (and
// wait for) before completing the operation that generated it.
type Callback struct {
	Client     ClientID
	Handle     proto.Handle
	WriteBack  bool
	Invalidate bool
}

// clientInfo is the per-client block of a state table entry (§4.3.2).
type clientInfo struct {
	id      ClientID
	readers int  // read-only opens by processes at this client
	writers int  // read-write opens
	caching bool // what the server last told this client about caching
}

// entry is one state-table record (68 bytes in the paper's kernel).
type entry struct {
	handle  proto.Handle
	state   FileState
	version uint32
	prev    uint32 // version before the most recent open-for-write
	// clients are held by value: a pointer to one (client, addClient)
	// is valid until the next add or remove, and the array is reused
	// across opens and closes.
	clients []clientInfo
	// lastWriter is the client recorded as possibly holding dirty
	// blocks (meaningful in CLOSED-DIRTY and ONE-RDR-DIRTY).
	lastWriter ClientID
	// inconsistent is set when the last writer died before returning
	// its dirty blocks; the next open is warned (§3.2).
	inconsistent bool
	// lru links for reclamation ordering of closed entries.
	stamp uint64
}

// OpenResult is the outcome of a state-table open.
type OpenResult struct {
	// CacheEnabled tells the opening client whether it may cache.
	CacheEnabled bool
	// Version and PrevVersion implement the §3.1 validation rule: a
	// cache is valid if it matches Version or, when opening for write,
	// PrevVersion (the bump was caused by this very open).
	Version     uint32
	PrevVersion uint32
	// Callbacks must be delivered before replying to the opener.
	Callbacks []Callback
	// Inconsistent warns that the file's last writer died holding
	// dirty blocks.
	Inconsistent bool
	// TableFull reports that no entry could be allocated (every entry
	// belongs to an open file).
	TableFull bool
}

// Stats counts state-table activity. The opens, closes and callbacks
// behind it are counted once, as the server's RPCs (server.Base.Ops).
type Stats struct {
	VersionBumps    int64
	Reclaims        int64
	Inconsistencies int64
	WriteShares     int64 // transitions into WRITE-SHARED
}

// TransitionEvent describes one state-table mutation as seen by the
// Observer hook. From is the state before the mutation, To the state
// after; Version/Prev are the entry's version numbers after the mutation.
// Readers and Writers carry the reopen registration counts on "recover"
// events (zero otherwise) so an observer can rebuild its shadow counts.
type TransitionEvent struct {
	Event        string // open, close, client-dead, recover, reclaim, drop, invalidate
	Handle       proto.Handle
	Client       ClientID
	Write        bool
	From, To     FileState
	Version      uint32
	Prev         uint32
	CacheEnabled bool
	Inconsistent bool
	HasDirty     bool // recover only: client reported dirty blocks
	Dropped      bool // the entry was removed from the table
	Readers      uint32
	Writers      uint32
	LastWriter   ClientID
	Caching      []ClientID
	Callbacks    int
}

// Table is the SNFS server state table.
type Table struct {
	maxEntries int
	entries    map[proto.Handle]*entry
	nextVer    uint32
	fresh      uint32 // a new entry's version (forget)
	nextStamp  uint64
	stats      Stats
	// Observer, when set, is called synchronously with every mutation —
	// the one way a transition is reported (the server fans it out to the
	// auditor's shadow machine, the replication stream and its ring).
	Observer func(TransitionEvent)
}

// observe reports a mutation to the Observer. Only then does it list
// the clients caching e, a live entry (nil for a reclaim or a drop).
func (t *Table) observe(e *entry, ev TransitionEvent) {
	if t.Observer == nil {
		return
	}
	for i := 0; e != nil && i < len(e.clients); i++ {
		if e.clients[i].caching {
			ev.Caching = append(ev.Caching, e.clients[i].id)
		}
	}
	t.Observer(ev)
}

// NewTable returns a table bounded to maxEntries (0 means the paper's
// liberal default of 1000 simultaneously known files).
func NewTable(maxEntries int) *Table {
	if maxEntries == 0 {
		maxEntries = 1000
	}
	return &Table{
		maxEntries: maxEntries,
		entries:    make(map[proto.Handle]*entry),
	}
}

// Stats returns a snapshot of the counters.
func (t *Table) Stats() Stats { return t.stats }

// Len reports the number of live entries.
func (t *Table) Len() int { return len(t.entries) }

// StateCount reports how many live entries sit in state s (the per-state
// gauges behind the observability layer).
func (t *Table) StateCount(s FileState) int {
	n := 0
	for _, e := range t.entries {
		if e.state == s {
			n++
		}
	}
	return n
}

// State reports the consistency state of h (StateClosed for unknown
// files, which is semantically accurate: no entry means nothing cached).
func (t *Table) State(h proto.Handle) FileState {
	if e, ok := t.entries[h]; ok {
		return e.state
	}
	return StateClosed
}

// Version reports the current version number of h (0 if unknown).
func (t *Table) Version(h proto.Handle) uint32 {
	if e, ok := t.entries[h]; ok {
		return e.version
	}
	return 0
}

func (t *Table) bump(e *entry) {
	t.nextVer++
	t.stats.VersionBumps++
	e.prev = e.version
	e.version = t.nextVer
}

func (e *entry) client(c ClientID) *clientInfo {
	for i := range e.clients {
		if e.clients[i].id == c {
			return &e.clients[i]
		}
	}
	return nil
}

func (e *entry) addClient(c ClientID) *clientInfo {
	if ci := e.client(c); ci != nil {
		return ci
	}
	e.clients = append(e.clients, clientInfo{id: c})
	return &e.clients[len(e.clients)-1]
}

func (e *entry) removeClient(c ClientID) {
	e.clients = slices.DeleteFunc(e.clients, func(ci clientInfo) bool { return ci.id == c })
}

func (e *entry) writers() int {
	n := 0
	for _, ci := range e.clients {
		n += ci.writers
	}
	return n
}

// shared reports write sharing: two or more clients, one of them a writer.
func (e *entry) shared() bool { return len(e.clients) > 1 && e.writers() > 0 }

// derive is Table 4-1: the state the entry's opens, caching grants and
// recorded last writer imply. It is the only way a state is set.
func (e *entry) derive() FileState {
	switch {
	case len(e.clients) == 0:
		if e.lastWriter != "" {
			return StateClosedDirty
		}
		return StateClosed
	case e.writers() > 0:
		if len(e.clients) == 1 && e.clients[0].caching {
			return StateOneWriter
		}
		return StateWriteShared
	case len(e.clients) > 1:
		return StateMultReaders
	case e.lastWriter == e.clients[0].id && e.clients[0].caching:
		return StateOneRdrDirty
	}
	return StateOneReader
}

// callBack queues a callback to client to. A write-back brings the last
// writer's dirty blocks home, so the entry records none afterwards.
func (e *entry) callBack(res *OpenResult, to ClientID, writeBack, invalidate bool) {
	res.Callbacks = append(res.Callbacks, Callback{
		Client: to, Handle: e.handle, WriteBack: writeBack, Invalidate: invalidate,
	})
	if writeBack {
		e.lastWriter = ""
	}
}

// Open records that client c opened h (write if forWrite) and returns the
// resulting cachability decision, version numbers, and any callbacks the
// server must deliver before replying. The state transition itself has
// already been applied; if a callback's client turns out to be dead, the
// server reports it via ClientDead.
func (t *Table) Open(h proto.Handle, c ClientID, forWrite bool) OpenResult {
	e, ok := t.entries[h]
	if !ok {
		var full bool
		e, full = t.newEntry(h)
		if full {
			return OpenResult{TableFull: true}
		}
	}
	t.nextStamp++
	e.stamp = t.nextStamp
	from := e.state

	var res OpenResult
	if e.inconsistent {
		res.Inconsistent = true
		e.inconsistent = false // warn the first opener only
		t.stats.Inconsistencies++
	}

	// What Table 4-1 varies by state: whom the open calls back, and
	// which other clients stop caching.
	switch from {
	case StateClosedDirty:
		if c != e.lastWriter {
			// Another client wants the file: the last writer must
			// return its dirty blocks first. Its (then clean) cached
			// copy may be kept — version checking invalidates it
			// lazily if this open bumps the version.
			e.callBack(&res, e.lastWriter, true, false)
		}
	case StateOneReader, StateOneRdrDirty:
		// A reader elsewhere returns its dirty blocks (if it is the
		// last writer) so the server's copy is current, and stops
		// caching if this open begins read/write sharing.
		dirty := from == StateOneRdrDirty
		if r := &e.clients[0]; r.id != c && (forWrite || dirty) {
			e.callBack(&res, r.id, dirty, forWrite)
			if forWrite {
				r.caching = false
			}
		}
	case StateMultReaders:
		// Write sharing begins: every other reader stops caching.
		if forWrite {
			for i := range e.clients {
				if ci := &e.clients[i]; ci.id != c {
					e.callBack(&res, ci.id, false, true)
					ci.caching = false
				}
			}
		}
	case StateOneWriter:
		// A second client arrives while one holds the file open for
		// write: write sharing. The writer returns its dirty pages and
		// stops caching (§2.2).
		if w := &e.clients[0]; w.id != c {
			e.callBack(&res, w.id, true, true)
			w.caching = false
		}
	}

	if forWrite {
		t.bump(e)
	}
	ci := e.addClient(c)
	if forWrite {
		ci.writers++
	} else {
		ci.readers++
	}
	// The opener caches unless the file was or now is write-shared; a
	// reopen re-grants caching otherwise.
	ci.caching = from != StateWriteShared && !e.shared()
	e.state = e.derive()
	if e.state == StateWriteShared && from != StateWriteShared {
		t.stats.WriteShares++
	}

	res.CacheEnabled = ci.caching
	res.Version = e.version
	res.PrevVersion = e.prev
	t.observe(e, TransitionEvent{
		Event: "open", Handle: h, Client: c, Write: forWrite,
		From: from, To: e.state, Version: e.version, Prev: e.prev,
		CacheEnabled: res.CacheEnabled, Inconsistent: res.Inconsistent,
		LastWriter: e.lastWriter, Callbacks: len(res.Callbacks),
	})
	return res
}

// Close records that client c performed the final close of one open of h;
// forWrite must match the mode passed at open (§3.1). Unknown handles and
// clients are tolerated (a close can race a reclamation or a reboot).
func (t *Table) Close(h proto.Handle, c ClientID, forWrite bool) {
	e, ok := t.entries[h]
	if !ok {
		return
	}
	ci := e.client(c)
	if ci == nil {
		return
	}
	from := e.state
	if forWrite {
		if ci.writers > 0 {
			ci.writers--
		}
		if ci.caching {
			// Table 4-1: a caching writer's close records it as
			// last writer.
			e.lastWriter = c
		}
	} else if ci.readers > 0 {
		ci.readers--
	}
	if ci.readers == 0 && ci.writers == 0 {
		e.removeClient(c)
	}
	e.state = e.derive()
	t.observe(e, TransitionEvent{
		Event: "close", Handle: h, Client: c, Write: forWrite,
		From: from, To: e.state, Version: e.version, Prev: e.prev,
		LastWriter: e.lastWriter,
	})
}

// newEntry allocates an entry for h, reclaiming closed entries when the
// table is full: clean CLOSED entries are dropped silently (their only
// cost is a spurious cache invalidation if a client reopens with a cached
// copy); if none exist the caller gets TableFull — CLOSED-DIRTY entries
// are reclaimed asynchronously via ReclaimCandidates, not synchronously
// inside an open for an unrelated file.
func (t *Table) newEntry(h proto.Handle) (*entry, bool) {
	if len(t.entries) >= t.maxEntries {
		victims := t.oldest(StateClosed, 1)
		if len(victims) == 0 {
			return nil, true
		}
		victim := victims[0]
		t.forget(victim)
		t.stats.Reclaims++
		t.observe(nil, TransitionEvent{
			Event: "reclaim", Handle: victim.handle,
			From: StateClosed, To: StateClosed,
			Version: victim.version, Prev: victim.prev, Dropped: true,
		})
	}
	e := &entry{handle: h, version: t.fresh}
	t.entries[h] = e
	return e, false
}

// forget removes e, reclaimed or truncated. Clients may still hold blocks
// labelled with its version, so entries made from now on start above
// every version issued: none of those blocks validates against them.
func (t *Table) forget(e *entry) {
	delete(t.entries, e.handle)
	t.nextVer++
	t.fresh = t.nextVer
}

// oldest returns up to n entries in state s, least recently touched
// first. Stamps tie (recovered entries not opened since all carry 0) by
// handle.
func (t *Table) oldest(s FileState, n int) []*entry {
	var out []*entry
	for _, e := range t.entries {
		if e.state != s || e.inconsistent {
			continue // a warning for the next opener stays (§3.2)
		}
		i := len(out)
		for i > 0 && (e.stamp < out[i-1].stamp ||
			e.stamp == out[i-1].stamp && e.handle.Less(out[i-1].handle)) {
			i--
		}
		if i < n {
			out = slices.Insert(out, i, e)
			if len(out) > n {
				out = out[:n]
			}
		}
	}
	return out
}

// InvalidateReaders supports the §7 name-cache extension: when a client
// modifies a directory, every OTHER client caching it (holding a
// read-open "lease" on it) must drop its cached entries. The version is
// bumped so later reopens with stale caches validate correctly; the
// remaining opens stay registered, merely non-caching, and a subsequent
// reopen re-enables caching with fresh contents.
func (t *Table) InvalidateReaders(h proto.Handle, except ClientID) []Callback {
	e, ok := t.entries[h]
	if !ok {
		return nil
	}
	from := e.state
	t.bump(e)
	var cbs []Callback
	for i := range e.clients {
		ci := &e.clients[i]
		if ci.id == except || !ci.caching {
			continue
		}
		ci.caching = false
		cbs = append(cbs, Callback{Client: ci.id, Handle: h, Invalidate: true})
	}
	t.observe(e, TransitionEvent{
		Event: "invalidate", Handle: h, Client: except,
		From: from, To: e.state, Version: e.version, Prev: e.prev,
		LastWriter: e.lastWriter, Callbacks: len(cbs),
	})
	return cbs
}

// ReclaimCandidates returns write-back callbacks for up to n of the
// oldest CLOSED-DIRTY entries (§4.3.1: "when entries run low, those
// recording closed files may be reclaimed by sending callbacks to the
// corresponding clients"). After delivering a callback the server calls
// Reclaimed.
func (t *Table) ReclaimCandidates(n int) []Callback {
	var out []Callback
	for _, e := range t.oldest(StateClosedDirty, n) {
		out = append(out, Callback{Client: e.lastWriter, Handle: e.handle, WriteBack: true})
	}
	return out
}

// Reclaimed records that the write-back for a CLOSED-DIRTY entry
// completed; the entry becomes CLOSED (still holding the version) or is
// dropped if the table is at its limit.
func (t *Table) Reclaimed(h proto.Handle) {
	e, ok := t.entries[h]
	if !ok || e.state != StateClosedDirty {
		return
	}
	e.lastWriter = ""
	e.state = e.derive()
	dropped := false
	if len(t.entries) >= t.maxEntries {
		t.forget(e)
		t.stats.Reclaims++
		dropped = true
	}
	t.observe(nil, TransitionEvent{
		Event: "reclaim", Handle: h,
		From: StateClosedDirty, To: e.state, Version: e.version, Prev: e.prev,
		Dropped: dropped,
	})
}

// Drop removes the entry for h entirely (the file was removed). Pending
// dirty state vanishes with the file — exactly the delete-before-
// writeback situation, but observed at the server.
func (t *Table) Drop(h proto.Handle) {
	e, ok := t.entries[h]
	delete(t.entries, h)
	if ok {
		t.observe(nil, TransitionEvent{
			Event: "drop", Handle: h, From: e.state, To: StateClosed,
			Version: e.version, Prev: e.prev, Dropped: true,
		})
	}
}

// DropWithInvalidate handles truncation-in-place (a create over an
// existing file keeps the inode): every client that may hold cached or
// dirty blocks of the old contents — open clients and the last writer —
// must drop them, or a later delayed write-back would resurrect dead
// data. The truncating client itself (except) is exempt: its own create
// path cancels its cache. The returned invalidate-only callbacks must be
// delivered before the truncation is acknowledged; the entry itself is
// removed.
func (t *Table) DropWithInvalidate(h proto.Handle, except ClientID) []Callback {
	e, ok := t.entries[h]
	if !ok {
		return nil
	}
	targets := map[ClientID]bool{}
	for _, ci := range e.clients {
		targets[ci.id] = true
	}
	if e.lastWriter != "" {
		targets[e.lastWriter] = true
	}
	delete(targets, except)
	var cbs []Callback
	for c := range targets {
		cbs = append(cbs, Callback{Client: c, Handle: h, Invalidate: true})
	}
	// Deterministic order for reproducible simulations.
	slices.SortFunc(cbs, func(a, b Callback) int { return cmp.Compare(a.Client, b.Client) })
	t.forget(e) // a closed reader's copy is not called back
	t.observe(nil, TransitionEvent{
		Event: "drop", Handle: h, Client: except, From: e.state, To: StateClosed,
		Version: e.version, Prev: e.prev, Dropped: true, Callbacks: len(cbs),
	})
	return cbs
}

// ClientDead removes client c from every entry, recomputing states. If c
// was the last writer of a file (its dirty blocks are lost) or held the
// file open for write while caching, the entry is marked inconsistent so
// the next opener is warned (§3.2). The affected handles are returned, and
// their transitions observed, in handle order.
func (t *Table) ClientDead(c ClientID) []proto.Handle {
	var affected []proto.Handle
	for h, e := range t.entries {
		if e.lastWriter == c || e.client(c) != nil {
			affected = append(affected, h)
		}
	}
	slices.SortFunc(affected, proto.Handle.Compare)
	for _, h := range affected {
		e := t.entries[h]
		from := e.state
		if e.lastWriter == c {
			e.lastWriter = ""
			e.inconsistent = true
		}
		if ci := e.client(c); ci != nil {
			if ci.writers > 0 && ci.caching {
				// A caching writer died: dirty data may be lost.
				e.inconsistent = true
			}
			e.removeClient(c)
		}
		e.state = e.derive()
		t.observe(e, TransitionEvent{
			Event: "client-dead", Handle: h, Client: c,
			From: from, To: e.state, Version: e.version, Prev: e.prev,
			Inconsistent: e.inconsistent,
			LastWriter:   e.lastWriter,
		})
	}
	return affected
}

// Recover reconstructs an entry from a client's reopen during the
// post-reboot grace period (§2.4: "the clients together know who is
// caching the file, and the server can reconstruct its state from the
// clients"). Version numbers are restored from the clients; the global
// counter resumes above the maximum seen.
func (t *Table) Recover(h proto.Handle, c ClientID, readers, writers uint32, version uint32, hasDirty bool) {
	e, ok := t.entries[h]
	if !ok {
		e, _ = t.newEntry(h)
	}
	if e == nil {
		return
	}
	from := e.state
	if version > e.version {
		e.version = version
	}
	if version > t.nextVer {
		t.nextVer = version
	}
	if readers > 0 || writers > 0 {
		ci := e.addClient(c)
		ci.readers, ci.writers, ci.caching = int(readers), int(writers), true
	}
	if hasDirty && writers == 0 {
		// A reader may still hold the blocks of its last write-open
		// (ONE-RDR-DIRTY).
		e.lastWriter = c
	}
	if e.shared() {
		// Write sharing discovered during recovery disables caching
		// for everyone, which the clients learn from their reopen
		// replies.
		for i := range e.clients {
			e.clients[i].caching = false
		}
	}
	e.state = e.derive()
	t.observe(e, TransitionEvent{
		Event: "recover", Handle: h, Client: c, Write: writers > 0,
		From: from, To: e.state, Version: e.version, Prev: e.prev,
		HasDirty: hasDirty, Readers: readers, Writers: writers,
		LastWriter: e.lastWriter,
	})
}

// ClientSnapshot is one client's registration within an entry snapshot.
type ClientSnapshot struct {
	Client  ClientID
	Readers int
	Writers int
	Caching bool
}

// EntrySnapshot is a point-in-time copy of one state-table entry, for
// the administrative dump procedure and tests.
type EntrySnapshot struct {
	Handle       proto.Handle
	State        FileState
	Version      uint32
	LastWriter   ClientID
	Inconsistent bool
	Clients      []ClientSnapshot
}

// Snapshot copies the whole table, ordered by recency (most recently
// touched first).
func (t *Table) Snapshot() []EntrySnapshot {
	out := make([]EntrySnapshot, 0, len(t.entries))
	for _, e := range t.entries {
		es := EntrySnapshot{
			Handle:       e.handle,
			State:        e.state,
			Version:      e.version,
			LastWriter:   e.lastWriter,
			Inconsistent: e.inconsistent,
		}
		for _, ci := range e.clients {
			es.Clients = append(es.Clients, ClientSnapshot{
				Client: ci.id, Readers: ci.readers, Writers: ci.writers, Caching: ci.caching,
			})
		}
		out = append(out, es)
	}
	// Most recently touched first, then in handle order: entries a
	// recovery rebuilt share stamp 0.
	slices.SortFunc(out, func(x, y EntrySnapshot) int {
		return cmp.Or(cmp.Compare(t.entries[y.Handle].stamp, t.entries[x.Handle].stamp), x.Handle.Compare(y.Handle))
	})
	return out
}

// HasClient reports whether client c has any open registered for h.
func (t *Table) HasClient(h proto.Handle, c ClientID) bool {
	e, ok := t.entries[h]
	if !ok {
		return false
	}
	return e.client(c) != nil
}

// CachingFor reports whether client c is currently permitted to cache h.
func (t *Table) CachingFor(h proto.Handle, c ClientID) bool {
	e, ok := t.entries[h]
	if !ok {
		return false
	}
	ci := e.client(c)
	return ci != nil && ci.caching
}

// LastWriter reports the client recorded as possibly holding dirty blocks
// for h ("" if none).
func (t *Table) LastWriter(h proto.Handle) ClientID {
	if e, ok := t.entries[h]; ok {
		return e.lastWriter
	}
	return ""
}
