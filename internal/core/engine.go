package core

import "spritelynfs/internal/proto"

// FileRecord is the client side of the consistency protocol: the fields
// SNFS adds to the client's gnode (§4.2) — the caching-enabled flag, the
// version number of the cached copy, and local open bookkeeping (needed
// for the delayed-close extension and for crash recovery reopens).
type FileRecord struct {
	// Caching reports whether the server has enabled caching for this
	// file at this client.
	Caching bool
	// Version labels the client's cached blocks.
	Version uint32
	// Readers and Writers count local opens by mode.
	Readers int
	Writers int
	// DelayedClose marks a file that is locally closed but whose close
	// has not been reported to the server (§6.2 extension).
	DelayedClose     bool
	DelayedWriteMode bool // the write-mode flag owed to the server
	// Opened and Invalidated count the open replies and invalidating
	// callbacks taken, modulo 2^16 (they fill the bools' padding): a
	// reply one of them overtook may be older.
	Opened, Invalidated uint16
	// ClosedAt is when the file entered delayed-close (for spontaneous
	// close of long-idle files).
	ClosedAt int64
}

// Action is what a client rule (Open, Reopen, Forget, ApplyCallback) asks
// of a file's cached blocks, in field order. Invalidate alone drops a
// stale copy, never written back; the zero Action keeps the blocks.
type Action struct {
	Flush      bool // write dirty blocks back, synchronously
	Invalidate bool // discard the blocks
}

// Open reconciles the record with an open reply. Under the §3.1 rule the
// cached blocks stay valid if their version is the latest or, opening for
// write, the previous one (this open bumped it). An uncachable file
// should be clean already (write sharing called this client back), but
// dirty data is never discarded silently: it is written back first.
func (r *FileRecord) Open(reply proto.OpenReply, forWrite bool) Action {
	stale := r.Version != reply.Version &&
		!(forWrite && r.Version == reply.PrevVersion)
	r.Caching = reply.CacheEnabled
	r.Version = reply.Version
	r.Opened++
	if forWrite {
		r.Writers++
	} else {
		r.Readers++
	}
	r.DelayedClose = false
	return Action{Flush: stale || !reply.CacheEnabled, Invalidate: stale || !reply.CacheEnabled}
}

// Reopen reconciles the record with a recovery reopen's reply (§2.4):
// write sharing the rebuilt server finds on a file this client holds open
// (or owes a delayed close on) ends its caching, as a callback would.
func (r *FileRecord) Reopen(reply proto.OpenReply) Action {
	if reply.CacheEnabled || !(r.InUse() || r.DelayedClose) {
		return Action{}
	}
	r.Caching = false
	return Action{Flush: true, Invalidate: true}
}

// Forget is the recovery rule for a file this client does not re-register
// (no open, no dirty block): the rebuilt server restarts its version
// numbers, so the cached blocks' label can no longer vouch for them.
func (r *FileRecord) Forget() Action { return Action{Invalidate: true} }

// Close records a local close and reports whether this was the final
// local open (meaning a close RPC, or a delayed-close mark, is owed to
// the server).
func (r *FileRecord) Close(forWrite bool) (final bool) {
	if forWrite {
		if r.Writers > 0 {
			r.Writers--
		}
	} else if r.Readers > 0 {
		r.Readers--
	}
	return r.Readers == 0 && r.Writers == 0
}

// InUse reports whether any local process holds the file open.
func (r *FileRecord) InUse() bool { return r.Readers > 0 || r.Writers > 0 }

// ApplyCallback reconciles the record with a callback (§4.2.2): write
// dirty blocks back, then, if told to invalidate, discard the blocks and
// stop caching.
func (r *FileRecord) ApplyCallback(args proto.CallbackArgs) Action {
	if args.Invalidate {
		r.Caching = false
		r.Invalidated++
	}
	return Action{Flush: args.WriteBack, Invalidate: args.Invalidate}
}
