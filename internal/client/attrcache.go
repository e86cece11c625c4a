package client

import (
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/span"
)

// attrPolicy selects how the attribute cache decides freshness.
type attrPolicy int

const (
	// attrPolicyProbe is the NFS rule (§2.1): attributes are trusted for
	// an adaptive window after the last server fetch — one tenth of the
	// file's age, clamped to [ProbeMin, ProbeMax] — then re-probed.
	attrPolicyProbe attrPolicy = iota
	// attrPolicyProtocol is the Spritely rule, which RFS follows too: the
	// consistency protocol keeps cached attributes valid exactly while
	// caching is enabled for the file; no timer is involved.
	attrPolicyProtocol
)

// AttrCacheStats counts attribute-cache outcomes (snfscli stats and the
// client metrics gauges report these).
type AttrCacheStats struct {
	// Hits are attribute reads served from the cache without an RPC.
	Hits int64
	// Misses are attribute reads that went to the server.
	Misses int64
	// Expiries are misses where cached attributes existed but could no
	// longer be trusted (probe window elapsed, or the protocol lease —
	// caching permission — was gone).
	Expiries int64
	// Ingests counts piggybacked attributes accepted into the cache.
	Ingests int64
	// SharedDrops counts attributes discarded because the file was
	// WRITE-SHARED: the paper's §4.3 rule — a concurrent writer moves
	// the attributes at any time, so they must never be cached.
	SharedDrops int64
}

// attrCache is the unified attribute layer: every getattr the client
// issues, every freshness decision, and every piggybacked attribute
// record flows through here. It owns the NFS adaptive probe interval,
// the SNFS protocol-driven validity rule, and the never-cache-when-
// write-shared rule both protocols share.
type attrCache struct {
	b        *Base
	policy   attrPolicy
	probeMin sim.Duration
	probeMax sim.Duration
	stats    AttrCacheStats
}

func newAttrCache(b *Base) *attrCache {
	return &attrCache{b: b, probeMin: 3 * sim.Second, probeMax: 150 * sim.Second}
}

// writeShared reports whether the file is open and uncachable — the
// server disabled caching because of concurrent write sharing. A node
// that is not in use has a zero record and is never write-shared; the
// NFS client never sets the record at all, so the rule is inert there.
func (ac *attrCache) writeShared(n *node) bool {
	return n.rec.InUse() && !n.rec.Caching
}

// probeTimeout returns the adaptive attribute-cache residence time:
// files modified recently are re-checked sooner.
func (ac *attrCache) probeTimeout(n *node) sim.Duration {
	age := ac.b.k.Now().Sub(sim.Time(n.attr.Mtime))
	t := age / 10
	if t < ac.probeMin {
		t = ac.probeMin
	}
	if t > ac.probeMax {
		t = ac.probeMax
	}
	return t
}

// fresh reports whether n's cached attributes may be served without a
// server round trip.
func (ac *attrCache) fresh(n *node, now sim.Time) bool {
	if !n.attrInit || ac.writeShared(n) {
		return false
	}
	if ac.policy == attrPolicyProtocol {
		return n.rec.Caching
	}
	return now.Sub(n.attrTime) <= ac.probeTimeout(n)
}

// get returns attributes for n, serving from the cache when fresh and
// fetching from the server (and recording the result) otherwise. force
// skips the freshness check — the NFS open-time consistency check.
// fromCache reports whether the attributes came from the cache.
func (ac *attrCache) get(p *sim.Proc, n *node, force bool) (proto.Fattr, bool, error) {
	now := p.Now()
	if !force && ac.fresh(n, now) {
		ac.stats.Hits++
		return n.attr, true, nil
	}
	if !force && n.attrInit {
		ac.stats.Expiries++
	}
	ac.stats.Misses++
	sp := ac.b.span(p, span.Attr, "getattr")
	a, err := ac.b.getattrRPC(p, n.h)
	sp.End()
	if err != nil {
		return proto.Fattr{}, false, err
	}
	ac.store(n, a, now, false)
	return a, false, nil
}

// ingest is the single entry point for attributes piggybacked on RPC
// replies the client did not write through (lookup, read, wcc,
// readdir-with-attrs): they are third-party observations, so under the
// probe policy a moved mtime invalidates the cached data, exactly as
// the open-time getattr check would.
func (ac *attrCache) ingest(n *node, a proto.Fattr, now sim.Time) {
	if ac.store(n, a, now, false) {
		ac.stats.Ingests++
	}
}

// ingestOwn records attributes piggybacked on the client's own
// write/create/truncate replies: the mtime motion is this client's
// doing, so it must not invalidate the data just written.
func (ac *attrCache) ingestOwn(n *node, a proto.Fattr, now sim.Time) {
	if ac.store(n, a, now, true) {
		ac.stats.Ingests++
	}
}

// store applies the shared caching rules and installs the attributes.
// It returns false when the write-shared rule discarded them.
func (ac *attrCache) store(n *node, a proto.Fattr, now sim.Time, ownWrite bool) bool {
	if ac.writeShared(n) {
		ac.stats.SharedDrops++
		return false
	}
	if !ownWrite {
		ac.observedChange(n, a)
	}
	ac.b.setAttr(n, a, now)
	return true
}

// observedChange applies the NFS data-cache rule to a server-fresh
// observation: a moved mtime means another client changed the file, so
// cached blocks are stale — unless the motion is explained by our own
// in-flight write-throughs. Under the protocol policy this is a no-op:
// invalidation is callback- and version-driven, and a Spritely client's
// delayed writes legitimately run ahead of the server's mtime.
func (ac *attrCache) observedChange(n *node, a proto.Fattr) {
	if ac.policy != attrPolicyProbe || !n.attrInit || a.Mtime == n.attr.Mtime {
		return
	}
	hasPending := len(ac.b.cache.DirtyBlocks(ac.b.cfg.Root.FSID, n.h.Ino)) > 0 ||
		n.pending.Pending() > 0
	if !hasPending {
		ac.b.cache.InvalidateFile(ac.b.cfg.Root.FSID, n.h.Ino)
	}
}

// Stats returns a copy of the attribute-cache counters.
func (ac *attrCache) Stats() AttrCacheStats { return ac.stats }
