package rpc

import (
	"fmt"
	"math"
	"testing"
)

// TestDupCacheEvictionUnderXidWraparound fills the cache with xids at the
// top of the uint32 range and keeps going past the wrap to 0: eviction
// must stay strictly FIFO (by insertion order, not xid order), the counter
// must account for every eviction, and post-wrap entries must be served.
func TestDupCacheEvictionUnderXidWraparound(t *testing.T) {
	const cap = 4
	var evicted int64
	c := newDupCache(cap, &evicted)

	// Eight xids straddling the wrap: ...fffe, ...ffff, 0, 1, ...
	xids := []uint32{
		math.MaxUint32 - 3, math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32,
		0, 1, 2, 3,
	}
	for i, xid := range xids {
		c.start("a", xid)
		c.finish("a", xid, []byte(fmt.Sprintf("r%d", i)), nil, nil)
	}

	// The first four (pre-wrap) insertions were evicted, in order.
	if evicted != int64(len(xids)-cap) {
		t.Errorf("eviction counter = %d, want %d", evicted, len(xids)-cap)
	}
	for _, xid := range xids[:len(xids)-cap] {
		if s := c.lookup("a", xid).state; s != dupNew {
			t.Errorf("xid %#x survived; want evicted", xid)
		}
	}
	// The last four — including the wrapped xid 0 — are still served.
	for i, xid := range xids[len(xids)-cap:] {
		want := fmt.Sprintf("r%d", i+len(xids)-cap)
		if ent := c.lookup("a", xid); ent.state != dupDone || string(ent.head) != want {
			t.Errorf("xid %#x: state=%v reply=%q, want done %q", xid, ent.state, ent.head, want)
		}
	}
	if len(c.slot) != cap || len(c.ring) != cap {
		t.Errorf("cache size slot=%d ring=%d, want %d", len(c.slot), len(c.ring), cap)
	}

	// A retransmission of a live post-wrap xid must not re-enter the
	// FIFO (it would double-evict on the next start).
	c.start("a", 0)
	if evicted != int64(len(xids)-cap) {
		t.Errorf("retransmission caused eviction: counter = %d", evicted)
	}
}
