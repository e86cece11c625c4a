package rpc

import "spritelynfs/internal/simnet"

// dupState describes what the cache knows about a (client, xid) pair.
type dupState int

const (
	dupNew        dupState = iota // never seen
	dupInProgress                 // being executed by a worker
	dupDone                       // completed; reply bytes recorded
)

type dupKey struct {
	from simnet.Addr
	xid  uint32
}

type dupEntry struct {
	key   dupKey
	state dupState
	// the encoded reply message, head‖tail (xdr.Encoder.Image), and the
	// head's owner, which the entry holds (nil for a head nobody recycles)
	head, tail []byte
	owner      *replyHead
}

// dupCache remembers recently executed calls so that a retransmission of a
// non-idempotent operation (CREATE, REMOVE, RENAME, SNFS OPEN/CLOSE) is
// answered from the recorded reply instead of being re-executed. Entries
// evict FIFO once the cache is full; the client retry window is far
// shorter than the cache's lifetime under any realistic load.
//
// Entries live by value in a ring: it grows by appending until it holds
// max entries, and from then on each new call recycles the oldest slot,
// so a served call allocates nothing here. Ring and index are made by the
// first call: an endpoint that serves none — every client of a protocol
// without callbacks — carries an empty struct.
type dupCache struct {
	max     int
	slot    map[dupKey]int // where in ring each remembered call is
	ring    []dupEntry
	oldest  int    // the slot to recycle next, once the ring is full
	evicted *int64 // eviction counter, usually Stats.DupEvictions
}

func newDupCache(max int, evicted *int64) dupCache {
	return dupCache{max: max, evicted: evicted}
}

// lookup returns the entry of (from, xid), whose state is dupNew if there
// is none.
func (c *dupCache) lookup(from simnet.Addr, xid uint32) dupEntry {
	i, ok := c.slot[dupKey{from, xid}]
	if !ok {
		return dupEntry{state: dupNew}
	}
	return c.ring[i]
}

func (c *dupCache) start(from simnet.Addr, xid uint32) {
	k := dupKey{from, xid}
	if _, ok := c.slot[k]; ok {
		return
	}
	if c.slot == nil {
		c.slot = make(map[dupKey]int)
	}
	if len(c.ring) < c.max {
		c.slot[k] = len(c.ring)
		c.ring = append(c.ring, dupEntry{key: k, state: dupInProgress})
		return
	}
	e := &c.ring[c.oldest]
	delete(c.slot, e.key)
	if c.evicted != nil {
		*c.evicted++
	}
	// Overwritten whole: the recycled slot lets go of the evicted
	// call's reply image, head and tail, now, not when this call finishes.
	e.owner.Release()
	*e = dupEntry{key: k, state: dupInProgress}
	c.slot[k] = c.oldest
	c.oldest = (c.oldest + 1) % len(c.ring)
}

// finish records the completed call's reply wire image: the transmitted
// head and tail themselves, which are frozen once sent (receivers decode
// read-only views of them and copy what they mean to keep), so a replay
// resends them as they are, and holds the head's owner for the slot. A
// no-op if the entry was evicted while the call executed.
func (c *dupCache) finish(from simnet.Addr, xid uint32, head, tail []byte, owner *replyHead) {
	if i, ok := c.slot[dupKey{from, xid}]; ok {
		e := &c.ring[i]
		if owner != nil {
			owner.Hold()
		}
		e.state, e.head, e.tail, e.owner = dupDone, head, tail, owner
	}
}

// clear empties the cache, letting go of every recorded head.
func (c *dupCache) clear() {
	for _, e := range c.ring {
		e.owner.Release()
	}
	*c = newDupCache(c.max, c.evicted)
}
