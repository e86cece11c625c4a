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
	wire  []byte // full encoded reply message
}

// dupCache remembers recently executed calls so that a retransmission of a
// non-idempotent operation (CREATE, REMOVE, RENAME, SNFS OPEN/CLOSE) is
// answered from the recorded reply instead of being re-executed. Entries
// evict FIFO once the cache is full; the client retry window is far
// shorter than the cache's lifetime under any realistic load.
type dupCache struct {
	max     int
	entries map[dupKey]*dupEntry
	order   []dupKey
	evicted *int64 // eviction counter, usually Stats.DupEvictions
}

func newDupCache(max int, evicted *int64) *dupCache {
	return &dupCache{max: max, entries: make(map[dupKey]*dupEntry), evicted: evicted}
}

func (c *dupCache) lookup(from simnet.Addr, xid uint32) (dupState, []byte) {
	e, ok := c.entries[dupKey{from, xid}]
	if !ok {
		return dupNew, nil
	}
	return e.state, e.wire
}

func (c *dupCache) start(from simnet.Addr, xid uint32) {
	k := dupKey{from, xid}
	if _, ok := c.entries[k]; ok {
		return
	}
	c.evictIfFull()
	c.entries[k] = &dupEntry{key: k, state: dupInProgress}
	c.order = append(c.order, k)
}

// finish records the completed call's reply wire image: the transmitted
// buffer itself, which is frozen once sent (receivers decode read-only
// views of it and copy what they mean to change), so a replay resends it
// as is. A no-op if the entry was evicted while the call executed.
func (c *dupCache) finish(from simnet.Addr, xid uint32, wire []byte) {
	if e, ok := c.entries[dupKey{from, xid}]; ok {
		e.state = dupDone
		e.wire = wire
	}
}

func (c *dupCache) evictIfFull() {
	for len(c.entries) >= c.max && len(c.order) > 0 {
		k := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, k)
		if c.evicted != nil {
			*c.evicted++
		}
	}
}
