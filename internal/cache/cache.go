// Package cache implements the file-block buffer cache used on every host
// in the reproduction — the analogue of the Ultrix GFS buffer pool the
// paper's clients cache file data in (§4.2.1). Blocks are identified by
// (filesystem, inode, block number), kept in LRU order under a capacity
// limit, and carry dirty state with the time they were dirtied, which is
// what the delayed-write policies (30-second sync, age-based write-back,
// infinite delay) and the delete-before-writeback optimization operate on.
//
// The cache is a passive data structure: eviction returns any displaced
// dirty blocks to the caller, which decides how (and in which simulated
// process) to write them back.
package cache

import (
	"container/list"

	"spritelynfs/internal/sim"
)

// Key names a cached block.
type Key struct {
	FS    uint32 // filesystem / mount identifier
	Ino   uint64 // file identifier within the filesystem
	Block int64  // block number within the file
}

// Block is a cached file block. Data may be nil when the cache is used
// only for residency modeling (the server read cache and the local-disk
// configuration keep file contents in their stores; remote client caches
// keep the bytes here).
type Block struct {
	Key     Key
	Data    []byte
	Dirty   bool
	DirtyAt sim.Time // when the block was first dirtied since last clean
	// Gen counts the writes into the block (MarkDirty calls): a write-back
	// cleans only the generation it sent (MarkCleanIf).
	Gen uint64
	// Len is the number of valid bytes (blocks at end-of-file may be
	// partial; the write policy for partial blocks differs from full
	// ones in the NFS client).
	Len int
}

// Stats counts cache activity.
type Stats struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	DirtyEvict  int64 // evictions that forced a write-back
	Cancelled   int64 // dirty blocks dropped by delete-before-writeback
	Invalidated int64 // blocks dropped by invalidation (callbacks, opens)
}

// Cache is a fixed-capacity LRU block cache.
type Cache struct {
	capacity int // maximum resident blocks; <=0 means unbounded
	blocks   map[Key]*list.Element
	lru      *list.List // front = most recent
	perFile  map[fileKey]map[int64]*list.Element
	ndirty   int
	stats    Stats
}

type fileKey struct {
	fs  uint32
	ino uint64
}

// New returns a cache holding at most capacity blocks (unbounded if
// capacity <= 0).
func New(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		blocks:   make(map[Key]*list.Element),
		lru:      list.New(),
		perFile:  make(map[fileKey]map[int64]*list.Element),
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len reports the number of resident blocks.
func (c *Cache) Len() int { return c.lru.Len() }

// DirtyCount reports the number of dirty resident blocks.
func (c *Cache) DirtyCount() int { return c.ndirty }

// Lookup returns the block for key if resident, updating recency and the
// hit/miss counters.
func (c *Cache) Lookup(key Key) (*Block, bool) {
	el, ok := c.blocks[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(el)
	return el.Value.(*Block), true
}

// Contains reports residency without touching recency or counters.
func (c *Cache) Contains(key Key) bool {
	_, ok := c.blocks[key]
	return ok
}

// Insert adds or replaces the block for key and returns any blocks evicted
// to make room; evicted dirty blocks must be written back by the caller.
// The returned block pointer is the resident block, whose fields (Dirty,
// Data) the caller may update in place.
func (c *Cache) Insert(key Key, data []byte, length int) (*Block, []*Block) {
	if el, ok := c.blocks[key]; ok {
		b := el.Value.(*Block)
		b.Data = data
		if length > b.Len {
			b.Len = length
		}
		c.lru.MoveToFront(el)
		return b, nil
	}
	b := &Block{Key: key, Data: data, Len: length}
	el := c.lru.PushFront(b)
	c.blocks[key] = el
	fk := fileKey{key.FS, key.Ino}
	m := c.perFile[fk]
	if m == nil {
		m = make(map[int64]*list.Element)
		c.perFile[fk] = m
	}
	m[key.Block] = el

	var evicted []*Block
	for c.capacity > 0 && c.lru.Len() > c.capacity {
		back := c.lru.Back()
		if back == el {
			break // never evict the block just inserted
		}
		vb := back.Value.(*Block)
		c.remove(back)
		c.stats.Evictions++
		if vb.Dirty {
			c.stats.DirtyEvict++
		}
		evicted = append(evicted, vb)
	}
	return b, evicted
}

// MarkDirty marks the resident block dirty, recording now as its dirty
// time if it was clean. It reports whether the block was resident.
func (c *Cache) MarkDirty(key Key, now sim.Time) bool {
	el, ok := c.blocks[key]
	if !ok {
		return false
	}
	b := el.Value.(*Block)
	b.Gen++
	if !b.Dirty {
		b.Dirty = true
		b.DirtyAt = now
		c.ndirty++
	}
	return true
}

// MarkClean clears the dirty bit after a successful write-back.
func (c *Cache) MarkClean(key Key) {
	if el, ok := c.blocks[key]; ok {
		b := el.Value.(*Block)
		if b.Dirty {
			b.Dirty = false
			c.ndirty--
		}
	}
}

// MarkCleanIf is MarkClean for a write-back that blocked: the block
// stays dirty if it was written again after generation gen was sent, for
// that newer data is still owed to the server.
func (c *Cache) MarkCleanIf(key Key, gen uint64) {
	if el, ok := c.blocks[key]; ok && el.Value.(*Block).Gen == gen {
		c.MarkClean(key)
	}
}

// remove unlinks el from every index. It does not touch stats.
func (c *Cache) remove(el *list.Element) {
	b := el.Value.(*Block)
	c.lru.Remove(el)
	delete(c.blocks, b.Key)
	fk := fileKey{b.Key.FS, b.Key.Ino}
	if m, ok := c.perFile[fk]; ok {
		delete(m, b.Key.Block)
		if len(m) == 0 {
			delete(c.perFile, fk)
		}
	}
	if b.Dirty {
		c.ndirty--
	}
}

// FileBlocks returns the resident blocks of one file in ascending block
// order.
func (c *Cache) FileBlocks(fs uint32, ino uint64) []*Block {
	m := c.perFile[fileKey{fs, ino}]
	if len(m) == 0 {
		return nil
	}
	out := make([]*Block, 0, len(m))
	for _, el := range m {
		out = append(out, el.Value.(*Block))
	}
	sortBlocks(out)
	return out
}

// DirtyBlocks returns the dirty resident blocks of one file in ascending
// block order.
func (c *Cache) DirtyBlocks(fs uint32, ino uint64) []*Block {
	var out []*Block
	for _, b := range c.FileBlocks(fs, ino) {
		if b.Dirty {
			out = append(out, b)
		}
	}
	return out
}

// DirtyOlderThan returns every dirty block whose DirtyAt is at or before
// cutoff, across all files, in ascending (fs, ino, block) order.
func (c *Cache) DirtyOlderThan(cutoff sim.Time) []*Block {
	var out []*Block
	for el := c.lru.Front(); el != nil; el = el.Next() {
		b := el.Value.(*Block)
		if b.Dirty && b.DirtyAt <= cutoff {
			out = append(out, b)
		}
	}
	sortBlocksFull(out)
	return out
}

// AllDirty returns every dirty block in ascending order.
func (c *Cache) AllDirty() []*Block {
	var out []*Block
	for el := c.lru.Front(); el != nil; el = el.Next() {
		b := el.Value.(*Block)
		if b.Dirty {
			out = append(out, b)
		}
	}
	sortBlocksFull(out)
	return out
}

// InvalidateFile drops every resident block of the file, dirty or not,
// and returns how many blocks were dropped. Dirty blocks are counted as
// cancelled (the delete-before-writeback path) — callers that must not
// lose data should write dirty blocks back first.
func (c *Cache) InvalidateFile(fs uint32, ino uint64) int {
	m := c.perFile[fileKey{fs, ino}]
	n := 0
	for _, el := range m {
		b := el.Value.(*Block)
		if b.Dirty {
			c.stats.Cancelled++
		}
		c.remove(el)
		n++
	}
	c.stats.Invalidated += int64(n)
	return n
}

// CancelDirty drops the dirty blocks of the file without writing them
// back (delete-before-writeback, §4.2.3) and returns how many were
// cancelled. Clean blocks stay resident.
func (c *Cache) CancelDirty(fs uint32, ino uint64) int {
	n := 0
	for _, b := range c.DirtyBlocks(fs, ino) {
		c.stats.Cancelled++
		c.remove(c.blocks[b.Key])
		n++
	}
	return n
}

// InvalidateAll empties the cache (client crash simulation), returning the
// number of dropped blocks.
func (c *Cache) InvalidateAll() int {
	n := c.lru.Len()
	for _, el := range c.blocks {
		if el.Value.(*Block).Dirty {
			c.stats.Cancelled++
		}
	}
	c.blocks = make(map[Key]*list.Element)
	c.perFile = make(map[fileKey]map[int64]*list.Element)
	c.lru.Init()
	c.ndirty = 0
	c.stats.Invalidated += int64(n)
	return n
}

func sortBlocks(bs []*Block) {
	// Insertion sort: per-file block lists are short-lived and small.
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].Key.Block < bs[j-1].Key.Block; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}

func sortBlocksFull(bs []*Block) {
	less := func(a, b *Block) bool {
		if a.Key.FS != b.Key.FS {
			return a.Key.FS < b.Key.FS
		}
		if a.Key.Ino != b.Key.Ino {
			return a.Key.Ino < b.Key.Ino
		}
		return a.Key.Block < b.Key.Block
	}
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && less(bs[j], bs[j-1]); j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}
