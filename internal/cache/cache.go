// Package cache implements the file-block buffer cache used on every host
// in the reproduction — the analogue of the Ultrix GFS buffer pool the
// paper's clients cache file data in (§4.2.1). Blocks are identified by
// (filesystem, inode, block number), kept in LRU order under a capacity
// limit, and carry dirty state with the time they were dirtied, which is
// what the delayed-write policies (30-second sync, age-based write-back,
// infinite delay) and the delete-before-writeback optimization operate on.
//
// As in the Unix buffer pool, every block carries its own links: one pair
// places it in the cache's LRU list, the other in its file's chain. So a
// resident block costs one object, and moving it, dropping it or walking a
// file's blocks allocates nothing. A block that leaves the cache (evicted,
// invalidated, cancelled) is the next block: an eviction's slot takes the
// new key at once, and a dropped block waits on the cache's free list for
// the next Insert.
//
// A *Block is therefore the cache's, lent: it is valid only until its
// holder parks (a simulated process blocks) or calls the cache again.
// Whatever uses a block later holds a value or a key. Insert hands back
// the block it evicted by value (Victim), and the dirty-block lists are
// keys.
//
// The same holds for a block's Data, by the Data rule. A buffer the cache
// owns — one Buffer handed out and nobody else holds — leaves with its
// block and is the next buffer Buffer hands out, so bytes read from a
// block are lent too and are copied before the holder parks or calls the
// cache. A frozen buffer (Frozen: a reply image, a WRITE in flight, the
// server's page, an unstable-write record) is shared and is never reused,
// nor is a dirty victim's, which belongs to whoever writes it back.
// Under the frozencheck build tag a departed block is poisoned instead of
// reused (a sentinel key, nil Data, Len -1) and an owned buffer is
// scribbled (0xDB) and never reused, so a stale holder panics, misses or
// reads garbage.
//
// The cache is a passive data structure: the caller decides how (and in
// which simulated process) a dirty victim is written back.
package cache

import (
	"cmp"
	"math"
	"slices"

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
	Key Key
	// Data holds the block's bytes from its start, and may be shorter
	// than a block: bytes past len(Data) read as zero. It is never
	// shorter than Len.
	Data    []byte
	Dirty   bool
	DirtyAt sim.Time // when the block was first dirtied since last clean
	// Gen counts the writes into the block (MarkDirty calls): a write-back
	// cleans only the generation it sent (MarkCleanIf).
	Gen uint64
	// Len is the number of valid bytes, at most len(Data) (blocks at
	// end-of-file may be partial; the write policy for partial blocks
	// differs from full ones in the NFS client).
	Len int
	// Frozen means Data aliases bytes someone else holds (a delivered
	// reply image, or a WRITE's data: in flight, kept as the server's
	// page or for a COMMIT): copy before writing.
	Frozen bool

	// prev and next link the block into the cache's LRU list, next toward
	// the least recently used; filePrev and fileNext into its file's
	// chain. Once the block has left the cache, next links the free list
	// and the others are nil.
	prev, next         *Block
	filePrev, fileNext *Block
}

// Victim is a block Insert evicted, by value. A dirty victim's Data is
// its caller's, to write back; nothing else holds it. A clean victim's
// Data is nil: its bytes stay with the cache.
type Victim struct {
	Key   Key
	Data  []byte
	Len   int
	Dirty bool
}

// Stats counts cache activity.
type Stats struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	DirtyEvict  int64 // evictions that forced a write-back
	Cancelled   int64 // dirty blocks dropped by delete-before-writeback
	Invalidated int64 // blocks dropped by invalidation (callbacks, opens)
	// Made counts the blocks allocated for new keys, Reused the new keys
	// given a block that had left the cache.
	Made, Reused int64
	// BuffersMade counts the buffers Buffer allocated, BuffersReused
	// those it took from a block that had left the cache.
	BuffersMade, BuffersReused int64
}

// Cache is a fixed-capacity LRU block cache.
type Cache struct {
	// capacity is the most resident blocks (<=0: unbounded), ndirty how
	// many of them are dirty; 32 bits each keep Cache in its size class.
	capacity, ndirty int32
	blocks           map[Key]*Block
	// mru and lru are the ends of the LRU list: the most recently used
	// block and the least (nil when the cache is empty).
	mru, lru *Block
	// perFile maps a file to the head of its chain of resident blocks.
	perFile map[fileKey]*Block
	// free heads the blocks that left the cache, linked by next, for
	// Insert; spares are the buffers the cache owned (Data) that they
	// held, the latest last, for Buffer.
	free   *Block
	spares [][]byte
	stats  Stats
	// onDirty, when set, runs each time the dirty count rises from 0.
	onDirty func()
}

type fileKey struct {
	fs  uint32
	ino uint64
}

// New returns a cache holding at most capacity blocks (unbounded if
// capacity <= 0).
func New(capacity int) *Cache {
	c := &Cache{
		capacity: int32(min(capacity, math.MaxInt32)),
		blocks:   make(map[Key]*Block),
		perFile:  make(map[fileKey]*Block),
	}
	return c
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len reports the number of resident blocks.
func (c *Cache) Len() int { return len(c.blocks) }

// DirtyCount reports the number of dirty resident blocks.
func (c *Cache) DirtyCount() int { return int(c.ndirty) }

// OnFirstDirty sets fn to run whenever a block goes dirty in a cache that
// held no dirty block, inside the MarkDirty that made it so. fn must not
// block.
func (c *Cache) OnFirstDirty(fn func()) { c.onDirty = fn }

// Lookup returns the block for key if resident, updating recency and the
// hit/miss counters.
func (c *Cache) Lookup(key Key) (*Block, bool) {
	b, ok := c.blocks[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.moveToFront(b)
	return b, true
}

// Contains reports residency without touching recency or counters.
func (c *Cache) Contains(key Key) bool {
	_, ok := c.blocks[key]
	return ok
}

// Peek returns the block for key if resident, without touching recency
// or counters.
func (c *Cache) Peek(key Key) (*Block, bool) {
	b, ok := c.blocks[key]
	return b, ok
}

// Insert adds or replaces the block for key and returns the resident
// block, whose fields (Dirty, Data) the caller may update in place until
// it parks or calls the cache again. data becomes the cache's, to reuse
// once the block leaves, unless the caller marks the block Frozen first.
// A new key in a full cache evicts the least recently used block and
// takes its place: the victim comes back by value, and a dirty one must
// be written back by the caller.
func (c *Cache) Insert(key Key, data []byte, length int) (*Block, Victim) {
	if b, ok := c.blocks[key]; ok {
		b.Data, b.Frozen = data, false
		if length > b.Len {
			b.Len = length
		}
		c.moveToFront(b)
		return b, Victim{}
	}
	var v Victim
	if c.capacity > 0 && len(c.blocks) >= int(c.capacity) {
		back := c.lru
		v = Victim{Key: back.Key, Len: back.Len, Dirty: back.Dirty}
		c.stats.Evictions++
		if v.Dirty {
			// The bytes go with the victim, to be written back.
			v.Data, back.Data = back.Data, nil
			c.stats.DirtyEvict++
		}
		c.remove(back)
	}
	b := c.free
	if b != nil {
		c.free = b.next
		c.stats.Reused++
	} else {
		b = new(Block)
		c.stats.Made++
	}
	*b = Block{Key: key, Data: data, Len: length}
	c.blocks[key] = b
	c.pushFront(b)
	fk := fileKey{key.FS, key.Ino}
	if head := c.perFile[fk]; head != nil {
		head.filePrev, b.fileNext = b, head
	}
	c.perFile[fk] = b
	return b, v
}

// Buffer returns n zero bytes for a block's Data, which the caller
// writes into: a new block's (Insert), or a resident block's copy or
// growth. They are the latest spare with room for n, if one has; a spare
// too short stays for a shorter request.
func (c *Cache) Buffer(n int) []byte {
	for i := len(c.spares) - 1; i >= 0; i-- {
		if cap(c.spares[i]) < n {
			continue
		}
		data := c.spares[i][:n]
		c.spares = slices.Delete(c.spares, i, i+1)
		clear(data)
		c.stats.BuffersReused++
		return data
	}
	c.stats.BuffersMade++
	return make([]byte, n)
}

// MarkDirty marks the resident block dirty, recording now as its dirty
// time if it was clean. It reports whether the block was resident.
func (c *Cache) MarkDirty(key Key, now sim.Time) bool {
	b, ok := c.blocks[key]
	if !ok {
		return false
	}
	b.Gen++
	if !b.Dirty {
		b.Dirty = true
		b.DirtyAt = now
		if c.ndirty++; c.ndirty == 1 && c.onDirty != nil {
			c.onDirty()
		}
	}
	return true
}

// MarkClean clears the dirty bit after a successful write-back.
func (c *Cache) MarkClean(key Key) {
	if b, ok := c.blocks[key]; ok && b.Dirty {
		b.Dirty = false
		c.ndirty--
	}
}

// MarkCleanIf is MarkClean for a write-back that blocked: the block
// stays dirty if it was written again after generation gen was sent, for
// that newer data is still owed to the server.
func (c *Cache) MarkCleanIf(key Key, gen uint64) {
	if b, ok := c.blocks[key]; ok && b.Gen == gen {
		c.MarkClean(key)
	}
}

func (c *Cache) pushFront(b *Block) {
	b.prev, b.next = nil, c.mru
	if c.mru != nil {
		c.mru.prev = b
	} else {
		c.lru = b
	}
	c.mru = b
}

func (c *Cache) moveToFront(b *Block) {
	if c.mru != b {
		c.unlink(b)
		c.pushFront(b)
	}
}

// unlink takes b out of the LRU list.
func (c *Cache) unlink(b *Block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		c.mru = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		c.lru = b.prev
	}
}

// remove unlinks b from every index and releases it. It does not touch
// stats.
func (c *Cache) remove(b *Block) {
	c.unlink(b)
	delete(c.blocks, b.Key)
	if b.fileNext != nil {
		b.fileNext.filePrev = b.filePrev
	}
	switch fk := (fileKey{b.Key.FS, b.Key.Ino}); {
	case b.filePrev != nil:
		b.filePrev.fileNext = b.fileNext
	case b.fileNext != nil:
		c.perFile[fk] = b.fileNext // b was the head
	default:
		delete(c.perFile, fk) // b was the file's only block
	}
	if b.Dirty {
		c.ndirty--
	}
	c.release(b)
}

// release puts a block that has left every index on the free list, and
// its buffer on the spares if the cache owned it (neither frozen nor a
// dirty victim's, which Insert took off). Under the release checker it
// poisons the block and scribbles the buffer for good.
func (c *Cache) release(b *Block) {
	spare := b.Data[:cap(b.Data)]
	if b.Frozen {
		spare = nil
	}
	if FrozenCheck {
		for i := range spare {
			spare[i] = 0xDB
		}
		*b = Block{Key: departed, Len: -1}
		return
	}
	if len(spare) > 0 {
		c.spares = append(c.spares, spare)
	}
	*b = Block{next: c.free}
	c.free = b
}

// DirtyBlocks returns the keys of one file's dirty resident blocks in
// ascending block order.
func (c *Cache) DirtyBlocks(fs uint32, ino uint64) []Key {
	var out []Key
	for b := c.perFile[fileKey{fs, ino}]; b != nil; b = b.fileNext {
		if b.Dirty {
			out = append(out, b.Key)
		}
	}
	slices.SortFunc(out, compareKeys)
	return out
}

// HasDirty reports whether any resident block of the file is dirty,
// without building the list DirtyBlocks returns.
func (c *Cache) HasDirty(fs uint32, ino uint64) bool {
	if c.ndirty == 0 {
		return false
	}
	for b := c.perFile[fileKey{fs, ino}]; b != nil; b = b.fileNext {
		if b.Dirty {
			return true
		}
	}
	return false
}

// DirtyOlderThan returns the keys of every dirty block whose DirtyAt is
// at or before cutoff, across all files, in ascending (fs, ino, block)
// order. A cache with no dirty block returns nil without walking its
// blocks.
func (c *Cache) DirtyOlderThan(cutoff sim.Time) []Key {
	if c.ndirty == 0 {
		return nil
	}
	var out []Key
	for b := c.mru; b != nil; b = b.next {
		if b.Dirty && b.DirtyAt <= cutoff {
			out = append(out, b.Key)
		}
	}
	slices.SortFunc(out, compareKeys)
	return out
}

// AllDirty returns the keys of every dirty block in ascending order, or
// nil at once when there is none.
func (c *Cache) AllDirty() []Key { return c.DirtyOlderThan(sim.Time(math.MaxInt64)) }

// InvalidateFile drops every resident block of the file, dirty or not,
// and returns how many blocks were dropped. Dirty blocks are counted as
// cancelled (the delete-before-writeback path) — callers that must not
// lose data should write dirty blocks back first.
func (c *Cache) InvalidateFile(fs uint32, ino uint64) int {
	n := 0
	for b := c.perFile[fileKey{fs, ino}]; b != nil; {
		next := b.fileNext
		if b.Dirty {
			c.stats.Cancelled++
		}
		c.remove(b)
		n++
		b = next
	}
	c.stats.Invalidated += int64(n)
	return n
}

// CancelDirty drops the dirty blocks of the file without writing them
// back (delete-before-writeback, §4.2.3) and returns how many were
// cancelled. Clean blocks stay resident.
func (c *Cache) CancelDirty(fs uint32, ino uint64) int {
	n := 0
	for b := c.perFile[fileKey{fs, ino}]; b != nil; {
		next := b.fileNext
		if b.Dirty {
			c.stats.Cancelled++
			c.remove(b)
			n++
		}
		b = next
	}
	return n
}

// InvalidateAll empties the cache (client crash simulation), returning the
// number of dropped blocks.
func (c *Cache) InvalidateAll() int {
	n := len(c.blocks)
	for b := c.mru; b != nil; {
		next := b.next
		if b.Dirty {
			c.stats.Cancelled++
		}
		c.release(b)
		b = next
	}
	clear(c.blocks)
	clear(c.perFile)
	c.mru, c.lru = nil, nil
	c.ndirty = 0
	c.stats.Invalidated += int64(n)
	return n
}

// departed is the key of a block the release checker poisoned: no file
// has this inode.
var departed = Key{FS: ^uint32(0), Ino: ^uint64(0), Block: -1}

// compareKeys orders keys by (fs, ino, block).
func compareKeys(a, b Key) int {
	if a.FS != b.FS {
		return cmp.Compare(a.FS, b.FS)
	}
	if a.Ino != b.Ino {
		return cmp.Compare(a.Ino, b.Ino)
	}
	return cmp.Compare(a.Block, b.Block)
}
