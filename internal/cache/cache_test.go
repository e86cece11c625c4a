package cache

import (
	"container/list"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"spritelynfs/internal/sim"
)

func key(ino uint64, blk int64) Key { return Key{FS: 1, Ino: ino, Block: blk} }

func TestInsertLookup(t *testing.T) {
	c := New(10)
	c.Insert(key(1, 0), []byte("data"), 4)
	b, ok := c.Lookup(key(1, 0))
	if !ok || string(b.Data) != "data" || b.Len != 4 {
		t.Fatalf("lookup = %+v, %v", b, ok)
	}
	if _, ok := c.Lookup(key(1, 1)); ok {
		t.Error("phantom block")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3)
	for i := int64(0); i < 3; i++ {
		c.Insert(key(1, i), nil, 0)
	}
	c.Lookup(key(1, 0)) // touch block 0; block 1 is now LRU
	_, victim := c.Insert(key(1, 3), nil, 0)
	if c.Stats().Evictions != 1 || victim.Key != key(1, 1) {
		t.Fatalf("evicted %+v (%d evictions), want block 1", victim, c.Stats().Evictions)
	}
	if !c.Contains(key(1, 0)) || !c.Contains(key(1, 2)) || !c.Contains(key(1, 3)) {
		t.Error("wrong residents after eviction")
	}
}

func TestEvictionReturnsDirtyBlocks(t *testing.T) {
	c := New(2)
	c.Insert(key(1, 0), nil, 0)
	c.MarkDirty(key(1, 0), 100)
	c.Insert(key(1, 1), nil, 0)
	_, victim := c.Insert(key(1, 2), nil, 0)
	if victim.Key != key(1, 0) || !victim.Dirty {
		t.Fatalf("evicted %+v, want the dirty block", victim)
	}
	if c.Stats().DirtyEvict != 1 {
		t.Errorf("DirtyEvict = %d", c.Stats().DirtyEvict)
	}
	if c.DirtyCount() != 0 {
		t.Errorf("dirty count %d after dirty eviction", c.DirtyCount())
	}
}

func TestDirtyTracking(t *testing.T) {
	c := New(0)
	c.Insert(key(1, 0), nil, 0)
	c.Insert(key(1, 1), nil, 0)
	if !c.MarkDirty(key(1, 0), sim.Time(5*sim.Second)) {
		t.Fatal("MarkDirty on resident block failed")
	}
	if c.MarkDirty(key(9, 9), 0) {
		t.Error("MarkDirty on absent block succeeded")
	}
	// Re-dirtying must not reset DirtyAt.
	c.MarkDirty(key(1, 0), sim.Time(50*sim.Second))
	dirty := c.AllDirty()
	if b, _ := c.Peek(key(1, 0)); len(dirty) != 1 || dirty[0] != key(1, 0) || b.DirtyAt != sim.Time(5*sim.Second) {
		t.Errorf("AllDirty = %+v, block %+v", dirty, b)
	}
	c.MarkClean(key(1, 0))
	if c.DirtyCount() != 0 || len(c.AllDirty()) != 0 {
		t.Error("MarkClean did not clean")
	}
}

func TestDirtyOlderThan(t *testing.T) {
	c := New(0)
	for i := int64(0); i < 4; i++ {
		c.Insert(key(1, i), nil, 0)
		c.MarkDirty(key(1, i), sim.Time(sim.Duration(i)*sim.Second))
	}
	old := c.DirtyOlderThan(sim.Time(2 * sim.Second))
	if len(old) != 3 {
		t.Fatalf("got %d old blocks, want 3", len(old))
	}
	for i, k := range old {
		if k.Block != int64(i) {
			t.Errorf("old[%d] = block %d, want sorted ascending", i, k.Block)
		}
	}
}

// TestCleanCacheScansNothing: a fleet's sync sweep asks every client cache
// for its dirty blocks every pass, and most have none. A cache whose blocks
// are all clean — never dirtied, or cleaned again — answers nil and
// allocates nothing.
func TestCleanCacheScansNothing(t *testing.T) {
	c := New(0)
	for i := int64(0); i < 64; i++ {
		c.Insert(key(1, i), nil, 0)
	}
	c.MarkDirty(key(1, 3), 1)
	c.MarkClean(key(1, 3))
	for name, scan := range map[string]func() []Key{
		"AllDirty":       c.AllDirty,
		"DirtyOlderThan": func() []Key { return c.DirtyOlderThan(sim.Time(sim.Second)) },
	} {
		if got := scan(); got != nil {
			t.Errorf("%s on a clean cache = %v, want nil", name, got)
		}
		if allocs := testing.AllocsPerRun(100, func() { scan() }); allocs != 0 {
			t.Errorf("%s on a clean cache allocates %.0f objects, want 0", name, allocs)
		}
	}
}

func TestCancelDirtyLeavesCleanBlocks(t *testing.T) {
	c := New(0)
	c.Insert(key(7, 0), nil, 0)
	c.Insert(key(7, 1), nil, 0)
	c.Insert(key(7, 2), nil, 0)
	c.MarkDirty(key(7, 0), 1)
	c.MarkDirty(key(7, 2), 1)
	n := c.CancelDirty(1, 7)
	if n != 2 {
		t.Fatalf("cancelled %d, want 2", n)
	}
	if !c.Contains(key(7, 1)) || c.Contains(key(7, 0)) || c.Contains(key(7, 2)) {
		t.Error("wrong residents after cancel")
	}
	if c.Stats().Cancelled != 2 {
		t.Errorf("Cancelled = %d", c.Stats().Cancelled)
	}
}

func TestInvalidateFile(t *testing.T) {
	c := New(0)
	c.Insert(key(1, 0), nil, 0)
	c.Insert(key(1, 1), nil, 0)
	c.Insert(key(2, 0), nil, 0)
	if n := c.InvalidateFile(1, 1); n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if c.Len() != 1 || !c.Contains(key(2, 0)) {
		t.Error("other file's blocks disturbed")
	}
}

// fileBlocks returns the resident blocks of one file, from its chain, in
// ascending block order.
func fileBlocks(c *Cache, fs uint32, ino uint64) []*Block {
	var out []*Block
	for b := c.perFile[fileKey{fs, ino}]; b != nil; b = b.fileNext {
		out = append(out, b)
	}
	slices.SortFunc(out, func(a, b *Block) int { return compareKeys(a.Key, b.Key) })
	return out
}

// TestFileBlocksSorted: a file's dirty blocks come out in ascending block
// order, whatever order they were written in.
func TestFileBlocksSorted(t *testing.T) {
	c := New(0)
	for _, blk := range []int64{5, 1, 3, 0, 4, 2} {
		c.Insert(key(1, blk), nil, 0)
		c.MarkDirty(key(1, blk), 1)
	}
	bs := c.DirtyBlocks(1, 1)
	if len(bs) != 6 {
		t.Fatalf("len %d", len(bs))
	}
	for i, k := range bs {
		if k.Block != int64(i) {
			t.Fatalf("blocks out of order: %d at %d", k.Block, i)
		}
	}
}

func TestInsertExistingUpdatesInPlace(t *testing.T) {
	c := New(2)
	b1, _ := c.Insert(key(1, 0), []byte("old"), 3)
	b2, victim := c.Insert(key(1, 0), []byte("newer"), 5)
	if b1 != b2 {
		t.Error("reinsert allocated a new block")
	}
	if victim.Key != (Key{}) || c.Stats().Evictions != 0 {
		t.Error("reinsert evicted")
	}
	if string(b2.Data) != "newer" || b2.Len != 5 {
		t.Errorf("block %+v", b2)
	}
	if c.Len() != 1 {
		t.Errorf("len %d", c.Len())
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New(0)
	c.Insert(key(1, 0), nil, 0)
	c.Insert(key(2, 0), nil, 0)
	c.MarkDirty(key(1, 0), 1)
	if n := c.InvalidateAll(); n != 2 {
		t.Fatalf("dropped %d, want 2", n)
	}
	if c.Len() != 0 || c.DirtyCount() != 0 {
		t.Error("cache not empty")
	}
	if c.Stats().Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", c.Stats().Cancelled)
	}
}

// TestDepartedBlockIsTheNextBlock: a block that leaves the cache — evicted,
// invalidated, cancelled or dropped with the rest — is the next new key's
// block, and an evicted one comes back by value. Under the release checker
// it is poisoned instead, and the next key gets a block of its own.
func TestDepartedBlockIsTheNextBlock(t *testing.T) {
	reused := func(what string, c *Cache, old, next *Block) {
		t.Helper()
		s := c.Stats()
		switch {
		case FrozenCheck && (next == old || old.Key != departed || old.Data != nil || old.Len != -1 || s.Reused != 0):
			t.Errorf("after %s: departed block %+v reused or not poisoned", what, old)
		case !FrozenCheck && (next != old || s.Reused != 1):
			t.Errorf("after %s: the next block is not the departed one (%d reused)", what, s.Reused)
		}
	}

	c := New(2)
	data := []byte("dirty bytes")
	old, _ := c.Insert(key(1, 0), data, len(data))
	c.MarkDirty(key(1, 0), 7)
	c.Insert(key(1, 1), nil, 0)
	next, victim := c.Insert(key(2, 0), nil, 0)
	if victim.Key != key(1, 0) || !victim.Dirty || victim.Len != len(data) || &victim.Data[0] != &data[0] {
		t.Errorf("victim %+v, want block 0 of file 1 with its bytes, dirty", victim)
	}
	reused("an eviction", c, old, next)

	for _, drop := range []struct {
		name string
		fn   func(c *Cache)
	}{
		{"InvalidateFile", func(c *Cache) { c.InvalidateFile(1, 2) }},
		{"CancelDirty", func(c *Cache) { c.CancelDirty(1, 2) }},
		{"InvalidateAll", func(c *Cache) { c.InvalidateAll() }},
	} {
		c := New(0)
		old, _ := c.Insert(key(2, 0), nil, 0)
		c.MarkDirty(key(2, 0), 8)
		drop.fn(c)
		next, _ := c.Insert(key(3, 0), nil, 0)
		reused(drop.name, c, old, next)
	}
}

// bufID is the identity of d's buffer, nil for one with no room.
func bufID(d []byte) *byte {
	if cap(d) == 0 {
		return nil
	}
	return &d[:cap(d)][0]
}

// TestDepartedBufferIsTheNextBuffer: the buffer of a block that leaves
// the cache owned — cancelled, invalidated, dropped with the rest, or
// evicted clean — is the next one Buffer hands out, zeroed; one too short
// for a request stays for a shorter one. A frozen block's buffer and a
// dirty victim's are never handed out, nor changed. Under the release
// checker an owned buffer is scribbled instead, and every buffer is made.
func TestDepartedBufferIsTheNextBuffer(t *testing.T) {
	const n = 64
	owned := func(what string, c *Cache, old []byte) {
		t.Helper()
		next := c.Buffer(n)
		switch {
		case len(next) != n || slices.ContainsFunc(next, func(x byte) bool { return x != 0 }):
			t.Errorf("after %s: Buffer(%d) is not %d zero bytes", what, n, n)
		case FrozenCheck && (bufID(next) == bufID(old) || slices.ContainsFunc(old, func(x byte) bool { return x != 0xDB })):
			t.Errorf("after %s: the departed buffer was reused or not scribbled", what)
		case !FrozenCheck && bufID(next) != bufID(old):
			t.Errorf("after %s: the next buffer is not the departed one", what)
		}
	}
	kept := func(what string, c *Cache, old []byte) {
		t.Helper()
		if next := c.Buffer(n); bufID(next) == bufID(old) || slices.ContainsFunc(old, func(x byte) bool { return x != 7 }) {
			t.Errorf("after %s: a buffer someone else holds was reused or changed", what)
		}
	}
	fill := func(c *Cache, k Key, frozen, dirty bool) []byte {
		d := c.Buffer(n)
		for i := range d {
			d[i] = 7
		}
		b, _ := c.Insert(k, d, n)
		b.Frozen = frozen
		if dirty {
			c.MarkDirty(k, 1)
		}
		return d
	}

	for _, drop := range []struct {
		name string
		fn   func(c *Cache)
	}{
		{"InvalidateFile", func(c *Cache) { c.InvalidateFile(1, 2) }},
		{"CancelDirty", func(c *Cache) { c.CancelDirty(1, 2) }},
		{"InvalidateAll", func(c *Cache) { c.InvalidateAll() }},
	} {
		c := New(0)
		old := fill(c, key(2, 0), false, true)
		drop.fn(c)
		owned(drop.name, c, old)

		c = New(0)
		old = fill(c, key(2, 0), true, true)
		drop.fn(c)
		kept(drop.name+" of a frozen block", c, old)
	}

	c := New(1)
	old := fill(c, key(1, 0), false, false)
	c.Insert(key(1, 1), nil, 0)
	owned("a clean eviction", c, old)

	c = New(1)
	old = fill(c, key(1, 0), false, true)
	_, victim := c.Insert(key(1, 1), nil, 0)
	if bufID(victim.Data) != bufID(old) {
		t.Error("a dirty victim came back without its bytes")
	}
	kept("a dirty eviction", c, old)

	c = New(0)
	short := c.Buffer(3)
	c.Insert(key(1, 0), short, 3)
	c.InvalidateFile(1, 1)
	long := c.Buffer(n)
	if FrozenCheck {
		return
	}
	if again := c.Buffer(3); bufID(long) == bufID(short) || bufID(again) != bufID(short) {
		t.Error("a spare too short for a request was not kept for a shorter one")
	}
	if s := c.Stats(); s.BuffersMade != 2 || s.BuffersReused != 1 {
		t.Errorf("%d buffers made and %d reused, want 2 and 1", s.BuffersMade, s.BuffersReused)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean bytes op
// allocates (runtime.MemStats.TotalAlloc) over runs, after a warm-up run.
func bytesPerRun(runs int, op func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestCacheSize: a cache is allocated once per client, and the fleet
// builds thousands: its list is two links, not a sentinel block, and a
// field added to it shows here before it moves every cache into a larger
// size class. 160 bytes fills the 160-byte class: the spare buffers'
// stack took 16 bytes more than the list head it replaced, and the two
// counts held in 32 bits each gave back 8 (152 before).
func TestCacheSize(t *testing.T) {
	if got := unsafe.Sizeof(Cache{}); got != 160 {
		t.Errorf("unsafe.Sizeof(Cache{}) = %d, want 160", got)
	}
}

// TestCacheOpsAllocateNothing: a block carries its own LRU and file-chain
// links, and a departed block is the next one, so every operation on
// resident blocks, dropping a file, and a new block in a full cache or
// after a drop allocate nothing.
func TestCacheOpsAllocateNothing(t *testing.T) {
	const runs = 100
	c := New(256)
	for i := int64(0); i < 256; i++ {
		c.Insert(key(1, i), nil, 4096)
	}
	i := int64(0)
	next := func() Key { i = (i + 1) % 256; return key(1, i) }
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Lookup", func() { c.Lookup(next()) }},
		{"MarkDirty", func() { c.MarkDirty(next(), 1) }},
		{"MarkClean", func() { c.MarkClean(next()) }},
		{"HasDirty", func() { c.HasDirty(1, 1) }},
		{"re-Insert of a resident key", func() { c.Insert(next(), nil, 4096) }},
	} {
		if allocs := testing.AllocsPerRun(runs, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.0f objects, want 0", tc.name, allocs)
		}
	}

	// One file per run, AllocsPerRun's warm-up included.
	files := New(0)
	for ino := uint64(0); ino <= runs; ino++ {
		for blk := int64(0); blk < 4; blk++ {
			files.Insert(key(ino, blk), nil, 4096)
		}
	}
	ino := uint64(0)
	if allocs := testing.AllocsPerRun(runs, func() {
		files.InvalidateFile(1, ino)
		ino++
	}); allocs != 0 {
		t.Errorf("InvalidateFile allocates %.0f objects, want 0", allocs)
	}

	if FrozenCheck {
		t.Skip("the release checker makes every block")
	}
	fresh := int64(256)
	if allocs := testing.AllocsPerRun(runs, func() {
		fresh++
		c.Insert(key(1, fresh), nil, 4096)
	}); allocs != 0 {
		t.Errorf("a new Insert into a full cache allocates %.0f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		files.InvalidateFile(1, ino)
		for blk := int64(0); blk < 4; blk++ {
			files.Insert(key(ino+runs+1, blk), nil, 4096)
		}
		ino++
	}); allocs != 0 {
		t.Errorf("InvalidateFile and an Insert for each block dropped allocate %.0f objects, want 0", allocs)
	}
	if s := c.Stats(); s.Evictions != runs+1 || s.Made != 256 {
		t.Errorf("%d evictions and %d blocks made, want %d and 256", s.Evictions, s.Made, runs+1)
	}

	// A fresh 8 KiB block written after its file's blocks were cancelled
	// or invalidated takes a departed block and its buffer: no object and
	// no byte. One file per run, the warm-ups included.
	for _, drop := range []struct {
		name string
		fn   func(c *Cache, ino uint64)
	}{
		{"CancelDirty", func(c *Cache, ino uint64) { c.CancelDirty(1, ino) }},
		{"InvalidateFile", func(c *Cache, ino uint64) { c.InvalidateFile(1, ino) }},
	} {
		const bs = 8192
		bufs, ino := New(0), uint64(0)
		write := func(ino uint64) {
			for blk := int64(0); blk < 4; blk++ {
				bufs.Insert(key(ino, blk), bufs.Buffer(bs), bs)
				bufs.MarkDirty(key(ino, blk), 1)
			}
		}
		write(ino)
		op := func() {
			drop.fn(bufs, ino)
			ino++
			write(ino)
		}
		if allocs := testing.AllocsPerRun(runs, op); allocs != 0 {
			t.Errorf("%s and a fresh block for each block dropped allocate %.0f objects, want 0", drop.name, allocs)
		}
		if bytes := bytesPerRun(runs, op); bytes != 0 {
			t.Errorf("%s and a fresh block for each block dropped allocate %d bytes, want 0", drop.name, bytes)
		}
		if s := bufs.Stats(); s.BuffersMade != 4 {
			t.Errorf("%s: %d buffers made, want the first file's 4", drop.name, s.BuffersMade)
		}
	}
}

// refCache is the cache as it was before its blocks carried their own
// links: a container/list LRU and a map per file. It keeps no free list,
// only the count of blocks one would hold, and the buffers departed
// blocks would hold by identity. TestQuickInvariants holds the intrusive
// cache to it.
type refCache struct {
	capacity int
	blocks   map[Key]*list.Element
	lru      *list.List // front = most recent
	perFile  map[fileKey]map[int64]*list.Element
	ndirty   int
	free     int // blocks that left the cache, not yet reused
	// spares are the buffers departed blocks hold, by identity, with their
	// room; gone are those Buffer must never hand out again: a dirty
	// victim's, written back, and a frozen block's, shared.
	spares map[*byte]int
	gone   map[*byte]bool
	stats  Stats
}

func newRefCache(capacity int) *refCache {
	return &refCache{
		capacity: capacity,
		blocks:   make(map[Key]*list.Element),
		lru:      list.New(),
		perFile:  make(map[fileKey]map[int64]*list.Element),
		spares:   make(map[*byte]int),
		gone:     make(map[*byte]bool),
	}
}

// handedOut checks the buffer Buffer returned for n bytes: n zero bytes,
// held by no resident block, never a dirty victim's or a frozen block's,
// and either a departed block's, which it takes from the spares, or made
// when no spare had room.
func (c *refCache) handedOut(d []byte, n int) error {
	id := bufID(d)
	if len(d) != n || slices.ContainsFunc(d, func(x byte) bool { return x != 0 }) {
		return fmt.Errorf("Buffer(%d) returned %d bytes, not all zero", n, len(d))
	}
	if c.gone[id] {
		return fmt.Errorf("Buffer(%d) handed out a dirty victim's or a frozen block's buffer", n)
	}
	for _, el := range c.blocks {
		if bufID(el.Value.(*Block).Data) == id {
			return fmt.Errorf("Buffer(%d) handed out block %v's buffer", n, el.Value.(*Block).Key)
		}
	}
	if _, ok := c.spares[id]; ok {
		delete(c.spares, id)
		c.stats.BuffersReused++
		return nil
	}
	for _, room := range c.spares {
		if room >= n {
			return fmt.Errorf("Buffer(%d) made a buffer while a spare of %d bytes was free", n, room)
		}
	}
	c.stats.BuffersMade++
	return nil
}

// freeze marks the resident block frozen: its buffer is shared for good.
func (c *refCache) freeze(b *Block) {
	b.Frozen = true
	if id := bufID(b.Data); id != nil {
		c.gone[id] = true
	}
}

func (c *refCache) Lookup(key Key) (*Block, bool) {
	el, ok := c.blocks[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(el)
	return el.Value.(*Block), true
}

func (c *refCache) Peek(key Key) (*Block, bool) {
	el, ok := c.blocks[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*Block), true
}

func (c *refCache) Insert(key Key, data []byte, length int) (*Block, Victim) {
	if el, ok := c.blocks[key]; ok {
		b := el.Value.(*Block)
		b.Data, b.Frozen = data, false
		if length > b.Len {
			b.Len = length
		}
		c.lru.MoveToFront(el)
		return b, Victim{}
	}
	var v Victim
	if c.capacity > 0 && c.lru.Len() >= c.capacity {
		back := c.lru.Back()
		vb := back.Value.(*Block)
		v = Victim{Key: vb.Key, Len: vb.Len, Dirty: vb.Dirty}
		if vb.Dirty {
			v.Data, vb.Data = vb.Data, nil
			if id := bufID(v.Data); id != nil {
				c.gone[id] = true
			}
		}
		c.remove(back)
		c.stats.Evictions++
		if vb.Dirty {
			c.stats.DirtyEvict++
		}
	}
	if c.free > 0 && !FrozenCheck {
		c.free--
		c.stats.Reused++
	} else {
		c.stats.Made++
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
	return b, v
}

func (c *refCache) MarkDirty(key Key, now sim.Time) bool {
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

func (c *refCache) MarkClean(key Key) {
	if el, ok := c.blocks[key]; ok {
		b := el.Value.(*Block)
		if b.Dirty {
			b.Dirty = false
			c.ndirty--
		}
	}
}

func (c *refCache) MarkCleanIf(key Key, gen uint64) {
	if el, ok := c.blocks[key]; ok && el.Value.(*Block).Gen == gen {
		c.MarkClean(key)
	}
}

func (c *refCache) remove(el *list.Element) {
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
	c.release(b)
}

// release counts a departed block free, and its buffer a spare if the
// cache owned it.
func (c *refCache) release(b *Block) {
	c.free++
	if id := bufID(b.Data); id != nil && !b.Frozen && !FrozenCheck {
		c.spares[id] = cap(b.Data)
	}
}

func (c *refCache) FileBlocks(fs uint32, ino uint64) []*Block {
	m := c.perFile[fileKey{fs, ino}]
	if len(m) == 0 {
		return nil
	}
	out := make([]*Block, 0, len(m))
	for _, el := range m {
		out = append(out, el.Value.(*Block))
	}
	refSort(out)
	return out
}

// keys returns the keys of bs, in order.
func keys(bs []*Block) []Key {
	var out []Key
	for _, b := range bs {
		out = append(out, b.Key)
	}
	return out
}

func (c *refCache) DirtyBlocks(fs uint32, ino uint64) []Key {
	var out []*Block
	for _, b := range c.FileBlocks(fs, ino) {
		if b.Dirty {
			out = append(out, b)
		}
	}
	return keys(out)
}

func (c *refCache) DirtyOlderThan(cutoff sim.Time) []Key {
	var out []*Block
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if b := el.Value.(*Block); b.Dirty && b.DirtyAt <= cutoff {
			out = append(out, b)
		}
	}
	refSort(out)
	return keys(out)
}

func (c *refCache) AllDirty() []Key {
	var out []*Block
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if b := el.Value.(*Block); b.Dirty {
			out = append(out, b)
		}
	}
	refSort(out)
	return keys(out)
}

func (c *refCache) InvalidateFile(fs uint32, ino uint64) int {
	n := 0
	for _, el := range c.perFile[fileKey{fs, ino}] {
		if el.Value.(*Block).Dirty {
			c.stats.Cancelled++
		}
		c.remove(el)
		n++
	}
	c.stats.Invalidated += int64(n)
	return n
}

func (c *refCache) CancelDirty(fs uint32, ino uint64) int {
	n := 0
	for _, k := range c.DirtyBlocks(fs, ino) {
		c.stats.Cancelled++
		c.remove(c.blocks[k])
		n++
	}
	return n
}

func (c *refCache) InvalidateAll() int {
	n := c.lru.Len()
	for _, el := range c.blocks {
		b := el.Value.(*Block)
		if b.Dirty {
			c.stats.Cancelled++
		}
		c.release(b)
	}
	c.blocks = make(map[Key]*list.Element)
	c.perFile = make(map[fileKey]map[int64]*list.Element)
	c.lru.Init()
	c.ndirty = 0
	c.stats.Invalidated += int64(n)
	return n
}

// refSort orders blocks by (fs, ino, block) with the insertion sort the
// reference cache used.
func refSort(bs []*Block) {
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

// blockState is what the model comparison reads of a block: everything
// but the links, and Data by identity.
type blockState struct {
	Key     Key
	Dirty   bool
	DirtyAt sim.Time
	Gen     uint64
	Len     int
	Frozen  bool
	Buf     *byte
}

func states(bs []*Block) []blockState {
	out := make([]blockState, len(bs))
	for i, b := range bs {
		out[i] = blockState{b.Key, b.Dirty, b.DirtyAt, b.Gen, b.Len, b.Frozen, bufID(b.Data)}
	}
	return out
}

// keyStates reads the state of each listed block, looked up by key.
func keyStates(peek func(Key) (*Block, bool), keys []Key) []blockState {
	bs := make([]*Block, len(keys))
	for i, k := range keys {
		bs[i], _ = peek(k)
	}
	return states(bs)
}

// Property: driven by the same random sequence at capacity 8, the
// intrusive cache agrees with refCache after every operation — the victim
// of each insert (the order write-backs leave in, which the virtual clock
// follows), what each call returns, every file's blocks, their buffers by
// identity among them, the dirty scans' keys and the blocks they name,
// HasDirty, the counters, blocks and buffers made and reused among them —
// and its dirty count matches its blocks while residency stays within
// capacity. Every buffer Buffer hands out, for a new block or a copy of a
// resident one, is one no resident block, dirty victim or frozen block
// holds (refCache.handedOut).
func TestQuickInvariants(t *testing.T) {
	type op struct {
		Kind byte
		Ino  uint8
		Blk  uint8
		Len  uint8
	}
	const inos = 4
	f := func(ops []op) bool {
		c, ref := New(8), newRefCache(8)
		for i, o := range ops {
			k := Key{FS: 1, Ino: uint64(o.Ino % inos), Block: int64(o.Blk % 8)}
			now := sim.Time(i)
			var got, want any
			// A buffer's length: from 1 byte, so that each has an identity,
			// to 16.
			size := 1 + int(o.Len%16)
			switch o.Kind % 15 {
			case 0, 1, 2:
				_, got = c.Insert(k, nil, int(o.Len))
				_, want = ref.Insert(k, nil, int(o.Len))
			case 3, 4:
				b, ok := c.Lookup(k)
				rb, rok := ref.Lookup(k)
				got, want = ok, rok
				if ok && rok {
					got, want = states([]*Block{b}), states([]*Block{rb})
				}
			case 5, 6:
				got, want = c.MarkDirty(k, now), ref.MarkDirty(k, now)
			case 7:
				c.MarkClean(k)
				ref.MarkClean(k)
			case 8:
				// Half the time the generation the block holds, so the
				// clean takes.
				gen := uint64(o.Len % 4)
				if rb, ok := ref.blocks[k]; ok && o.Len%2 == 0 {
					gen = rb.Value.(*Block).Gen
				}
				c.MarkCleanIf(k, gen)
				ref.MarkCleanIf(k, gen)
			case 9:
				got, want = c.InvalidateFile(k.FS, k.Ino), ref.InvalidateFile(k.FS, k.Ino)
			case 10:
				got, want = c.CancelDirty(k.FS, k.Ino), ref.CancelDirty(k.FS, k.Ino)
			case 11:
				if o.Blk%16 == 0 {
					got, want = c.InvalidateAll(), ref.InvalidateAll()
				} else {
					cut := sim.Time(int(o.Len) % (i + 1))
					got, want = keyStates(c.Peek, c.DirtyOlderThan(cut)), keyStates(ref.Peek, ref.DirtyOlderThan(cut))
				}
			case 12:
				d := c.Buffer(size)
				if err := ref.handedOut(d, size); err != nil {
					t.Logf("op %d %+v: %v", i, o, err)
					return false
				}
				_, got = c.Insert(k, d, size)
				_, want = ref.Insert(k, d, size)
			case 13:
				if b, ok := c.Peek(k); ok {
					rb, _ := ref.Peek(k)
					b.Frozen = true
					ref.freeze(rb)
				}
			case 14:
				// A write into a resident block: a copy into a buffer at
				// least as long.
				if b, ok := c.Peek(k); ok {
					rb, _ := ref.Peek(k)
					d := c.Buffer(max(size, len(b.Data)))
					if err := ref.handedOut(d, len(d)); err != nil {
						t.Logf("op %d %+v: %v", i, o, err)
						return false
					}
					copy(d, b.Data)
					b.Data, b.Frozen = d, false
					rb.Data, rb.Frozen = d, false
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("op %d %+v: got %v, reference %v", i, o, got, want)
				return false
			}
			if !reflect.DeepEqual(keyStates(c.Peek, c.AllDirty()), keyStates(ref.Peek, ref.AllDirty())) ||
				!reflect.DeepEqual(keyStates(c.Peek, c.DirtyOlderThan(now/2)), keyStates(ref.Peek, ref.DirtyOlderThan(now/2))) {
				t.Logf("op %d %+v: dirty scans differ", i, o)
				return false
			}
			n := 0
			for ino := uint64(0); ino < inos; ino++ {
				if !reflect.DeepEqual(states(fileBlocks(c, 1, ino)), states(ref.FileBlocks(1, ino))) ||
					!reflect.DeepEqual(keyStates(c.Peek, c.DirtyBlocks(1, ino)), keyStates(ref.Peek, ref.DirtyBlocks(1, ino))) ||
					c.HasDirty(1, ino) != (len(ref.DirtyBlocks(1, ino)) > 0) {
					t.Logf("op %d %+v: file %d differs", i, o, ino)
					return false
				}
				n += len(c.DirtyBlocks(1, ino))
			}
			if c.Stats() != ref.stats || c.Len() != ref.lru.Len() || c.DirtyCount() != ref.ndirty {
				t.Logf("op %d %+v: stats %+v len %d dirty %d, reference %+v %d %d",
					i, o, c.Stats(), c.Len(), c.DirtyCount(), ref.stats, ref.lru.Len(), ref.ndirty)
				return false
			}
			if c.Len() > int(c.capacity) || n != c.DirtyCount() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
