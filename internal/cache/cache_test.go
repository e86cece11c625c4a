package cache

import (
	"testing"
	"testing/quick"

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
	_, evicted := c.Insert(key(1, 3), nil, 0)
	if len(evicted) != 1 || evicted[0].Key.Block != 1 {
		t.Fatalf("evicted %v, want block 1", evicted)
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
	_, evicted := c.Insert(key(1, 2), nil, 0)
	if len(evicted) != 1 || !evicted[0].Dirty {
		t.Fatalf("evicted %+v, want the dirty block", evicted)
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
	if len(dirty) != 1 || dirty[0].DirtyAt != sim.Time(5*sim.Second) {
		t.Errorf("AllDirty = %+v", dirty)
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
	for i, b := range old {
		if b.Key.Block != int64(i) {
			t.Errorf("old[%d] = block %d, want sorted ascending", i, b.Key.Block)
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
	for name, scan := range map[string]func() []*Block{
		"AllDirty":       c.AllDirty,
		"DirtyOlderThan": func() []*Block { return c.DirtyOlderThan(sim.Time(sim.Second)) },
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

func TestFileBlocksSorted(t *testing.T) {
	c := New(0)
	for _, blk := range []int64{5, 1, 3, 0, 4, 2} {
		c.Insert(key(1, blk), nil, 0)
	}
	bs := c.FileBlocks(1, 1)
	if len(bs) != 6 {
		t.Fatalf("len %d", len(bs))
	}
	for i, b := range bs {
		if b.Key.Block != int64(i) {
			t.Fatalf("blocks out of order: %d at %d", b.Key.Block, i)
		}
	}
}

func TestInsertExistingUpdatesInPlace(t *testing.T) {
	c := New(2)
	b1, _ := c.Insert(key(1, 0), []byte("old"), 3)
	b2, evicted := c.Insert(key(1, 0), []byte("newer"), 5)
	if b1 != b2 {
		t.Error("reinsert allocated a new block")
	}
	if evicted != nil {
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

// Property: the dirty count always equals the number of blocks reporting
// Dirty, and residency never exceeds capacity, across random operation
// sequences.
func TestQuickInvariants(t *testing.T) {
	type op struct {
		Kind byte
		Ino  uint8
		Blk  uint8
	}
	f := func(ops []op) bool {
		c := New(8)
		for i, o := range ops {
			k := Key{FS: 1, Ino: uint64(o.Ino % 4), Block: int64(o.Blk % 8)}
			switch o.Kind % 5 {
			case 0:
				c.Insert(k, nil, 0)
			case 1:
				c.MarkDirty(k, sim.Time(i))
			case 2:
				c.MarkClean(k)
			case 3:
				c.CancelDirty(k.FS, k.Ino)
			case 4:
				c.Lookup(k)
			}
			if c.capacity > 0 && c.Len() > c.capacity {
				return false
			}
			n := 0
			for _, ino := range []uint64{0, 1, 2, 3} {
				n += len(c.DirtyBlocks(1, ino))
			}
			if n != c.DirtyCount() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
