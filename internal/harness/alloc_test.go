package harness

import (
	"bytes"
	"runtime"
	"testing"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// heapCost runs f and reports the heap objects it allocated, and how many
// of them were block-sized: 8 KiB and up, as far as MemStats itemises
// size classes (18 KiB — an 8 KiB block behind any RPC header fits).
func heapCost(f func()) (objects, blocks uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	for i, c := range after.BySize {
		if c.Size >= 8192 {
			blocks += c.Mallocs - before.BySize[i].Mallocs
		}
	}
	return after.Mallocs - before.Mallocs, blocks
}

// TestDataPathAllocationBudgets holds the 8 KiB data path to one block
// allocation per hop (DESIGN.md §14), end to end through a whole NFS
// world: a block is handed on, not copied, wherever the frozen-payload
// rule allows it.
func TestDataPathAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const blocks, bs = 64, 8192
	off := false
	w := BuildOpt(NFS, true, Default(), BuildOptions{ReadAhead: &off})
	err := w.Run(func(p *sim.Proc) error {
		// The file is written whole first, so the server's copy is
		// already at its full size when the measured writes land.
		if err := w.NS.WriteFile(p, "/data/f", blocks*bs, bs); err != nil {
			return err
		}
		f, err := w.NS.Open(p, "/data/f", vfs.ReadWrite, 0o644)
		if err != nil {
			return err
		}
		// each runs op on every block of the file from a cold client
		// cache, once to warm the encoder pool and once measured, and
		// reports the per-op averages rounded down, as
		// testing.AllocsPerRun does: a pool refill after a collection
		// is not a regression.
		each := func(op func(i int) error) (objects, blks uint64) {
			pass := func() {
				w.InvalidateClientCache()
				for i := 0; i < blocks && err == nil; i++ {
					err = op(i)
				}
				if err == nil {
					err = f.Sync(p) // write-throughs still with a biod land inside the pass
				}
			}
			pass()
			objects, blks = heapCost(pass)
			return objects / blocks, blks / blocks
		}

		// A read miss: the store's snapshot, the reply wire image, the
		// cache block and the caller's result. 11 objects in all (25
		// while the round trip's bookkeeping allocated): beside the
		// blocks, the call image, its Pending, and what the client,
		// its cache and the server's handler make for a READ.
		objects, blks := each(func(i int) error {
			data, err := f.ReadAt(p, int64(i)*bs, bs)
			if err == nil && len(data) != bs {
				t.Errorf("short read: %d bytes", len(data))
			}
			return err
		})
		if blks > 4 || objects > 13 {
			t.Errorf("NFS 8 KiB read miss allocates %d block-sized objects of %d, budget 4 of 13", blks, objects)
		}

		// A write-through: the cache block and the call wire image (the
		// server writes into the file in place). 15 objects in all (32
		// before), the biod's hand-off among them.
		data := bytes.Repeat([]byte{0xa5}, bs)
		objects, blks = each(func(i int) error {
			_, err := f.WriteAt(p, int64(i)*bs, data)
			return err
		})
		if blks > 2 || objects > 17 {
			t.Errorf("NFS 8 KiB write-through allocates %d block-sized objects of %d, budget 2 of 17", blks, objects)
		}
		if err != nil {
			return err
		}
		return f.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}
