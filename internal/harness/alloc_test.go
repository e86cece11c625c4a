package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// heapCost runs f and reports the heap objects and bytes it allocated, and
// how many of the objects were block-sized: in a size class of block bytes
// and up, as far as MemStats itemises size classes (18 KiB — an 8 KiB
// block behind any RPC header fits). Larger objects show in the bytes
// only.
func heapCost(block uint32, f func()) (objects, blocks, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	for i, c := range after.BySize {
		if c.Size >= block {
			blocks += c.Mallocs - before.BySize[i].Mallocs
		}
	}
	return after.Mallocs - before.Mallocs, blocks, after.TotalAlloc - before.TotalAlloc
}

// TestDataPathAllocationBudgets holds the 8 KiB data path to one block
// allocation per hop (DESIGN.md §14), end to end through a whole NFS
// world: a block is handed on, not copied, wherever the frozen-payload
// rule allows it.
func TestDataPathAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	if !Recycling {
		t.Skip("the release checker reuses no Pending and no reply head")
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
		each := func(block uint32, op func(i int) error) (objects, blks, size uint64) {
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
			objects, blks, size = heapCost(block, pass)
			return objects / blocks, blks / blocks, size / blocks
		}

		// A read miss copies into the caller's buffer, and allocates no
		// block at all (one, the caller's result, while ReadAt returned
		// a fresh slice). The server replies with the page of its file,
		// frozen by the read, as the reply image's tail, and the client
		// caches that page, copy-on-write. 2 objects in all: the call's
		// Pending, which holds its 56-byte image, and the cache Block.
		// The reply's head goes back to the server's free list once the
		// READ is decoded, but a Pending stays off the client's until
		// its 1 s timeout has come due, after the whole pass here. (3
		// while each reply made its head, 6 while the image was an object of its own
		// and the client's ReadArgs and the server's ReadReply were each
		// boxed as a proto.Message, 8 while the block had a list element
		// and every fetch a Signal, 9 with the result, 11 while the
		// store's snapshot and the cache block were copies, 25 while the
		// round trip's bookkeeping allocated.)
		buf := make([]byte, bs)
		read := func(i int) error {
			n, err := f.ReadInto(p, buf, int64(i)*bs)
			if err == nil && n != bs {
				t.Errorf("short read: %d bytes", n)
			}
			return err
		}
		objects, blks, _ := each(bs, read)
		if blks > 0 || objects > 2 {
			t.Errorf("NFS 8 KiB read miss allocates %d block-sized objects of %d, budget 0 of 2", blks, objects)
		}

		// A write-through: the cache block, and nothing else block-sized.
		// A biod sends the frozen cache block itself as the WRITE call
		// image's tail, behind a head its Pending holds, and the server
		// keeps that block as its file's page. 5.4 objects in all on
		// average, so 5 rounded down: the reply heads come back to the
		// server's free list, the Pendings, held by their timeouts, do
		// not within the pass (7.8 while each reply made its head, and a
		// biod's goroutine is now and then allocated afresh; 10 while the call image was a copy of
		// the block behind its head and the biod's name was formatted
		// per spawn, 12 while the client's WriteArgs and the server's
		// WriteReply were each boxed as a proto.Message, 15 while the
		// block had a list element and each reply's attributes built a
		// sorted list of the file's dirty blocks to ask whether it had
		// any; 32 before).
		data := bytes.Repeat([]byte{0xa5}, bs)
		objects, blks, _ = each(bs, func(i int) error {
			_, err := f.WriteAt(p, int64(i)*bs, data)
			return err
		})
		if blks > 1 || objects > 5 {
			t.Errorf("NFS 8 KiB write-through allocates %d block-sized objects of %d, budget 1 of 5", blks, objects)
		}

		// An appending write-through, into a file created afresh each
		// pass, so every WRITE extends the server's copy: the same one
		// block, since the store takes the client's block as the file's
		// page. A store that grows by copying shows only in the bytes —
		// arrays past 32 KiB are not itemised — so they are held too:
		// 8,900 B per op (18,900 while the call image copied the block,
		// 38,700 while a file was one doubling array).
		var g vfs.File
		_, blks, size := each(bs, func(i int) error {
			if i == 0 {
				var err error
				if g, err = w.NS.Open(p, "/data/g", vfs.WriteOnly|vfs.Create|vfs.Truncate, 0o644); err != nil {
					return err
				}
			}
			_, err := g.WriteAt(p, int64(i)*bs, data)
			if err == nil && i == blocks-1 {
				err = g.Close(p)
			}
			return err
		})
		if blks > 1 || size > 3*bs/2 {
			t.Errorf("NFS 8 KiB appending write-through allocates %d block-sized objects and %d B, budget 1 and %d B",
				blks, size, 3*bs/2)
		}

		// A short file, one per op: created, written through and closed,
		// then read back cold. The WRITE's data is the client's short
		// block, which the server keeps as the file's last page, and the
		// READ's reply is that page, which the client caches as it is: so
		// the write allocates the block and the open's and close's round
		// trips, and the read no data bytes, 1 object and 128 B, or 416 B
		// when a goroutine is allocated afresh (3 and 480 B while each
		// reply made its head and no Pending was reused). At
		// 3 KiB the write allocates 4,000 B (17,300 while the cache block
		// was a whole zero-padded block and the server copied a partial
		// WRITE into a fresh page), and the read 4 objects and 8,700 B
		// while fetchBlock copied a short block into a padded one. At
		// 5,001 bytes, not a multiple of 4, the block goes by reference
		// too, its XDR pad carried apart: nothing but the cache block is
		// as large as it (while such a block was encoded inline, the
		// WRITE's call head and the READ reply's head each held a copy,
		// one more such object on either path, and the server's page and
		// the client's block were views into them).
		for _, short := range []int{3 << 10, 5001} {
			names := make([]string, blocks)
			for i := range names {
				names[i] = fmt.Sprintf("/data/s%d-%d", short, i)
			}
			_, blks, size := each(uint32(short), func(i int) error {
				s, err := w.NS.Open(p, names[i], vfs.WriteOnly|vfs.Create|vfs.Truncate, 0o644)
				if err == nil {
					_, err = s.WriteAt(p, 0, data[:short])
				}
				if err == nil {
					err = s.Close(p)
				}
				return err
			})
			if blks > 1 || size > uint64(short)+2<<10 {
				t.Errorf("NFS %d-byte file written through allocates %d objects as large as its block and %d B, budget 1 and %d B",
					short, blks, size, short+2<<10)
			}
			shorts := make([]vfs.File, blocks)
			for i := range shorts {
				if shorts[i], err = w.NS.Open(p, names[i], vfs.ReadOnly, 0); err != nil {
					return err
				}
			}
			objects, blks, size := each(uint32(short), func(i int) error {
				n, err := shorts[i].ReadInto(p, buf, 0)
				if err == nil && n != short {
					t.Errorf("read %d bytes of a %d-byte file", n, short)
				}
				return err
			})
			if objects > 1 || blks > 0 || size > 1<<10 {
				t.Errorf("NFS %d-byte read miss allocates %d objects, %d as large as its block, and %d B, budget 1, 0 and 1,024 B",
					short, objects, blks, size)
			}
			for _, s := range shorts {
				if e := s.Close(p); err == nil {
					err = e
				}
			}
		}
		if err != nil {
			return err
		}
		return f.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}

	// An SNFS cached read hit copies from the block cache into the
	// caller's buffer: no RPC, no result, nothing allocated.
	w = Build(SNFS, true, Default())
	err = w.Run(func(p *sim.Proc) error {
		if err := w.NS.WriteFile(p, "/data/f", blocks*bs, bs); err != nil {
			return err // the delayed writes leave every block cached
		}
		f, err := w.NS.Open(p, "/data/f", vfs.ReadOnly, 0)
		if err != nil {
			return err
		}
		buf := make([]byte, bs)
		pass := func() {
			for i := 0; i < blocks && err == nil; i++ {
				var n int
				if n, err = f.ReadInto(p, buf, int64(i)*bs); err == nil && n != bs {
					t.Errorf("short read: %d bytes", n)
				}
			}
		}
		pass()
		if objects, _, _ := heapCost(bs, pass); objects/blocks > 0 || err != nil {
			t.Errorf("SNFS 8 KiB cached read hit allocates %d objects (%v), budget 0", objects/blocks, err)
		}

		// A stream of 8 KiB delayed writes half a block out of line, into
		// a file created afresh, as a sort's merge writes once one run
		// ended short: each write ends in a block no write has reached
		// yet. That block is made whole at once, one block per op and
		// 8,600 B; a block only as long as the write reached into it was
		// grown by the next write, 12,600 B.
		g, err := w.NS.Open(p, "/data/g", vfs.WriteOnly|vfs.Create|vfs.Truncate, 0o644)
		if err != nil {
			return err
		}
		data := bytes.Repeat([]byte{0xa5}, bs)
		_, _, size := heapCost(bs, func() {
			for i := 0; i < blocks && err == nil; i++ {
				_, err = g.WriteAt(p, bs/2+int64(i)*bs, data)
			}
		})
		if size/blocks > bs+bs/4 || err != nil {
			t.Errorf("SNFS 8 KiB unaligned appending write allocates %d B (%v), budget %d B", size/blocks, err, bs+bs/4)
		}
		if err := g.Close(p); err != nil {
			return err
		}
		return f.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWalkAllocationBudget holds a path walk to the objects of its round
// trips: the walk scans the path string itself (vfs.Next) and its cwd
// cache compares components in place (vfs.SamePath), so a Stat whose
// directory is in the cwd cache allocates only what its one LOOKUP round
// trip does, which is nothing: the LOOKUP's Pending goes back to the free
// list as the reply withdraws its timeout, and the next Stat takes it up
// (1 while the timeout held it past the pass, 2 while vfs.SplitPath built
// a slice of the path's components).
func TestWalkAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	if !Recycling {
		t.Skip("the release checker reuses no Pending and no reply head")
	}
	const stats = 64
	w := Build(NFS, true, Default())
	err := w.Run(func(p *sim.Proc) error {
		if err := w.NS.Mkdir(p, "/data/d", 0o755); err != nil {
			return err
		}
		if err := w.NS.WriteFile(p, "/data/d/f", 100, 100); err != nil {
			return err
		}
		var err error
		stat := func() {
			for i := 0; i < stats && err == nil; i++ {
				_, err = w.NS.Stat(p, "/data/d/f")
			}
		}
		stat() // the cwd cache now holds /data/d
		before := w.RPCWork()
		objects, _, _ := heapCost(0, stat)
		pendings := w.RPCWork().PendingsMade - before.PendingsMade
		if err == nil && (pendings != 0 || objects/stats > 0) {
			t.Errorf("a Stat in the cwd allocates %d objects and makes %d Pendings in %d, budget 0 and 0",
				objects/stats, pendings, stats)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpenCloseAllocationBudget holds a warm open and close of a cached
// file, on an NFS world (the open's GETATTR check) and an SNFS one (an
// OPEN and a CLOSE, through the server's state table), to no object: a
// closed file is the client's next open file, and the state table holds
// its per-client records by value, in an array the close leaves for the
// next open (1 and 2 objects while each open made its file, and each
// OPEN its client record).
func TestOpenCloseAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	if !Recycling {
		t.Skip("the release checker reuses no Pending and no reply head")
	}
	const opens = 64
	for _, tc := range []struct {
		pr     Proto
		budget uint64
	}{{NFS, 0}, {SNFS, 0}} {
		w := Build(tc.pr, true, Default())
		err := w.Run(func(p *sim.Proc) error {
			if err := w.NS.WriteFile(p, "/data/f", 8192, 8192); err != nil {
				return err
			}
			var err error
			cycle := func() {
				for i := 0; i < opens && err == nil; i++ {
					var f vfs.File
					if f, err = w.NS.Open(p, "/data/f", vfs.ReadOnly, 0); err == nil {
						err = f.Close(p)
					}
				}
			}
			cycle()
			objects, _, _ := heapCost(0, cycle)
			if err == nil && objects/opens > tc.budget {
				t.Errorf("%s: a warm Open+Close allocates %d objects, budget %d", tc.pr, objects/opens, tc.budget)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
