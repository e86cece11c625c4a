package client_test

import (
	"bytes"
	"testing"

	"spritelynfs/internal/client"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

func TestNFSAdaptiveProbeInterval(t *testing.T) {
	// A recently modified file is re-probed quickly; an old file's
	// attributes rest longer (3..150 s adaptive interval).
	w := newWorld(1, false, 4, server.SNFSOptions{})
	c := w.addNFS("clientA", client.NFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "f.dat", fill(4096, 'p'))
		f, err := c.Open(p, "f.dat", vfs.ReadOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close(p)
		f.ReadAt(p, 0, 4096)
		base := c.Ops().Get("getattr")
		// Within the minimum interval: no probe.
		p.Sleep(2 * sim.Second)
		f.ReadAt(p, 0, 4096)
		if got := c.Ops().Get("getattr") - base; got != 0 {
			t.Errorf("probed %d times within 2s of a fresh file", got)
		}
		// Just past the minimum interval: the young file is probed.
		p.Sleep(2 * sim.Second)
		f.ReadAt(p, 0, 4096)
		if got := c.Ops().Get("getattr") - base; got != 1 {
			t.Errorf("probes after 4s = %d, want 1", got)
		}
		// Much later, an old, unmodified file rests longer: reads a
		// minute apart need not probe every time.
		p.Sleep(30 * sim.Minute)
		f.ReadAt(p, 0, 4096) // one probe re-arms the clock
		mid := c.Ops().Get("getattr")
		p.Sleep(60 * sim.Second)
		f.ReadAt(p, 0, 4096)
		if got := c.Ops().Get("getattr") - mid; got != 0 {
			t.Errorf("old file probed %d times after only 60s (timeout should have grown)", got)
		}
	})
}

func TestDirCacheSavesIntermediateLookups(t *testing.T) {
	w := newWorld(1, false, 4, server.SNFSOptions{})
	c := w.addNFS("clientA", client.NFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		c.Mkdir(p, "a", 0o755)
		c.Mkdir(p, "a/b", 0o755)
		writeThrough(t, p, c, "a/b/f1", fill(10, '1'))
		writeThrough(t, p, c, "a/b/f2", fill(10, '2'))
		base := c.Ops().Get("lookup")
		// Both files share the cached cwd: only the final component
		// resolves per access.
		c.Stat(p, "a/b/f1")
		c.Stat(p, "a/b/f2")
		if got := c.Ops().Get("lookup") - base; got != 2 {
			t.Errorf("%d lookups for 2 stats in a cached dir, want 2", got)
		}
		// A different directory re-walks.
		c.Mkdir(p, "other", 0o755)
		base = c.Ops().Get("lookup")
		writeThrough(t, p, c, "other/g", fill(10, 'g'))
		c.Stat(p, "other/g")
		if got := c.Ops().Get("lookup") - base; got < 2 {
			t.Errorf("suspiciously few lookups (%d) after changing directory", got)
		}
	})
}

func TestDirCacheRecoversFromStaleDir(t *testing.T) {
	// Client B removes the directory client A has cached; A's next walk
	// through the cached handle gets ESTALE and must recover.
	w := newWorld(1, false, 4, server.SNFSOptions{})
	a := w.addNFS("clientA", client.NFSOptions{})
	b := w.addNFS("clientB", client.NFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		a.Mkdir(p, "d", 0o755)
		writeThrough(t, p, a, "d/f", fill(10, 'f'))
		a.Stat(p, "d/f") // warm A's cwd cache with d's handle
		// B removes and recreates the directory (new handle).
		if err := b.Remove(p, "d/f"); err != nil {
			t.Fatal(err)
		}
		if err := b.Rmdir(p, "d"); err != nil {
			t.Fatal(err)
		}
		b.Mkdir(p, "d", 0o755)
		writeThrough(t, p, b, "d/f", fill(10, 'g'))
		// A's stat through the stale cached handle must still succeed.
		attr, err := a.Stat(p, "d/f")
		if err != nil {
			t.Fatalf("stat after dir replacement: %v", err)
		}
		if attr.Size != 10 {
			t.Errorf("attr %+v", attr)
		}
	})
}

func TestReadModifyWriteFetchesPartialBlock(t *testing.T) {
	// An unaligned overwrite in the middle of existing content must
	// fetch the block first (read-modify-write) so no bytes are lost.
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "f.dat", fill(8192, 'o'))
		c.SyncPass(p)
		c.Cache().InvalidateAll() // force the RMW to fetch

		f, err := c.Open(p, "f.dat", vfs.ReadWrite, 0)
		if err != nil {
			t.Fatal(err)
		}
		patch := []byte("PATCH")
		if _, err := f.WriteAt(p, 100, patch); err != nil {
			t.Fatal(err)
		}
		if c.Ops().Get("read") == 0 {
			t.Error("partial overwrite of cold block did not read-modify-write")
		}
		got, _ := f.ReadAt(p, 0, 8192)
		want := fill(8192, 'o')
		copy(want[100:], patch)
		if !bytes.Equal(got, want) {
			t.Error("read-modify-write corrupted surrounding bytes")
		}
		f.Close(p)
	})
}

func TestAppendingWritesNeedNoRMW(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		f, err := c.Open(p, "f.dat", vfs.WriteOnly|vfs.Create, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		// Sequential appends in odd-sized chunks.
		var off int64
		for i := 0; i < 10; i++ {
			chunk := fill(1000, byte('a'+i))
			if _, err := f.WriteAt(p, off, chunk); err != nil {
				t.Fatal(err)
			}
			off += 1000
		}
		f.Close(p)
		if got := c.Ops().Get("read"); got != 0 {
			t.Errorf("append-only writes issued %d reads", got)
		}
		got := readBack(t, p, c, "f.dat", 10000)
		for i := 0; i < 10; i++ {
			if got[i*1000] != byte('a'+i) {
				t.Fatalf("chunk %d corrupted", i)
			}
		}
	})
}

// TestWriteThroughCountsOneLookup: a fresh whole-block NFS write looks
// its block up once, a miss; the write-through that sends the block just
// written is no cache hit, so the hit ratio counts reads and writes once.
func TestWriteThroughCountsOneLookup(t *testing.T) {
	w := newWorld(1, false, 4, server.SNFSOptions{})
	c := w.addNFS("clientA", client.NFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		f, err := c.Open(p, "f.dat", vfs.WriteOnly|vfs.Create, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		before := c.Cache().Stats()
		if _, err := f.WriteAt(p, 0, fill(4096, 'h')); err != nil {
			t.Fatal(err)
		}
		after := c.Cache().Stats()
		if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 1 || hits != 0 {
			t.Errorf("one block write counted %d misses and %d hits, want 1 and 0", misses, hits)
		}
		f.Close(p)
	})
}

func TestCacheEvictionWritesBackDirtyBlocks(t *testing.T) {
	// A tiny cache forces dirty delayed-write blocks out; the data must
	// reach the server rather than vanish.
	w := newWorld(1, true, 4, server.SNFSOptions{})
	ep, cfg := w.clientConfig("clientA")
	cfg.CacheBytes = 8 * 4096 // eight blocks
	c := client.NewSNFS(w.k, ep, cfg, client.SNFSOptions{})
	want := fill(64*1024, 'e') // 16 blocks: must evict
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "big.dat", want)
		if c.Ops().Get("write") == 0 {
			t.Fatal("eviction never wrote back")
		}
		// Every byte must be recoverable: flush the rest and compare
		// at the server.
		c.SyncPass(p)
		st := w.media.Store()
		a, err := st.Lookup(st.Root(), "big.dat")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := st.ReadAt(a.Ino, 0, len(want))
		if !bytes.Equal(data, want) {
			t.Error("evicted data corrupted at server")
		}
	})
}

func TestNFSBiodsOverlapWrites(t *testing.T) {
	// Full-block writes return before the server write completes; the
	// close pays the wait.
	w := newWorld(1, false, 4, server.SNFSOptions{})
	c := w.addNFS("clientA", client.NFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		f, err := c.Open(p, "f.dat", vfs.WriteOnly|vfs.Create, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		if _, err := f.WriteAt(p, 0, fill(4096, 'b')); err != nil {
			t.Fatal(err)
		}
		writeReturned := p.Now().Sub(start)
		start = p.Now()
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		closeTook := p.Now().Sub(start)
		if writeReturned >= closeTook {
			t.Errorf("write blocked %v but close only %v; biod overlap missing", writeReturned, closeTook)
		}
	})
}

func TestSNFSReaddirListsEntries(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		c.Mkdir(p, "d", 0o755)
		for _, name := range []string{"x", "y", "z"} {
			writeThrough(t, p, c, "d/"+name, fill(10, name[0]))
		}
		ents, err := c.Readdir(p, "d")
		if err != nil || len(ents) != 3 {
			t.Fatalf("readdir: %v, %v", ents, err)
		}
		// Directory opens balance with closes at the server.
		for _, e := range w.snfs.Table().Snapshot() {
			if e.Handle == w.root && len(e.Clients) != 0 {
				t.Errorf("root has leftover opens after readdir: %+v", e.Clients)
			}
		}
	})
}

func TestConcurrentReadersShareInFlightFetch(t *testing.T) {
	// Two processes on one client reading the same cold block must
	// issue one read RPC, not two.
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		// Exactly one block (the test world uses 4 KB blocks).
		writeThrough(t, p, c, "f.dat", fill(4096, 's'))
		c.SyncPass(p)
		c.Cache().InvalidateAll()
		base := c.Ops().Get("read")
		var wg sim.WaitGroup
		wg.Add(2)
		for i := 0; i < 2; i++ {
			w.k.Go("reader", func(rp *sim.Proc) {
				defer wg.Done()
				readBack(t, rp, c, "f.dat", 4096)
			})
		}
		wg.Wait(p)
		if got := c.Ops().Get("read") - base; got != 1 {
			t.Errorf("%d read RPCs for one cold block read twice concurrently, want 1", got)
		}
	})
}
