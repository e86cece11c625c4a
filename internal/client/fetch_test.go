package client

import (
	"bytes"
	"testing"

	"spritelynfs/internal/disk"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/vfs"
)

// TestFailedFetchIsRetriedOnce: three readers want one uncached block.
// The first sends the READ; the server serves it, but every reply is cut
// until the call has timed out, so the fetch fails. The other two were
// waiting on it, and between them they must send one more READ, not one
// each: the first to run fetches and the second waits on that fetch in
// turn. The server serves two READs, and nothing is left registered as in
// flight.
func TestFailedFetchIsRetriedOnce(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{PropDelay: 500 * sim.Microsecond, BytesPerSec: 1_250_000})
	media := localfs.NewMedia(localfs.NewStore(k.Now, 4096), disk.New(k, "sd", disk.RA81()), 1, 3500*1024)
	srv := server.NewNFS(k, rpc.NewEndpoint(k, net, "server", rpc.Options{Workers: 4}), media, server.Config{FSID: 1})
	c := NewNFS(k, rpc.NewEndpoint(k, net, "client", rpc.Options{Workers: 4}),
		Config{Server: "server", Root: srv.RootHandle(), BlockSize: 4096}, NFSOptions{})

	var errs [3]error
	var reads int64
	k.Go("test-main", func(p *sim.Proc) {
		defer k.Stop()
		f, err := c.Open(p, "f", vfs.WriteOnly|vfs.Create, 0o644)
		if err == nil {
			_, err = f.WriteAt(p, 0, make([]byte, 4096))
		}
		if err == nil {
			err = f.Close(p)
		}
		h, _, err2 := c.walk(p, "f", true)
		if err != nil || err2 != nil {
			t.Fatalf("set-up: %v, %v", err, err2)
		}
		n := c.getNode(h)
		c.cache.InvalidateAll()
		before := srv.Ops().Get("read")

		// The default schedule retransmits at 1, 3, 7 and 15 s and gives
		// up at 31 s: replies are cut from the first to past the last.
		net.CutFor("server", "client", 20*sim.Second, 0)
		var wg sim.WaitGroup
		wg.Add(len(errs))
		for i := range errs {
			k.Go("reader", func(rp *sim.Proc) {
				defer wg.Done()
				_, errs[i] = c.fetchBlock(rp, n, 0)
			})
		}
		wg.Wait(p)
		reads = srv.Ops().Get("read") - before
		if len(c.fetching) != 0 {
			t.Errorf("%d fetches still registered after every reader returned", len(c.fetching))
		}
	})
	k.Run()

	if errs[0] == nil || errs[1] != nil || errs[2] != nil {
		t.Errorf("reader errors %v, want the first reader's READ to fail and the others to succeed", errs)
	}
	if reads != 2 {
		t.Errorf("server served %d READs, want 2: the failed one and one retry", reads)
	}
}

// TestFetchedBytesAreCopiedBeforeAPark: the bytes fetchBlock returns are
// lent (the cache's Data rule), so a read copies them before it parks.
// The READ of block 0 is on the wire when a local write makes the block
// resident, so the fetch drops its reply and returns the write's bytes, a
// buffer the cache owns. A second process waiting on the fetch then
// cancels the block, as a remove does, and writes another file, whose
// fresh block takes the cancelled buffer. The reader must hold the
// write's bytes: had it parked before its copy, it would hold the other
// file's, or under the frozencheck tag the scribbled 0xDB.
func TestFetchedBytesAreCopiedBeforeAPark(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{PropDelay: 500 * sim.Microsecond, BytesPerSec: 1_250_000})
	media := localfs.NewMedia(localfs.NewStore(k.Now, 4096), disk.New(k, "sd", disk.RA81()), 1, 3500*1024)
	srv := server.NewSNFS(k, rpc.NewEndpoint(k, net, "server", rpc.Options{Workers: 4}), media, server.Config{FSID: 1}, server.SNFSOptions{})
	c := NewSNFS(k, rpc.NewEndpoint(k, net, "client", rpc.Options{Workers: 4}),
		Config{Server: "server", Root: srv.RootHandle(), BlockSize: 4096, ReadAhead: true}, SNFSOptions{})
	st := media.Store()
	for _, name := range []string{"f", "g"} {
		attr, _ := st.Create(st.Root(), name, 0o644)
		st.WriteAt(attr.Ino, 0, bytes.Repeat([]byte{'s'}, 4096))
	}
	written, other := bytes.Repeat([]byte{'w'}, 4096), bytes.Repeat([]byte{'o'}, 4096)

	var got, fetched []byte
	k.Go("reader", func(p *sim.Proc) {
		defer k.Stop()
		f, err := c.Open(p, "f", vfs.ReadWrite, 0)
		if err != nil {
			t.Fatal(err)
		}
		g, err := c.Open(p, "g", vfs.ReadWrite, 0)
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := c.walk(p, "f", true)
		if err != nil {
			t.Fatal(err)
		}
		n := c.getNode(h)
		c.cache.InvalidateAll()
		k.Go("writer", func(wp *sim.Proc) {
			wp.Sleep(100 * sim.Microsecond) // the READ is on the wire
			if _, err := f.WriteAt(wp, 0, written); err != nil {
				t.Error(err)
				return
			}
			data, err := c.fetchBlock(wp, n, 0) // waits on the reader's fetch
			if err != nil {
				t.Error(err)
				return
			}
			fetched = bytes.Clone(data)
			c.cache.CancelDirty(c.cfg.Root.FSID, n.h.Ino)
			if _, err := g.WriteAt(wp, 0, other); err != nil {
				t.Error(err)
			}
		})
		if got, err = f.ReadAt(p, 0, 4096); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Second)
	})
	k.Run()

	if !bytes.Equal(fetched, written) {
		t.Fatalf("the waiting fetch returned %q…, not the covering write's bytes: the race did not happen", fetched[:min(len(fetched), 8)])
	}
	if !bytes.Equal(got, written) {
		t.Errorf("the reader holds %q…, want the covering write's bytes", got[:min(len(got), 8)])
	}
}
