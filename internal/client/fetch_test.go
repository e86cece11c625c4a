package client

import (
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
				_, errs[i] = c.fetchBlock(rp, n, 0, false)
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
