package client_test

import (
	"bytes"
	"fmt"
	"testing"

	"spritelynfs/internal/cache"
	"spritelynfs/internal/client"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/xdr"
)

// world wires a server host and any number of client hosts to a simulated
// network, mirroring the paper's testbed of identical Titans on an
// Ethernet.
type world struct {
	k     *sim.Kernel
	net   *simnet.Network
	media *localfs.Media
	srvEP *rpc.Endpoint // the server's, whichever protocol it runs
	nfs   *server.NFSServer
	snfs  *server.SNFSServer
	root  proto.Handle
}

func netConfig() simnet.Config {
	// 10 Mbit/s Ethernet, ~0.5 ms protocol latency.
	return simnet.Config{PropDelay: 500 * sim.Microsecond, BytesPerSec: 1_250_000}
}

func newWorld(seed int64, useSNFS bool, workers int, snfsOpts server.SNFSOptions) *world {
	k := sim.NewKernel(seed)
	net := simnet.New(k, netConfig())
	ep := rpc.NewEndpoint(k, net, "server", rpc.Options{Workers: workers})
	st := localfs.NewStore(k.Now, 4096)
	d := disk.New(k, "sd", disk.RA81())
	media := localfs.NewMedia(st, d, 1, 3500*1024)
	w := &world{k: k, net: net, media: media, srvEP: ep}
	if useSNFS {
		w.snfs = server.NewSNFS(k, ep, media, server.Config{FSID: 1}, snfsOpts)
		w.root = w.snfs.RootHandle()
	} else {
		w.nfs = server.NewNFS(k, ep, media, server.Config{FSID: 1})
		w.root = w.nfs.RootHandle()
	}
	return w
}

func (w *world) clientConfig(name simnet.Addr) (*rpc.Endpoint, client.Config) {
	ep := rpc.NewEndpoint(w.k, w.net, name, rpc.Options{Workers: 4})
	return ep, client.Config{
		Server:    "server",
		Root:      w.root,
		BlockSize: 4096,
		ReadAhead: true,
	}
}

func (w *world) addNFS(name simnet.Addr, opts client.NFSOptions) *client.NFSClient {
	ep, cfg := w.clientConfig(name)
	return client.NewNFS(w.k, ep, cfg, opts)
}

func (w *world) addSNFS(name simnet.Addr, opts client.SNFSOptions) *client.SNFSClient {
	ep, cfg := w.clientConfig(name)
	return client.NewSNFS(w.k, ep, cfg, opts)
}

// run executes fn as the test's main simulation process and then stops
// the world.
func run(t *testing.T, k *sim.Kernel, fn func(p *sim.Proc)) {
	t.Helper()
	k.Go("test-main", func(p *sim.Proc) {
		defer k.Stop()
		fn(p)
	})
	k.Run()
}

// fill produces recognizable file content.
func fill(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i%31)
	}
	return b
}

func writeThrough(t *testing.T, p *sim.Proc, fs vfs.FS, path string, data []byte) {
	t.Helper()
	f, err := fs.Open(p, path, vfs.WriteOnly|vfs.Create|vfs.Truncate, 0o644)
	if err != nil {
		t.Errorf("create %s: %v", path, err)
		return
	}
	if _, err := f.WriteAt(p, 0, data); err != nil {
		t.Errorf("write %s: %v", path, err)
	}
	if err := f.Close(p); err != nil {
		t.Errorf("close %s: %v", path, err)
	}
}

func readBack(t *testing.T, p *sim.Proc, fs vfs.FS, path string, n int) []byte {
	t.Helper()
	f, err := fs.Open(p, path, vfs.ReadOnly, 0)
	if err != nil {
		t.Errorf("open %s: %v", path, err)
		return nil
	}
	data, err := f.ReadAt(p, 0, n)
	if err != nil {
		t.Errorf("read %s: %v", path, err)
	}
	if err := f.Close(p); err != nil {
		t.Errorf("close %s: %v", path, err)
	}
	return data
}

// ---- NFS client behaviour ----

func TestNFSRoundTrip(t *testing.T) {
	w := newWorld(1, false, 4, server.SNFSOptions{})
	c := w.addNFS("clientA", client.NFSOptions{})
	want := fill(10000, 'a')
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "f.dat", want)
		got := readBack(t, p, c, "f.dat", 20000)
		if !bytes.Equal(got, want) {
			t.Errorf("read back %d bytes, want %d; mismatch", len(got), len(want))
		}
	})
}

func TestNFSWriteReachesServerByClose(t *testing.T) {
	w := newWorld(1, false, 4, server.SNFSOptions{})
	c := w.addNFS("clientA", client.NFSOptions{})
	want := fill(9000, 'b')
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "f.dat", want)
		// Inspect the server store directly: NFS close must have
		// flushed everything through.
		st := w.media.Store()
		a, err := st.Lookup(st.Root(), "f.dat")
		if err != nil {
			t.Fatalf("server lookup: %v", err)
		}
		data, _ := st.ReadAt(a.Ino, 0, 20000)
		if !bytes.Equal(data, want) {
			t.Errorf("server copy differs after close (%d vs %d bytes)", len(data), len(want))
		}
	})
}

func TestNFSSequentialSharingViaOpenCheck(t *testing.T) {
	// Writer closes before reader opens: NFS provides consistency in
	// this case through the open-time getattr (§2.3).
	w := newWorld(1, false, 4, server.SNFSOptions{})
	a := w.addNFS("clientA", client.NFSOptions{})
	b := w.addNFS("clientB", client.NFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", fill(4096, 'x'))
		got := readBack(t, p, b, "f.dat", 4096)
		if !bytes.Equal(got, fill(4096, 'x')) {
			t.Fatal("B read wrong initial data")
		}
		p.Sleep(sim.Second)
		writeThrough(t, p, a, "f.dat", fill(4096, 'y'))
		got = readBack(t, p, b, "f.dat", 4096)
		if !bytes.Equal(got, fill(4096, 'y')) {
			t.Error("B missed A's update despite close-before-open (sequential write sharing broken)")
		}
	})
}

func TestNFSStalenessWindow(t *testing.T) {
	// The flaw the paper fixes: a reader holding a file open sees stale
	// cached data until the next attribute probe.
	w := newWorld(1, false, 4, server.SNFSOptions{})
	a := w.addNFS("clientA", client.NFSOptions{})
	b := w.addNFS("clientB", client.NFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", fill(4096, 'x'))
		fb, err := b.Open(p, "f.dat", vfs.ReadOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		first, _ := fb.ReadAt(p, 0, 4096)
		if !bytes.Equal(first, fill(4096, 'x')) {
			t.Fatal("initial read wrong")
		}
		// A overwrites while B still has the file open.
		writeThrough(t, p, a, "f.dat", fill(4096, 'z'))
		// Immediately after, B re-reads: cached (stale) data, because
		// the probe interval has not expired.
		stale, _ := fb.ReadAt(p, 0, 4096)
		if !bytes.Equal(stale, first) {
			t.Error("expected stale read inside the probe window (NFS has no true consistency)")
		}
		// After the probe interval, B's next read revalidates.
		p.Sleep(200 * sim.Second)
		fresh, _ := fb.ReadAt(p, 0, 4096)
		if !bytes.Equal(fresh, fill(4096, 'z')) {
			t.Error("B never converged to A's data after the probe interval")
		}
		fb.Close(p)
	})
}

func TestNFSInvalidateOnCloseBugCostsReads(t *testing.T) {
	// The measured reference port invalidated the cache on close; a
	// write-close-reopen-read sequence re-reads everything (§5.2).
	for _, bug := range []bool{false, true} {
		w := newWorld(1, false, 4, server.SNFSOptions{})
		c := w.addNFS("clientA", client.NFSOptions{InvalidateOnClose: bug})
		var readsWithBug int64
		run(t, w.k, func(p *sim.Proc) {
			writeThrough(t, p, c, "f.dat", fill(40960, 'q'))
			readBack(t, p, c, "f.dat", 40960)
			readsWithBug = c.Ops().Get("read")
		})
		if bug && readsWithBug == 0 {
			t.Error("bug enabled but no re-read traffic")
		}
		if !bug && readsWithBug != 0 {
			t.Errorf("bug disabled but %d read RPCs issued (cache should have served)", readsWithBug)
		}
	}
}

func TestNFSPartialBlockWriteDelayed(t *testing.T) {
	// Writes not extending to the end of a block are delayed (footnote
	// 4); the close flushes them.
	w := newWorld(1, false, 4, server.SNFSOptions{})
	c := w.addNFS("clientA", client.NFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		f, err := c.Open(p, "f.dat", vfs.WriteOnly|vfs.Create, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt(p, 0, fill(100, 'p')) // partial block
		if got := c.Ops().Get("write"); got != 0 {
			t.Errorf("partial-block write went through immediately (%d write RPCs)", got)
		}
		f.Close(p)
		if got := c.Ops().Get("write"); got != 1 {
			t.Errorf("close flushed %d write RPCs, want 1", got)
		}
	})
}

// ---- SNFS client behaviour ----

func TestSNFSRoundTripAndDelayedWrite(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{})
	want := fill(10000, 'c')
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "f.dat", want)
		// Delayed write-back: nothing at the server yet.
		if got := c.Ops().Get("write"); got != 0 {
			t.Errorf("%d write RPCs before any sync; delayed write-back broken", got)
		}
		// The client itself reads its own cache correctly.
		got := readBack(t, p, c, "f.dat", 20000)
		if !bytes.Equal(got, want) {
			t.Error("self read-back mismatch")
		}
		if reads := c.Ops().Get("read"); reads != 0 {
			t.Errorf("%d read RPCs for self-cached data", reads)
		}
		// An explicit sync pass pushes the blocks.
		c.SyncPass(p)
		if got := c.Ops().Get("write"); got == 0 {
			t.Error("sync pass wrote nothing")
		}
		st := w.media.Store()
		a, err := st.Lookup(st.Root(), "f.dat")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := st.ReadAt(a.Ino, 0, 20000)
		if !bytes.Equal(data, want) {
			t.Error("server copy wrong after sync")
		}
	})
}

func TestSNFSCacheSurvivesClose(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "f.dat", fill(40960, 'd'))
		c.SyncPass(p)
		base := c.Ops().Get("read")
		readBack(t, p, c, "f.dat", 40960)
		if got := c.Ops().Get("read") - base; got != 0 {
			t.Errorf("reopen after close issued %d read RPCs; cache should survive close", got)
		}
	})
}

func TestSNFSDeleteBeforeWriteback(t *testing.T) {
	// The temp-file optimization: create, write, close, delete — zero
	// data ever crosses the network (§4.2.3, Table 5-6).
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "tmp1", fill(100000, 't'))
		if err := c.Remove(p, "tmp1"); err != nil {
			t.Fatal(err)
		}
		c.SyncPass(p)
		if got := c.Ops().Get("write"); got != 0 {
			t.Errorf("%d write RPCs for a deleted temp file, want 0", got)
		}
	})
}

func TestSNFSSequentialSharingViaCallback(t *testing.T) {
	// A writes and closes (dirty blocks stay at A); B opens to read.
	// The server must call A back for the dirty blocks before B's open
	// completes, and B must see A's data.
	w := newWorld(1, true, 4, server.SNFSOptions{})
	a := w.addSNFS("clientA", client.SNFSOptions{})
	b := w.addSNFS("clientB", client.SNFSOptions{})
	want := fill(20000, 'e')
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", want)
		if a.Ops().Get("write") != 0 {
			t.Fatal("precondition: A should still hold dirty blocks")
		}
		got := readBack(t, p, b, "f.dat", 40000)
		if !bytes.Equal(got, want) {
			t.Errorf("B read %d bytes, mismatch: callback write-back failed", len(got))
		}
		if a.Ops().Get("write") == 0 {
			t.Error("A never wrote back despite the callback")
		}
		if a.CallbacksServed == 0 {
			t.Error("A served no callbacks")
		}
	})
}

// TestStatMatchesFstat: a stat of a file this client holds dirty reports
// the length its writes reached, as fstat (File.Attr) does, open or
// closed, though the LOOKUP that resolved the path returned the server's
// shorter one. Once another client has truncated the file, and nothing of
// it is dirty here, stat reports the server's length again.
func TestStatMatchesFstat(t *testing.T) {
	for _, useSNFS := range []bool{false, true} {
		w := newWorld(1, useSNFS, 4, server.SNFSOptions{})
		var a, b vfs.FS
		if useSNFS {
			a, b = w.addSNFS("clientA", client.SNFSOptions{}), w.addSNFS("clientB", client.SNFSOptions{})
		} else {
			a, b = w.addNFS("clientA", client.NFSOptions{}), w.addNFS("clientB", client.NFSOptions{})
		}
		name := map[bool]string{false: "NFS", true: "SNFS"}[useSNFS]
		run(t, w.k, func(p *sim.Proc) {
			f, err := a.Open(p, "f.dat", vfs.WriteOnly|vfs.Create, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(p, 0, fill(5000, 'g')); err != nil {
				t.Fatal(err)
			}
			fa, err := f.Attr(p)
			if err != nil {
				t.Fatal(err)
			}
			sa, err := a.Stat(p, "f.dat")
			if err != nil || sa.Size != fa.Size || fa.Size != 5000 {
				t.Errorf("%s: open with 5000 bytes written, stat says %d (%v), fstat %d", name, sa.Size, err, fa.Size)
			}
			if err := f.Close(p); err != nil {
				t.Fatal(err)
			}
			if sa, err := a.Stat(p, "f.dat"); err != nil || sa.Size != 5000 {
				t.Errorf("%s: closed, stat says %d (%v), want 5000", name, sa.Size, err)
			}
			g, err := b.Open(p, "f.dat", vfs.WriteOnly|vfs.Truncate, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Close(p); err != nil {
				t.Fatal(err)
			}
			if sa, err := a.Stat(p, "f.dat"); err != nil || sa.Size != 0 {
				t.Errorf("%s: truncated by another client, stat says %d (%v), want 0", name, sa.Size, err)
			}
		})
	}
}

func TestSNFSConcurrentWriteSharingIsConsistent(t *testing.T) {
	// The paper's headline guarantee: reader and writer concurrently
	// open, caching disabled for both, every read sees the latest
	// write.
	w := newWorld(1, true, 4, server.SNFSOptions{})
	a := w.addSNFS("clientA", client.SNFSOptions{})
	b := w.addSNFS("clientB", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "shared", fill(4096, '0'))
		fa, err := a.Open(p, "shared", vfs.ReadOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := b.Open(p, "shared", vfs.ReadWrite, 0)
		if err != nil {
			t.Fatal(err)
		}
		for round := byte(1); round <= 3; round++ {
			want := fill(4096, '0'+round)
			if _, err := fb.WriteAt(p, 0, want); err != nil {
				t.Fatal(err)
			}
			got, err := fa.ReadAt(p, 0, 4096)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: reader saw stale data while write-shared", round)
			}
		}
		fa.Close(p)
		fb.Close(p)
	})
}

// tapCalls routes a client's calls through the address "tap", which hands
// each call of procedure proc to seen — its message, head and tail, and a
// decoder positioned at its arguments — and forwards the whole message to
// the server; replies return to the client directly.
func (w *world) tapCalls(proc uint32, seen func(m simnet.Message, args xdr.Codec)) {
	w.net.Listen("tap").SetHandler(func(m simnet.Message) {
		var d xdr.Decoder
		d.ResetTail(m.Payload, m.Tail)
		for i := 0; i < 4; i++ {
			d.Uint32() // xid, call, prog, vers
		}
		if d.Uint32() == proc {
			d.Uint64() // op
			seen(m, d.Codec())
		}
		w.net.SendTail(m.From, "server", m.Payload, m.Tail)
	})
}

// joined returns a copy of m's whole image, head‖tail‖pad.
func joined(m simnet.Message) []byte {
	return xdr.Join(bytes.Clone(m.Payload), m.Tail)
}

// replayRead takes over the address from and retransmits its captured
// READ call, returning the data of the reply the server's duplicate cache
// answers with.
func (w *world) replayRead(t *testing.T, p *sim.Proc, from simnet.Addr, readCall []byte) []byte {
	t.Helper()
	var replay simnet.Message
	hits := w.srvEP.Stats().DupHits
	w.net.Unlisten(from)
	w.net.Listen(from).SetHandler(func(m simnet.Message) { replay = m })
	w.net.Send(from, "server", readCall)
	p.Sleep(sim.Second)
	if replay.Payload == nil {
		t.Fatal("no replayed reply")
	}
	if hits := w.srvEP.Stats().DupHits - hits; hits != 1 {
		t.Errorf("DupHits rose by %d, want 1: the retransmission was not answered from the duplicate cache", hits)
	}
	var d xdr.Decoder
	d.ResetTail(replay.Payload, replay.Tail)
	d.Uint32() // xid
	d.Uint32() // reply
	d.Uint32() // status
	var r proto.ReadReply
	if r.XDR(d.Codec()); d.Err() != nil {
		t.Fatalf("replayed READ reply: %v", d.Err())
	}
	return r.Data
}

// TestSNFSUncachableReadOwnsItsBytes covers the one place a decoded view
// of a delivered payload reaches code that may write to it. A write-shared
// read bypasses the block cache and hands the application the READ
// reply's data; that reply image is frozen — the server's duplicate cache
// resends the very buffer — so ReadInto copies it into the application's
// buffer. Scribble over that buffer, retransmit the READ by hand, and the
// replay must still carry the file's bytes.
func TestSNFSUncachableReadOwnsItsBytes(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	var readCall []byte
	w.tapCalls(proto.ProcRead, func(m simnet.Message, _ xdr.Codec) { readCall = m.Payload })
	ep, cfg := w.clientConfig("clientA")
	cfg.Server = "tap"
	a := client.NewSNFS(w.k, ep, cfg, client.SNFSOptions{})
	b := w.addSNFS("clientB", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		want := fill(4096, 'r')
		writeThrough(t, p, b, "shared", want)
		fa, err := a.Open(p, "shared", vfs.ReadOnly, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := b.Open(p, "shared", vfs.ReadWrite, 0); err != nil { // write-shared now
			t.Error(err)
			return
		}
		got := make([]byte, 4096)
		n, err := fa.ReadInto(p, got, 0)
		if err != nil || !bytes.Equal(got[:n], want) || readCall == nil {
			t.Errorf("write-shared read: err=%v, %d bytes, READ seen on the wire: %v", err, n, readCall != nil)
			return
		}
		for i := range got {
			got[i] = 0xff
		}
		if !bytes.Equal(w.replayRead(t, p, "clientA", readCall), want) {
			t.Error("replayed READ reply corrupted by the application writing into its read result")
		}
	})
}

// TestSNFSCachedBlockIsCopiedOnWrite covers the client half of the
// copy-on-write rule: a whole block a READ fetched is cached as a view of
// the reply image, which the server's duplicate cache resends. Write into
// the cached block (an SNFS delayed write), replay the READ by hand, and
// the replay must still carry the file's bytes, while the client reads
// back its own write.
func TestSNFSCachedBlockIsCopiedOnWrite(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	var readCall []byte
	w.tapCalls(proto.ProcRead, func(m simnet.Message, _ xdr.Codec) { readCall = m.Payload })
	ep, cfg := w.clientConfig("clientA")
	cfg.Server = "tap"
	a := client.NewSNFS(w.k, ep, cfg, client.SNFSOptions{})
	b := w.addSNFS("clientB", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		want := fill(4096, 'r')
		writeThrough(t, p, b, "f", want) // A's open calls the dirty block back
		fa, err := a.Open(p, "f", vfs.ReadWrite, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := fa.ReadAt(p, 0, 4096); err != nil || !bytes.Equal(got, want) || readCall == nil {
			t.Fatalf("read: err=%v, %d bytes, READ seen on the wire: %v", err, len(got), readCall != nil)
		}
		mine := fill(100, 'm')
		if _, err := fa.WriteAt(p, 0, mine); err != nil || a.Ops().Get("write") != 0 {
			t.Fatalf("delayed write into the cached block: err=%v, %d write RPCs", err, a.Ops().Get("write"))
		}
		if !bytes.Equal(w.replayRead(t, p, "clientA", readCall), want) {
			t.Error("replayed READ reply corrupted by a write into the cached block")
		}
		got, err := fa.ReadAt(p, 0, 4096)
		if err != nil || !bytes.Equal(got, append(mine, want[len(mine):]...)) {
			t.Errorf("the client does not read back its own write (err %v)", err)
		}
	})
}

// TestNFSBiodSendsTheBlockItWasHanded: a write-through hands a whole block
// to a biod without copying it, and the block is frozen; a second write
// to the block before the biod runs copies it first. The server receives
// the first version, then the second.
func TestNFSBiodSendsTheBlockItWasHanded(t *testing.T) {
	w := newWorld(1, false, 4, server.SNFSOptions{})
	var sent [][]byte
	w.tapCalls(proto.ProcWrite, func(_ simnet.Message, c xdr.Codec) {
		var a proto.WriteArgs
		a.XDR(c)
		sent = append(sent, a.Data)
	})
	ep, cfg := w.clientConfig("clientA")
	cfg.Server = "tap"
	c := client.NewNFS(w.k, ep, cfg, client.NFSOptions{})
	first, second := fill(4096, 'a'), fill(4096, 'b')
	run(t, w.k, func(p *sim.Proc) {
		f, err := c.Open(p, "f", vfs.WriteOnly|vfs.Create, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		// Neither write yields, so the first biod has not run when the
		// second write lands in the block it was handed.
		f.WriteAt(p, 0, first)
		f.WriteAt(p, 0, second)
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		if len(sent) != 2 || !bytes.Equal(sent[0], first) || !bytes.Equal(sent[1], second) {
			t.Errorf("the server received %d WRITEs, want the first version and then the second", len(sent))
		}
		st := w.media.Store()
		a, _ := st.Lookup(st.Root(), "f")
		if data, _ := st.ReadAt(a.Ino, 0, 4096); !bytes.Equal(data, second) {
			t.Error("the server's file does not hold the second version")
		}
	})
}

// TestServerKeepsWholePageWriteAsItsPage: the server keeps an aligned
// 8 KiB WRITE's data as its file's page, a view of the frozen call image,
// with no copy. A second client's partial WRITE into that page copies it
// first: the first call's wire image, which the network and the sender's
// retransmissions hold, does not change, and the file reads back both
// writes.
func TestServerKeepsWholePageWriteAsItsPage(t *testing.T) {
	w := newWorld(1, false, 4, server.SNFSOptions{})
	var wire simnet.Message
	var image, sent []byte
	w.tapCalls(proto.ProcWrite, func(m simnet.Message, c xdr.Codec) {
		if wire.Payload == nil {
			var a proto.WriteArgs
			a.XDR(c)
			wire, image, sent = m, joined(m), a.Data
		}
	})
	ep, cfg := w.clientConfig("clientA")
	cfg.Server, cfg.BlockSize = "tap", 8192
	a := client.NewNFS(w.k, ep, cfg, client.NFSOptions{})
	b := w.addNFS("clientB", client.NFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		whole := fill(8192, 'a')
		writeThrough(t, p, a, "f", whole)
		st := w.media.Store()
		attr, _ := st.Lookup(st.Root(), "f")
		if page, _ := st.ReadAt(attr.Ino, 0, 8192); len(sent) != 8192 || len(page) != 8192 || &page[0] != &sent[0] {
			t.Fatal("the server did not keep the whole-page WRITE's call image as its page")
		}
		fb, err := b.Open(p, "f", vfs.WriteOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		patch := fill(100, 'b')
		if _, err := fb.WriteAt(p, 10, patch); err != nil {
			t.Fatal(err)
		}
		if err := fb.Close(p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(joined(wire), image) {
			t.Error("a partial WRITE into the kept page wrote through the first call's wire image")
		}
		want := append(append(whole[:10:10], patch...), whole[110:]...)
		if data, _ := st.ReadAt(attr.Ino, 0, 8192); !bytes.Equal(data, want) {
			t.Error("the file does not read back both writes")
		}
	})
}

// TestReadPageIsTheClientsCachedBlock: a READ reply carries the server's
// page itself, as its image's tail, and the client caches it, so client A's
// cache block and the server's file share one page — a whole page, and a
// short file's last page, which the block holds as it is, 3 KiB long. The
// store froze the page when the READ read it: client B's unaligned WRITE
// into the block copies the page, A's block keeps the bytes of the read
// instant, and the file reads B's.
func TestReadPageIsTheClientsCachedBlock(t *testing.T) {
	for _, size := range []int{8192, 3072} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			w := newWorld(1, false, 4, server.SNFSOptions{})
			ep, cfg := w.clientConfig("clientA")
			cfg.BlockSize = 8192
			a := client.NewNFS(w.k, ep, cfg, client.NFSOptions{})
			b := w.addNFS("clientB", client.NFSOptions{})
			run(t, w.k, func(p *sim.Proc) {
				whole := fill(size, 'a')
				writeThrough(t, p, b, "f", whole)
				fa, err := a.Open(p, "f", vfs.ReadOnly, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := fa.ReadAt(p, 0, 8192); err != nil || !bytes.Equal(got, whole) {
					t.Fatalf("A's read: %d bytes, %v", len(got), err)
				}
				st := w.media.Store()
				attr, _ := st.Lookup(st.Root(), "f")
				cb, ok := a.Cache().Lookup(cache.Key{FS: cfg.Root.FSID, Ino: attr.Ino})
				if page, _ := st.ReadAt(attr.Ino, 0, 8192); !ok || len(cb.Data) != size || &cb.Data[0] != &page[0] {
					t.Fatal("A's cache block is not the server's page")
				}
				fb, err := b.Open(p, "f", vfs.WriteOnly, 0)
				if err != nil {
					t.Fatal(err)
				}
				patch := fill(100, 'b')
				if _, err := fb.WriteAt(p, 10, patch); err != nil {
					t.Fatal(err)
				}
				if err := fb.Close(p); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cb.Data, whole) {
					t.Error("B's WRITE changed A's cached block: the server wrote into the page A holds")
				}
				want := append(append(whole[:10:10], patch...), whole[110:]...)
				if data, _ := st.ReadAt(attr.Ino, 0, 8192); !bytes.Equal(data, want) {
					t.Error("the server's file does not read B's WRITE")
				}
			})
		})
	}
}

// TestShortBlockIsTheServersPageUntilWritten: a short file's block, read
// cold, is the server's short page as it is. A sparse write into a later
// block leaves the gap reading as zeros, past the short block's end and
// through the block between; a write into the short block copies it into a
// whole block of the client's own, and the server's page keeps its bytes.
func TestShortBlockIsTheServersPageUntilWritten(t *testing.T) {
	w := newWorld(1, false, 4, server.SNFSOptions{})
	c := w.addNFS("clientA", client.NFSOptions{})
	st := w.media.Store()
	attr, _ := st.Create(st.Root(), "f", 0o644)
	old := fill(3000, 'o')
	st.WriteFrozen(attr.Ino, 0, old)
	run(t, w.k, func(p *sim.Proc) {
		f, err := c.Open(p, "f", vfs.ReadWrite, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := f.ReadAt(p, 0, 4096); err != nil || !bytes.Equal(got, old) {
			t.Fatalf("read %d bytes (%v), want the file's 3000", len(got), err)
		}
		key := cache.Key{FS: w.root.FSID, Ino: attr.Ino}
		cb, ok := c.Cache().Lookup(key)
		if !ok || len(cb.Data) != len(old) || &cb.Data[0] != &old[0] || !cb.Frozen {
			t.Fatal("the cached block is not the server's short page")
		}
		tail := fill(100, 't')
		if _, err := f.WriteAt(p, 10000, tail); err != nil {
			t.Fatal(err)
		}
		want := append(append(bytes.Clone(old), make([]byte, 10000-len(old))...), tail...)
		got := bytes.Repeat([]byte{0xff}, 20000) // zeros are the cache's to write
		if n, err := f.ReadInto(p, got, 0); err != nil || !bytes.Equal(got[:n], want) {
			t.Fatalf("read %d bytes (%v): the gap does not read as zeros", n, err)
		}
		patch := fill(10, 'p')
		if _, err := f.WriteAt(p, 100, patch); err != nil {
			t.Fatal(err)
		}
		copy(want[100:], patch)
		if cb, _ = c.Cache().Lookup(key); len(cb.Data) != 4096 || &cb.Data[0] == &old[0] || cb.Frozen {
			t.Error("a write into the short block did not copy it into a whole block")
		}
		if !bytes.Equal(old, fill(3000, 'o')) {
			t.Error("a write into the short block wrote through the server's page")
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		if got, _ := st.ReadAt(attr.Ino, 0, 20000); !bytes.Equal(got, want) {
			t.Error("the server's file does not read both writes after close")
		}
	})
}

// TestWritePageIsTheClientsCachedBlock: an aligned 8 KiB block goes from
// client A's cache to the server's file with no copy — the WRITE's data is
// its call image's tail, and the store keeps it as the page — whether a
// biod sends it or A sends it itself (writeBlock, with the one biod
// busy). Either way the send froze the block: A's next write into it
// copies it first, so the server's page keeps the sent bytes until the
// next write-back, and client B's WRITE into the page copies the page, so
// A's cached block keeps its bytes. A short last block whose length is
// not a multiple of 4, 5,001 bytes, goes the same way, its XDR pad
// carried apart: the server's page is A's block, and a read miss caches
// that page itself.
func TestWritePageIsTheClientsCachedBlock(t *testing.T) {
	w := newWorld(1, false, 4, server.SNFSOptions{})
	ep, cfg := w.clientConfig("clientA")
	cfg.BlockSize, cfg.Biods = 8192, 1
	a := client.NewNFS(w.k, ep, cfg, client.NFSOptions{})
	b := w.addNFS("clientB", client.NFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		fa, err := a.Open(p, "f", vfs.WriteOnly|vfs.Create, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		st := w.media.Store()
		attr, _ := st.Lookup(st.Root(), "f")
		block := func(i int) *cache.Block {
			cb, ok := a.Cache().Lookup(cache.Key{FS: cfg.Root.FSID, Ino: attr.Ino, Block: int64(i)})
			if !ok {
				t.Fatalf("block %d is not cached", i)
			}
			return cb
		}
		page := func(i int) []byte {
			data, _ := st.ReadAt(attr.Ino, int64(i)*8192, 8192)
			return data
		}
		write := func(i int, data []byte) {
			if _, err := fa.WriteAt(p, int64(i)*8192, data); err != nil {
				t.Fatal(err)
			}
		}
		sync := func() {
			if err := fa.Sync(p); err != nil {
				t.Fatal(err)
			}
		}
		// Block 0 goes to the biod; block 1 finds it busy and A sends it
		// itself.
		sent := [][]byte{fill(8192, 'a'), fill(8192, 'b')}
		write(0, sent[0])
		write(1, sent[1])
		sync()
		for i, how := range []string{"the biod", "writeBlock"} {
			if pg, cb := page(i), block(i); len(pg) != 8192 || &pg[0] != &cb.Data[0] || !cb.Frozen {
				t.Errorf("block %d, sent by %s: the server's page is not A's frozen cached block", i, how)
			}
		}
		// A writes each block again: its biod has not run when the write
		// returns, and the page still holds what was sent.
		again := [][]byte{fill(8192, 'c'), fill(8192, 'd')}
		for i := range again {
			write(i, again[i])
			if !bytes.Equal(page(i), sent[i]) {
				t.Errorf("block %d: A's write changed the server's page before its write-back", i)
			}
			sync()
			if pg, cb := page(i), block(i); !bytes.Equal(pg, again[i]) || &pg[0] != &cb.Data[0] {
				t.Errorf("block %d: after the write-back the page is not A's new block", i)
			}
		}
		if err := fa.Close(p); err != nil {
			t.Fatal(err)
		}
		// B writes into both pages, which the server copies first.
		fb, err := b.Open(p, "f", vfs.WriteOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		patch := fill(100, 'e')
		for i := range again {
			if _, err := fb.WriteAt(p, int64(i)*8192+10, patch); err != nil {
				t.Fatal(err)
			}
		}
		if err := fb.Close(p); err != nil {
			t.Fatal(err)
		}
		for i := range again {
			if !bytes.Equal(block(i).Data, again[i]) {
				t.Errorf("block %d: B's WRITE changed A's cached block", i)
			}
			want := append(append(again[i][:10:10], patch...), again[i][110:]...)
			if !bytes.Equal(page(i), want) {
				t.Errorf("block %d: the server's file does not read B's WRITE", i)
			}
		}

		short := fill(5001, 's')
		fs, err := a.Open(p, "short", vfs.ReadWrite|vfs.Create, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(p, 0, short); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		sattr, _ := st.Lookup(st.Root(), "short")
		key := cache.Key{FS: cfg.Root.FSID, Ino: sattr.Ino}
		pg, _ := st.ReadAt(sattr.Ino, 0, 8192)
		if cb, ok := a.Cache().Lookup(key); !ok || len(pg) != len(short) || &pg[0] != &cb.Data[0] || !cb.Frozen {
			t.Error("the server's page of the 5,001-byte file is not A's frozen cached block")
		}
		a.Cache().InvalidateAll()
		got := make([]byte, 8192)
		if n, err := fs.ReadInto(p, got, 0); err != nil || !bytes.Equal(got[:n], short) {
			t.Fatalf("read back %d bytes (%v), want the file's 5,001", n, err)
		}
		if cb, ok := a.Cache().Lookup(key); !ok || len(cb.Data) != len(short) || &cb.Data[0] != &pg[0] {
			t.Error("a read miss of the 5,001-byte file did not cache the server's page itself")
		}
		if err := fs.Close(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSNFSVersionInvalidatesStaleCache(t *testing.T) {
	// A caches the file; B rewrites it (open-for-write bumps the
	// version); A's reopen sees a version mismatch and refetches.
	w := newWorld(1, true, 4, server.SNFSOptions{})
	a := w.addSNFS("clientA", client.SNFSOptions{})
	b := w.addSNFS("clientB", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", fill(8192, 'v'))
		readBack(t, p, a, "f.dat", 8192) // warm A's cache
		writeThrough(t, p, b, "f.dat", fill(8192, 'w'))
		got := readBack(t, p, a, "f.dat", 8192)
		if !bytes.Equal(got, fill(8192, 'w')) {
			t.Error("A served stale cache despite version bump")
		}
	})
}

func TestSNFSSameClientReopenForWriteKeepsCache(t *testing.T) {
	// The prev-version rule (§3.1): the writer's own reopen-for-write
	// must not invalidate its cache.
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "f.dat", fill(40960, 'k'))
		base := c.Ops().Get("read")
		f, err := c.Open(p, "f.dat", vfs.ReadWrite, 0)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := f.ReadAt(p, 0, 40960)
		if !bytes.Equal(data, fill(40960, 'k')) {
			t.Error("content wrong")
		}
		f.Close(p)
		if got := c.Ops().Get("read") - base; got != 0 {
			t.Errorf("reopen-for-write refetched %d blocks; prev-version rule broken", got)
		}
	})
}

func TestSNFSUpdateDaemonFlushesEvery30s(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{UpdateInterval: 30 * sim.Second})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "f.dat", fill(8192, 'u'))
		if c.Ops().Get("write") != 0 {
			t.Fatal("wrote early")
		}
		p.Sleep(31 * sim.Second)
		if c.Ops().Get("write") == 0 {
			t.Error("update daemon never flushed")
		}
	})
}

func TestSNFSInfiniteWriteDelay(t *testing.T) {
	// UpdateInterval zero = the /etc/update-disabled configuration of
	// Table 5-5: shortlived data never touches the network.
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{UpdateInterval: 0})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "f.dat", fill(8192, 'i'))
		p.Sleep(5 * sim.Minute)
		if got := c.Ops().Get("write"); got != 0 {
			t.Errorf("%d writes with update disabled", got)
		}
	})
}

func TestSNFSDeadClientWarnsNextOpener(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	a := w.addSNFS("clientA", client.SNFSOptions{})
	b := w.addSNFS("clientB", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", fill(4096, 'x'))
		// A crashes holding dirty blocks.
		a.Endpoint().Stop()
		got := readBack(t, p, b, "f.dat", 4096)
		// The file opens (possibly with stale/empty content — the
		// data was never written back).
		_ = got
		if b.Inconsistencies != 1 {
			t.Errorf("B recorded %d inconsistency warnings, want 1", b.Inconsistencies)
		}
	})
}

func TestSNFSDelayedCloseSavesRPCs(t *testing.T) {
	// §6.2: the popular-header pattern — repeated open/read/close of
	// the same file — costs one open RPC total instead of one per open.
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{DelayedClose: true})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "hdr.h", fill(4096, 'h'))
		c.SyncPass(p)
		opensBefore := c.Ops().Get("open")
		for i := 0; i < 10; i++ {
			readBack(t, p, c, "hdr.h", 4096)
		}
		extraOpens := c.Ops().Get("open") - opensBefore
		if extraOpens > 1 {
			t.Errorf("10 reopens cost %d open RPCs; delayed close should make them local", extraOpens)
		}
		if c.LocalReopens < 9 {
			t.Errorf("only %d local reopens", c.LocalReopens)
		}
	})
}

func TestSNFSCrashRecovery(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{GraceDur: sim.Second})
	a := w.addSNFS("clientA", client.SNFSOptions{KeepaliveInterval: 500 * sim.Millisecond})
	b := w.addSNFS("clientB", client.SNFSOptions{})
	want := fill(8192, 'r')
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", want)
		// Let A's keepalive learn the first epoch.
		p.Sleep(sim.Second)
		w.snfs.Crash()
		p.Sleep(2 * sim.Second)
		w.snfs.Reboot()
		// A's keepalive notices the epoch change and re-registers its
		// dirty-file state within a few periods.
		p.Sleep(3 * sim.Second)
		// B opens: the recovered CLOSED-DIRTY state must trigger a
		// write-back callback to A, and B must see A's data.
		got := readBack(t, p, b, "f.dat", 8192)
		if !bytes.Equal(got, want) {
			t.Errorf("B read wrong data after server recovery")
		}
		if b.Inconsistencies != 0 {
			t.Error("recovery produced a spurious inconsistency warning")
		}
	})
}

// TestSNFSRecoveryForgetsUnregisteredCaches pins a schedule the
// exhaustive model check (internal/core) found: a rebooted server restarts
// its version numbers, so a clean cached copy its client did not
// re-register could validate against a later writer's version and be
// read stale. Recovery drops such copies (core.FileRecord.Forget).
func TestSNFSRecoveryForgetsUnregisteredCaches(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{GraceDur: sim.Second})
	a := w.addSNFS("clientA", client.SNFSOptions{KeepaliveInterval: 500 * sim.Millisecond})
	b := w.addSNFS("clientB", client.SNFSOptions{})
	want := fill(4096, 'n')
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", fill(4096, 'o'))
		a.SyncPass(p)
		readBack(t, p, a, "f.dat", 4096) // cached, clean, at version 1
		p.Sleep(sim.Second)
		w.snfs.Crash()
		p.Sleep(2 * sim.Second)
		w.snfs.Reboot()
		p.Sleep(3 * sim.Second)              // A recovers with nothing to re-register
		writeThrough(t, p, b, "f.dat", want) // a fresh entry: version 1 again
		if got := readBack(t, p, a, "f.dat", 4096); !bytes.Equal(got, want) {
			t.Error("A read its stale pre-reboot copy after B's write")
		}
	})
}

func TestSNFSOpenDuringGraceRetries(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{GraceDur: 2 * sim.Second})
	a := w.addSNFS("clientA", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", fill(100, 'g'))
		a.SyncPass(p)
		w.snfs.Crash()
		w.snfs.Reboot() // grace starts now
		start := p.Now()
		got := readBack(t, p, a, "f.dat", 100)
		if len(got) != 100 {
			t.Errorf("open during grace eventually failed (%d bytes)", len(got))
		}
		if p.Now().Sub(start) < sim.Second {
			t.Error("open succeeded inside the grace period without waiting")
		}
	})
}

func TestHybridServerProtectsNFSClients(t *testing.T) {
	// §6.1: an SNFS client holds dirty blocks for a closed file; an NFS
	// client reads the same file through the hybrid server, whose
	// implicit open forces the write-back first.
	w := newWorld(1, true, 4, server.SNFSOptions{Hybrid: true})
	a := w.addSNFS("clientA", client.SNFSOptions{})
	b := w.addNFS("clientB", client.NFSOptions{})
	want := fill(8192, 'y')
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", want)
		if a.Ops().Get("write") != 0 {
			t.Fatal("precondition: dirty blocks should be at A")
		}
		got := readBack(t, p, b, "f.dat", 8192)
		if !bytes.Equal(got, want) {
			t.Error("NFS client read stale data through hybrid server")
		}
	})
}

func TestHybridClientFallsBackToNFS(t *testing.T) {
	// A hybrid client probing a plain NFS server discovers open is
	// unavailable and reverts to NFS behaviour. Here we verify the
	// protocol-level signal: open against NFS yields PROC_UNAVAIL.
	w := newWorld(1, false, 4, server.SNFSOptions{})
	ep, _ := w.clientConfig("probe")
	run(t, w.k, func(p *sim.Proc) {
		args := proto.Marshal(&proto.OpenArgs{Handle: w.root})
		_, err := ep.Call(p, "server", proto.ProgNFS, proto.VersNFS, proto.ProcOpen, args)
		if err != rpc.ErrProcUnavail {
			t.Errorf("open on plain NFS server: %v, want ErrProcUnavail", err)
		}
	})
}

func TestReadQuicklyRPCCounts(t *testing.T) {
	// §5.1: in the open-read-quickly-close pattern NFS needs one fewer
	// RPC than SNFS (getattr vs open+close).
	wN := newWorld(1, false, 4, server.SNFSOptions{})
	cN := wN.addNFS("clientA", client.NFSOptions{})
	var nfsOps int64
	run(t, wN.k, func(p *sim.Proc) {
		writeThrough(t, p, cN, "f.c", fill(4096, 'm'))
		base := cN.Ops().Total()
		readBack(t, p, cN, "f.c", 4096)
		nfsOps = cN.Ops().Total() - base
	})

	wS := newWorld(1, true, 4, server.SNFSOptions{})
	cS := wS.addSNFS("clientA", client.SNFSOptions{})
	var snfsOps int64
	run(t, wS.k, func(p *sim.Proc) {
		writeThrough(t, p, cS, "f.c", fill(4096, 'm'))
		cS.SyncPass(p)
		base := cS.Ops().Total()
		readBack(t, p, cS, "f.c", 4096)
		snfsOps = cS.Ops().Total() - base
	})
	if snfsOps != nfsOps+1 {
		t.Errorf("read-quickly: NFS %d RPCs, SNFS %d; want SNFS = NFS+1", nfsOps, snfsOps)
	}
}

func TestSNFSTableFullReported(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{TableLimit: 2})
	c := w.addSNFS("clientA", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		var files []vfs.File
		for i, name := range []string{"a", "b", "c"} {
			f, err := c.Open(p, name, vfs.WriteOnly|vfs.Create, 0o644)
			if i < 2 {
				if err != nil {
					t.Fatalf("open %s: %v", name, err)
				}
				files = append(files, f)
				continue
			}
			if err == nil {
				t.Error("third simultaneous open succeeded beyond the table limit")
				f.Close(p)
			}
		}
		for _, f := range files {
			f.Close(p)
		}
		// With the first two closed (clean), the third open succeeds
		// after reclaiming a CLOSED entry.
		f, err := c.Open(p, "c", vfs.WriteOnly|vfs.Create, 0o644)
		if err != nil {
			t.Errorf("open after closes: %v", err)
		} else {
			f.Close(p)
		}
	})
}

func TestSNFSNameCacheConsistency(t *testing.T) {
	// §7 extension: client A caches name translations under a
	// directory lease; when client B changes the directory, A is
	// called back and must see the new namespace.
	w := newWorld(1, true, 4, server.SNFSOptions{NameCacheProtocol: true})
	a := w.addSNFS("clientA", client.SNFSOptions{NameCache: true})
	b := w.addSNFS("clientB", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		if err := a.Mkdir(p, "dir", 0o755); err != nil {
			t.Fatal(err)
		}
		writeThrough(t, p, a, "dir/f1", fill(100, 'n'))
		// Warm A's name cache.
		for i := 0; i < 3; i++ {
			if _, err := a.Stat(p, "dir/f1"); err != nil {
				t.Fatal(err)
			}
		}
		if a.NameCacheHits == 0 {
			t.Fatal("name cache never hit")
		}
		lookupsBefore := a.Ops().Get("lookup")
		if _, err := a.Stat(p, "dir/f1"); err != nil {
			t.Fatal(err)
		}
		if got := a.Ops().Get("lookup") - lookupsBefore; got != 0 {
			t.Errorf("cached stat still issued %d lookups", got)
		}
		// B removes the file and creates another; A's lease must be
		// revoked before B's mutation completes.
		if err := b.Remove(p, "dir/f1"); err != nil {
			t.Fatal(err)
		}
		writeThrough(t, p, b, "dir/f2", fill(100, 'm'))
		if _, err := a.Stat(p, "dir/f1"); err == nil {
			t.Error("A still resolves the removed name")
		}
		if _, err := a.Stat(p, "dir/f2"); err != nil {
			t.Errorf("A cannot resolve the new name: %v", err)
		}
	})
}

func TestSNFSNameCacheSavesLookups(t *testing.T) {
	for _, nc := range []bool{false, true} {
		w := newWorld(1, true, 4, server.SNFSOptions{NameCacheProtocol: nc})
		c := w.addSNFS("clientA", client.SNFSOptions{NameCache: nc})
		var lookups int64
		run(t, w.k, func(p *sim.Proc) {
			c.Mkdir(p, "d", 0o755)
			writeThrough(t, p, c, "d/f", fill(4096, 'l'))
			c.SyncPass(p)
			base := c.Ops().Get("lookup")
			for i := 0; i < 20; i++ {
				readBack(t, p, c, "d/f", 4096)
			}
			lookups = c.Ops().Get("lookup") - base
		})
		if nc && lookups > 2 {
			t.Errorf("name cache on: %d lookups for 20 reopens, want <= 2", lookups)
		}
		if !nc && lookups < 20 {
			t.Errorf("name cache off: only %d lookups for 20 reopens", lookups)
		}
	}
}

func TestSNFSNameCacheOwnMutationsVisible(t *testing.T) {
	// The mutating client is excluded from invalidation and must patch
	// its own cache.
	w := newWorld(1, true, 4, server.SNFSOptions{NameCacheProtocol: true})
	c := w.addSNFS("clientA", client.SNFSOptions{NameCache: true})
	run(t, w.k, func(p *sim.Proc) {
		c.Mkdir(p, "d", 0o755)
		writeThrough(t, p, c, "d/a", fill(10, 'a'))
		c.Stat(p, "d/a") // warm
		if err := c.Remove(p, "d/a"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stat(p, "d/a"); err == nil {
			t.Error("own remove not reflected in name cache")
		}
		writeThrough(t, p, c, "d/b", fill(10, 'b'))
		if _, err := c.Stat(p, "d/b"); err != nil {
			t.Errorf("own create not visible: %v", err)
		}
		if err := c.Rename(p, "d/b", "d/c"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stat(p, "d/b"); err == nil {
			t.Error("own rename source still resolves")
		}
		if _, err := c.Stat(p, "d/c"); err != nil {
			t.Errorf("own rename dest not visible: %v", err)
		}
	})
}

// TestSNFSNameCacheFailedMutationKeepsDelayedWrites: a mutation that
// names a regular file as its directory fails ENOTDIR, and must leave the
// file's version alone: bumped, it would make the writer's next open drop
// its delayed writes as a stale copy, and the data would never reach the
// server.
func TestSNFSNameCacheFailedMutationKeepsDelayedWrites(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{NameCacheProtocol: true})
	c := w.addSNFS("clientA", client.SNFSOptions{NameCache: true})
	want := fill(5000, 'n')
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "f", want)
		if err := c.Mkdir(p, "f/sub", 0o755); err == nil {
			t.Error("mkdir under a regular file succeeded")
		}
		if got := readBack(t, p, c, "f", 10000); !bytes.Equal(got, want) {
			t.Errorf("read back %d bytes after a failed mkdir under the file, want %d", len(got), len(want))
		}
		c.SyncPass(p)
		st := w.media.Store()
		a, err := st.Lookup(st.Root(), "f")
		if err != nil {
			t.Fatal(err)
		}
		if a.Size != int64(len(want)) {
			t.Errorf("server holds %d bytes of f, want %d", a.Size, len(want))
		}
	})
}

// ---- RFS (§2.5) behaviour ----

func newRFSWorld(seed int64) (*world, *server.RFSServer) {
	k := sim.NewKernel(seed)
	net := simnet.New(k, netConfig())
	ep := rpc.NewEndpoint(k, net, "server", rpc.Options{Workers: 4})
	st := localfs.NewStore(k.Now, 4096)
	d := disk.New(k, "sd", disk.RA81())
	media := localfs.NewMedia(st, d, 1, 3500*1024)
	srv := server.NewRFS(k, ep, media, server.Config{FSID: 1})
	w := &world{k: k, net: net, media: media, srvEP: ep, root: srv.RootHandle()}
	return w, srv
}

func (w *world) addRFS(name simnet.Addr) *client.RFSClient {
	ep, cfg := w.clientConfig(name)
	return client.NewRFS(w.k, ep, cfg)
}

func TestRFSRoundTripAndWriteThrough(t *testing.T) {
	w, _ := newRFSWorld(1)
	c := w.addRFS("clientA")
	want := fill(10000, 'r')
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "f.dat", want)
		// Write-through: the data is at the server after close.
		st := w.media.Store()
		a, err := st.Lookup(st.Root(), "f.dat")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := st.ReadAt(a.Ino, 0, 20000)
		if !bytes.Equal(data, want) {
			t.Error("server copy differs after close")
		}
		got := readBack(t, p, c, "f.dat", 20000)
		if !bytes.Equal(got, want) {
			t.Error("read back mismatch")
		}
	})
}

func TestRFSCacheSurvivesCloseWithoutBug(t *testing.T) {
	w, _ := newRFSWorld(1)
	c := w.addRFS("clientA")
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "f.dat", fill(40960, 'c'))
		base := c.Ops().Get("read")
		readBack(t, p, c, "f.dat", 40960)
		if got := c.Ops().Get("read") - base; got != 0 {
			t.Errorf("reopen issued %d reads; RFS cache should survive close", got)
		}
	})
}

func TestRFSInvalidateOnActualWrite(t *testing.T) {
	// The §2.5 distinguishing behaviour: a reader's cache survives
	// another client's open-for-write and is invalidated only when a
	// write actually occurs.
	w, _ := newRFSWorld(1)
	a := w.addRFS("clientA")
	b := w.addRFS("clientB")
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", fill(4096, '1'))
		fa, err := a.Open(p, "f.dat", vfs.ReadOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer fa.Close(p)
		fa.ReadAt(p, 0, 4096) // cache warm at A
		readsBase := a.Ops().Get("read")

		fb, err := b.Open(p, "f.dat", vfs.ReadWrite, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Open-for-write alone must NOT invalidate A (unlike SNFS).
		if got, _ := fa.ReadAt(p, 0, 4096); !bytes.Equal(got, fill(4096, '1')) {
			t.Fatal("read wrong before any write")
		}
		if a.Ops().Get("read") != readsBase {
			t.Error("A's cache was invalidated by a mere open-for-write")
		}
		if a.CallbacksServed != 0 {
			t.Error("callback before any write occurred")
		}
		// The actual write invalidates A, which then sees fresh data.
		// (Sync flushes the biods: the guarantee concerns writes that
		// have reached the server.)
		if _, err := fb.WriteAt(p, 0, fill(4096, '2')); err != nil {
			t.Fatal(err)
		}
		if err := fb.Sync(p); err != nil {
			t.Fatal(err)
		}
		if a.CallbacksServed == 0 {
			t.Error("no invalidation callback on write")
		}
		got, _ := fa.ReadAt(p, 0, 4096)
		if !bytes.Equal(got, fill(4096, '2')) {
			t.Error("A read stale data after the write (RFS guarantee broken)")
		}
		fb.Close(p)
	})
}

func TestRFSReaderRecachesAfterInvalidation(t *testing.T) {
	// After an invalidation, the reader refetches and caches again; a
	// SECOND write must invalidate again (the server re-learns the
	// reader from its read).
	w, _ := newRFSWorld(1)
	a := w.addRFS("clientA")
	b := w.addRFS("clientB")
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", fill(4096, '1'))
		fa, _ := a.Open(p, "f.dat", vfs.ReadOnly, 0)
		defer fa.Close(p)
		fa.ReadAt(p, 0, 4096)
		fb, _ := b.Open(p, "f.dat", vfs.ReadWrite, 0)
		for round := byte(2); round <= 4; round++ {
			if _, err := fb.WriteAt(p, 0, fill(4096, '0'+round)); err != nil {
				t.Fatal(err)
			}
			if err := fb.Sync(p); err != nil {
				t.Fatal(err)
			}
			got, _ := fa.ReadAt(p, 0, 4096)
			if !bytes.Equal(got, fill(4096, '0'+round)) {
				t.Fatalf("round %d: stale", round)
			}
		}
		fb.Close(p)
		if a.CallbacksServed < 3 {
			t.Errorf("served %d invalidations, want 3", a.CallbacksServed)
		}
	})
}

func TestRFSVersionValidationAcrossReopen(t *testing.T) {
	w, _ := newRFSWorld(1)
	a := w.addRFS("clientA")
	b := w.addRFS("clientB")
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", fill(8192, 'v'))
		readBack(t, p, a, "f.dat", 8192) // warm
		// B rewrites while A has it closed (no invalidation needed if
		// A is not tracked... but version must catch it at reopen).
		writeThrough(t, p, b, "f.dat", fill(8192, 'w'))
		got := readBack(t, p, a, "f.dat", 8192)
		if !bytes.Equal(got, fill(8192, 'w')) {
			t.Error("A's reopen served stale cache despite version bump")
		}
	})
}

// TestRFSRebootNeverRevalidatesStaleCache: a rebooted RFS server has
// forgotten which clients cache a file, so a write after the reboot calls
// nobody back, and RFS has no reopen to re-register A's copy. What keeps
// A honest is its next open's version check, which holds only if the
// server never hands out again a version A may still hold.
func TestRFSRebootNeverRevalidatesStaleCache(t *testing.T) {
	w, srv := newRFSWorld(1)
	a := w.addRFS("clientA")
	b := w.addRFS("clientB")
	want := fill(4096, 'n')
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", fill(4096, 'o'))
		readBack(t, p, a, "f.dat", 4096) // cached at A
		srv.Crash()
		p.Sleep(2 * sim.Second)
		srv.Reboot()
		writeThrough(t, p, b, "f.dat", want)
		if got := readBack(t, p, a, "f.dat", 4096); !bytes.Equal(got, want) {
			t.Error("A's reopen after the reboot served its stale copy")
		}
	})
}

// TestSNFSFailedCallbackChangesNothing: a callback whose write-back
// cannot reach the server answers ERR_IO and changes nothing at the
// client: the dirty blocks stay, and so does the caching they need. (The
// server takes the failure for a dead client and warns the next opener,
// §3.2.) Blocks kept behind a record that had stopped caching would be
// bypassed by the client's next writes and written home over them later.
func TestSNFSFailedCallbackChangesNothing(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	a := w.addSNFS("clientA", client.SNFSOptions{})
	probe, _ := w.clientConfig("probe")
	run(t, w.k, func(p *sim.Proc) {
		fa, err := a.Open(p, "f.dat", vfs.ReadWrite|vfs.Create, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fa.WriteAt(p, 0, fill(8192, 'd')); err != nil { // delayed: dirty at A
			t.Fatal(err)
		}
		st := w.media.Store()
		attr, err := st.Lookup(st.Root(), "f.dat")
		if err != nil {
			t.Fatal(err)
		}
		w.net.Cut("clientA", "server")
		args := proto.CallbackArgs{Handle: proto.Handle{FSID: 1, Ino: attr.Ino, Gen: attr.Gen}, WriteBack: true, Invalidate: true}
		var r proto.StatusReply
		if err := probe.CallXDREx(p, "clientA", proto.ProgCallback, 1, proto.CbProcCallback, args.XDR, r.XDR, 1000*sim.Second, 0); err != nil {
			t.Fatal(err)
		}
		if r.Status != proto.ErrIO {
			t.Fatalf("callback answered %v, want ERR_IO", r.Status)
		}
		w.net.Heal("clientA", "server")
		writes := a.Ops().Get("write")
		if _, err := fa.WriteAt(p, 0, fill(4096, 'e')); err != nil {
			t.Fatal(err)
		}
		if n := a.Ops().Get("write") - writes; n != 0 {
			t.Errorf("a write after the failed callback went to the server (%d WRITEs): A stopped caching", n)
		}
		if err := fa.Close(p); err != nil {
			t.Fatal(err)
		}
		a.SyncAll(p)
		got, _ := st.ReadAt(attr.Ino, 0, 8192)
		if want := append(fill(4096, 'e'), fill(8192, 'd')[4096:]...); !bytes.Equal(got, want) {
			t.Error("the server's copy lacks A's writes")
		}
	})
}

// TestTruncatedCallbackIsGarbage: a callback whose arguments do not decode
// is answered GARBAGE_ARGS and not served. Served, it was a zero-handle
// callback answered OK, so the server took a write-back for done.
func TestTruncatedCallbackIsGarbage(t *testing.T) {
	snfsWorld := newWorld(1, true, 4, server.SNFSOptions{})
	sc := snfsWorld.addSNFS("clientA", client.SNFSOptions{})
	rfsWorld, _ := newRFSWorld(1)
	rc := rfsWorld.addRFS("clientA")
	for _, c := range []struct {
		name   string
		w      *world
		served func() int64
	}{
		{"snfs", snfsWorld, func() int64 { return sc.CallbacksServed }},
		{"rfs", rfsWorld, func() int64 { return rc.CallbacksServed }},
	} {
		args := proto.Marshal(&proto.CallbackArgs{Handle: c.w.root, WriteBack: true, Invalidate: true})
		run(t, c.w.k, func(p *sim.Proc) {
			_, err := c.w.srvEP.Call(p, "clientA", proto.ProgCallback, 1, proto.CbProcCallback, args[:len(args)-4])
			if err != rpc.ErrGarbage {
				t.Errorf("%s: a truncated callback answered %v, want GARBAGE_ARGS", c.name, err)
			}
			if n := c.served(); n != 0 {
				t.Errorf("%s: %d callbacks served, want 0", c.name, n)
			}
		})
	}
}

func TestDelayedCloseRevokedByWriteShare(t *testing.T) {
	// A holds a delayed close (the server still counts it as a reader);
	// B opens for write, which makes the file write-shared and revokes
	// A's caching by callback. A's next reopen must settle the owed
	// close and see B's data.
	w := newWorld(1, true, 4, server.SNFSOptions{})
	a := w.addSNFS("clientA", client.SNFSOptions{DelayedClose: true})
	b := w.addSNFS("clientB", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", fill(4096, '1'))
		a.SyncPass(p)
		readBack(t, p, a, "f.dat", 4096) // leaves a delayed close behind
		fb, err := b.Open(p, "f.dat", vfs.ReadWrite, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.CallbacksServed == 0 {
			t.Fatal("A's delayed-close lease not revoked by B's write-open")
		}
		if _, err := fb.WriteAt(p, 0, fill(4096, '2')); err != nil {
			t.Fatal(err)
		}
		// A reopens: must go to the server (lease revoked) and read
		// B's bytes.
		got := readBack(t, p, a, "f.dat", 4096)
		if !bytes.Equal(got, fill(4096, '2')) {
			t.Error("A read stale data after lease revocation")
		}
		fb.Close(p)
	})
}

func TestDelayedCloseFileRemovedByOther(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	a := w.addSNFS("clientA", client.SNFSOptions{DelayedClose: true})
	b := w.addSNFS("clientB", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "f.dat", fill(4096, 'x'))
		a.SyncPass(p)
		readBack(t, p, a, "f.dat", 4096) // delayed close held
		if err := b.Remove(p, "f.dat"); err != nil {
			t.Fatal(err)
		}
		// A's reopen: name is gone.
		if _, err := a.Open(p, "f.dat", vfs.ReadOnly, 0); err == nil {
			t.Error("opened a removed file")
		}
		// A's spontaneous close of the dead handle must not wedge
		// anything.
		a.SyncPass(p)
		// New life for the name works for both.
		writeThrough(t, p, b, "f.dat", fill(4096, 'y'))
		got := readBack(t, p, a, "f.dat", 4096)
		if !bytes.Equal(got, fill(4096, 'y')) {
			t.Error("A sees wrong data in the recreated file")
		}
	})
}

// ---- links and symlinks through the protocols ----

func TestSymlinkResolutionThroughClient(t *testing.T) {
	for _, useSNFS := range []bool{false, true} {
		w := newWorld(1, useSNFS, 4, server.SNFSOptions{})
		var c vfs.FS
		if useSNFS {
			c = w.addSNFS("clientA", client.SNFSOptions{})
		} else {
			c = w.addNFS("clientA", client.NFSOptions{})
		}
		run(t, w.k, func(p *sim.Proc) {
			c.Mkdir(p, "real", 0o755)
			writeThrough(t, p, c, "real/data.txt", fill(100, 's'))
			// Relative symlink to a file.
			if err := c.Symlink(p, "real/data.txt", "flink"); err != nil {
				t.Fatal(err)
			}
			got := readBack(t, p, c, "flink", 100)
			if !bytes.Equal(got, fill(100, 's')) {
				t.Error("read through file symlink failed")
			}
			// Symlink to a directory, used mid-path.
			if err := c.Symlink(p, "real", "dlink"); err != nil {
				t.Fatal(err)
			}
			got = readBack(t, p, c, "dlink/data.txt", 100)
			if !bytes.Equal(got, fill(100, 's')) {
				t.Error("read through directory symlink failed")
			}
			// Absolute (mount-root-relative) target.
			if err := c.Symlink(p, "/real/data.txt", "abslink"); err != nil {
				t.Fatal(err)
			}
			got = readBack(t, p, c, "abslink", 100)
			if !bytes.Equal(got, fill(100, 's')) {
				t.Error("read through absolute symlink failed")
			}
			// Readlink does not follow.
			target, err := c.Readlink(p, "flink")
			if err != nil || target != "real/data.txt" {
				t.Errorf("readlink %q, %v", target, err)
			}
			// Chains resolve; cycles error.
			if err := c.Symlink(p, "flink", "chain"); err != nil {
				t.Fatal(err)
			}
			got = readBack(t, p, c, "chain", 100)
			if !bytes.Equal(got, fill(100, 's')) {
				t.Error("symlink chain failed")
			}
			c.Symlink(p, "loop2", "loop1")
			c.Symlink(p, "loop1", "loop2")
			if _, err := c.Open(p, "loop1", vfs.ReadOnly, 0); err == nil {
				t.Error("symlink cycle resolved?!")
			}
		})
	}
}

func TestHardLinkThroughClient(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, c, "orig", fill(200, 'h'))
		c.SyncPass(p)
		if err := c.Link(p, "orig", "alias"); err != nil {
			t.Fatal(err)
		}
		got := readBack(t, p, c, "alias", 200)
		if !bytes.Equal(got, fill(200, 'h')) {
			t.Error("content through hard link wrong")
		}
		// Both names share the inode: writes through one are reads
		// through the other (same client cache and same server inode).
		writeThrough(t, p, c, "alias", fill(200, 'i'))
		got = readBack(t, p, c, "orig", 200)
		if !bytes.Equal(got, fill(200, 'i')) {
			t.Error("hard link aliasing broken")
		}
		if err := c.Remove(p, "orig"); err != nil {
			t.Fatal(err)
		}
		got = readBack(t, p, c, "alias", 200)
		if !bytes.Equal(got, fill(200, 'i')) {
			t.Error("content lost when the other name was removed")
		}
	})
}

func TestSymlinkConsistencyAcrossClients(t *testing.T) {
	// A symlink created by one client resolves at another, and the
	// consistency protocol still applies to the target.
	w := newWorld(1, true, 4, server.SNFSOptions{})
	a := w.addSNFS("clientA", client.SNFSOptions{})
	b := w.addSNFS("clientB", client.SNFSOptions{})
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, a, "target", fill(64, 'a'))
		if err := a.Symlink(p, "target", "ln"); err != nil {
			t.Fatal(err)
		}
		// B reads through the link: forces A's write-back.
		got := readBack(t, p, b, "ln", 64)
		if !bytes.Equal(got, fill(64, 'a')) {
			t.Error("B read wrong data through A's symlink")
		}
		if a.Ops().Get("write") == 0 {
			t.Error("callback write-back did not fire through the symlink path")
		}
	})
}

// TestSyncAllWaitsForWriteThroughs: sync(2) returns only once what was
// written is at the server, whatever the protocol's write policy — a
// write-through still on a biod counts as written. One whole block is
// written into a file kept open, so neither a close nor a partial-block
// rule sends it.
func TestSyncAllWaitsForWriteThroughs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*world, vfs.FS)
	}{
		{"NFS", func() (*world, vfs.FS) {
			w := newWorld(1, false, 4, server.SNFSOptions{})
			return w, w.addNFS("clientA", client.NFSOptions{})
		}},
		{"SNFS", func() (*world, vfs.FS) {
			w := newWorld(1, true, 4, server.SNFSOptions{})
			return w, w.addSNFS("clientA", client.SNFSOptions{})
		}},
		{"RFS", func() (*world, vfs.FS) {
			w, _ := newRFSWorld(1)
			return w, w.addRFS("clientA")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, c := tc.build()
			want := fill(4096, 's')
			run(t, w.k, func(p *sim.Proc) {
				f, err := c.Open(p, "f.dat", vfs.WriteOnly|vfs.Create, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(p, 0, want); err != nil {
					t.Fatal(err)
				}
				c.SyncAll(p)
				st := w.media.Store()
				a, err := st.Lookup(st.Root(), "f.dat")
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := st.ReadAt(a.Ino, 0, 8192); !bytes.Equal(got, want) {
					t.Errorf("server holds %d of %d bytes after SyncAll", len(got), len(want))
				}
				f.Close(p)
			})
		})
	}
}

// fsync's write-back of the block is on the wire when the block is written
// again: the returning WRITE must leave the rewrite dirty, and the next
// update pass sends it. The park sweep in the harness runs the same race
// at every park, with sync(2) and the update pass as well.
func TestSNFSRewriteDuringWritebackIsNotLost(t *testing.T) {
	t.Run("Sync", func(t *testing.T) {
		w := newWorld(1, true, 4, server.SNFSOptions{})
		c := w.addSNFS("clientA", client.SNFSOptions{})
		run(t, w.k, func(p *sim.Proc) {
			f, err := c.Open(p, "f.dat", vfs.WriteOnly|vfs.Create, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteAt(p, 0, fill(4096, 'a'))
			var pass sim.WaitGroup
			pass.Add(1)
			w.k.Go("write-back", func(dp *sim.Proc) {
				defer pass.Done()
				f.Sync(dp)
			})
			p.Sleep(sim.Millisecond) // the write RPC is in flight
			if got := c.Ops().Get("write"); got != 1 {
				t.Fatalf("%d writes on the wire 1 ms into the write-back, want 1", got)
			}
			f.WriteAt(p, 0, fill(4096, 'b'))
			pass.Wait(p)
			c.SyncPass(p)
			st := w.media.Store()
			a, err := st.Lookup(st.Root(), "f.dat")
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := st.ReadAt(a.Ino, 0, 4096); !bytes.Equal(got, fill(4096, 'b')) {
				t.Errorf("server holds %q… after two write-backs, want the rewrite", got[:4])
			}
			f.Close(p)
		})
	})
}
