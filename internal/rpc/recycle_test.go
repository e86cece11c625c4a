package rpc

import (
	"bytes"
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
)

// The tests here follow a Pending and a reply head through each of their
// holders (DESIGN.md §14's table) and check the one thing recycling can
// break: nobody reads an image after its last holder let go. Under
// -tags frozencheck a released object is scribbled and never reused, so
// the same tests then read 0xA5 where a holder came too late.

// released reports whether c's last holder has let go: c is on its
// endpoint's free list, or, under the release checker, scribbled.
func released(c *Pending) bool {
	if frozenCheck {
		return c.refs < 0
	}
	for f := c.e.calls; f != nil; f = f.next {
		if f == c {
			return true
		}
	}
	return false
}

// token returns n bytes of b, as a call's argument or a reply's body
// that no other call's image shares.
func token(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// TestAnsweredCallFreesItsPending: a call answered in 2 ms withdraws its
// 1 s timeout event as the reply lands, so once the caller lets go its
// Pending is back on the free list, and the caller's next call takes it
// up at once. No event comes due on it later: nothing is woken, retried
// or timed out by a timeout that is not its call's.
func TestAnsweredCallFreesItsPending(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	server.Register(testProg, tokenHandler)
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		first := client.start(p, "server", testProg, 1, 1, rawBody(token(1, 8)).XDR, CallTimeout, MaxRetries)
		if err := first.wait(p); err != nil || p.Now() != sim.Time(2*sim.Millisecond) {
			t.Fatalf("first call: %v at %v, want an answer at 2ms", err, p.Now())
		}
		if first.refs != 1 || first.timer != (sim.Timer{}) {
			t.Errorf("answered call still holds its timeout (refs %d, timer %v)", first.refs, first.timer)
		}
		first.done()
		if !released(first) {
			t.Fatalf("answered call not let go (refs %d)", first.refs)
		}
		second := client.start(p, "server", testProg, 1, 1, rawBody(token(2, 8)).XDR, CallTimeout, MaxRetries)
		if !frozenCheck && second != first {
			t.Error("the second call did not reuse the first's Pending")
		}
		if err := second.wait(p); err != nil || !bytes.Equal(second.body, token(2, 8)) {
			t.Errorf("second call: %v, body %x", err, second.body)
		}
		second.done()
		p.Sleep(2 * CallTimeout) // past where both timeouts would have come due
		third := client.start(p, "server", testProg, 1, 1, rawBody(token(3, 8)).XDR, CallTimeout, MaxRetries)
		if err := third.wait(p); err != nil || !bytes.Equal(third.body, token(3, 8)) {
			t.Errorf("third call: %v, body %x", err, third.body)
		}
		third.done()
		switch {
		case frozenCheck && !bytes.Equal(first.inline[:], token(0xA5, inlineImage)):
			t.Errorf("released Pending's image not scribbled: %x", first.inline)
		case !frozenCheck && third != first:
			t.Error("the third call did not reuse the one Pending")
		}
	})
	k.Run()
	if w := client.Work(); !frozenCheck && (w.PendingsMade != 1 || w.PendingsReused != 2) {
		t.Errorf("Pendings made %d and reused %d, want 1 and 2", w.PendingsMade, w.PendingsReused)
	}
	if n := k.Work().Cancelled; n != 3 {
		t.Errorf("%d timeouts withdrawn, want one per call: 3", n)
	}
	if st, w := client.Stats(), client.Work(); st.Retransmits != 0 || st.Timeouts != 0 || w.StaleTimeouts != 0 {
		t.Errorf("%d retransmits, %d timeouts, %d stale timeouts: an answered call's event came due", st.Retransmits, st.Timeouts, w.StaleTimeouts)
	}
}

// TestDuplicateCallAfterReply: with every message sent twice, a call's
// duplicate lands at the server after the reply went out and is answered
// from the duplicate cache, and the reply and its replay each come twice.
// The duplicate's copy holds the call image until it has been looked up;
// the three spare replies are let go on arrival; once everything has
// landed and the timeout come due, the Pending is released, and the
// reply head is held by its duplicate-cache slot alone.
func TestDuplicateCallAfterReply(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond, BytesPerSec: 1_250_000, DupProb: 1}, Options{})
	served := 0
	server.Register(testProg, counting(&served, tokenHandler))
	args := token(7, 32)
	var c *Pending
	var xid uint32
	var deliveries int
	server.port.SetHandler(func(m simnet.Message) {
		if deliveries++; deliveries == 2 {
			// The duplicate: the reply has gone out, and the caller's
			// image must still be the one it sent.
			if served != 1 || released(c) {
				t.Errorf("duplicate landed with %d calls served, Pending released %v", served, released(c))
			}
			if !bytes.Equal(m.Payload[callHeaderLen:], args) {
				t.Errorf("duplicate carries %x", m.Payload[callHeaderLen:])
			}
		}
		server.handleMsg(m)
	})
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		c = client.start(p, "server", testProg, 1, 1, rawBody(args).XDR, CallTimeout, MaxRetries)
		xid = c.xid
		if err := c.wait(p); err != nil || !bytes.Equal(c.body, args) {
			t.Errorf("call: %v, body %x", err, c.body)
		}
		c.done()
		p.Sleep(2 * CallTimeout)
	})
	k.Run()
	if st := server.Stats(); deliveries != 2 || st.DupHits != 1 || served != 1 {
		t.Errorf("%d deliveries, %d dup hits, %d served: want the duplicate answered from the cache", deliveries, st.DupHits, served)
	}
	if !released(c) {
		t.Errorf("Pending still held (refs %d)", c.refs)
	}
	if h := server.dup.lookup(client.addr, xid).owner; h == nil || h.refs != 1 {
		t.Errorf("reply head %v: want it held by its duplicate-cache slot alone", h)
	}
}

// TestLateDuplicateReexecuted: a duplicate that finds its call evicted
// from the duplicate cache — here by a seeded entry between the two
// arrivals, in a cache of one slot — is executed again, by a handler that
// reads its arguments 200 ms later, long after the caller has its answer
// and has gone on to other calls. The copy in service holds the image, so
// the caller's Pending stays off the free list while it is served, and
// the late handler reads the arguments the caller sent.
func TestLateDuplicateReexecuted(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond, BytesPerSec: 1_250_000, DupProb: 1}, Options{})
	server.dup = newDupCache(1, &server.stats.DupEvictions)
	args := token(9, 32) // a head of 60 bytes, inside the Pending (inlineImage)
	var c *Pending
	var seen [][]byte
	var runs int
	var answered bool
	server.Serve(testProg, func(p *sim.Proc, _ simnet.Addr, proc uint32, a, _ []byte) (Reply, Status) {
		if proc == 1 {
			if runs++; runs == 1 {
				p.Sleep(50 * sim.Millisecond)
			} else {
				p.Sleep(200 * sim.Millisecond) // the re-executed copy
				if !answered || released(c) {
					t.Errorf("re-executed copy in service: caller answered %v, Pending released %v", answered, released(c))
				}
			}
			seen = append(seen, bytes.Clone(a))
		}
		return Encode(nil), StatusOK
	})
	var deliveries int
	server.port.SetHandler(func(m simnet.Message) {
		server.handleMsg(m)
		if deliveries++; deliveries == 1 {
			server.SeedDup("elsewhere", 1, []byte("evicts the first call's slot"))
		}
	})
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		c = client.start(p, "server", testProg, 1, 1, rawBody(args).XDR, CallTimeout, MaxRetries)
		if err := c.wait(p); err != nil {
			t.Errorf("call: %v", err)
		}
		c.done()
		answered = true
		for i := 0; i < 4; i++ { // calls that would reuse a Pending let go too early
			if err := client.CallXDR(p, "server", testProg, 1, 2, rawBody(token(byte(i), 32)).XDR, nil); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
		p.Sleep(2 * CallTimeout)
	})
	k.Run()
	if len(seen) != 2 {
		t.Fatalf("the call ran %d times, want twice: the duplicate re-executed", len(seen))
	}
	for i, a := range seen {
		if !bytes.Equal(a, args) {
			t.Errorf("execution %d read %x, want %x", i, a, args)
		}
	}
	if !released(c) {
		t.Errorf("Pending still held once the re-executed copy was served (refs %d)", c.refs)
	}
	if w := client.Work(); !frozenCheck && w.PendingsMade != 2 {
		t.Errorf("%d Pendings made, want 2: the one in service, and one the other calls reuse", w.PendingsMade)
	}
}

// TestRerouteWhileBothServersHoldTheCall: a call whose primary is slow
// times out, is rerouted to the backup and answered there, while the
// primary still holds its copy in service for two more seconds. The
// caller goes on calling the backup; the primary's handler, when it
// reads its arguments at 3 s, reads what was sent, and only after both
// servers and both timeouts are done is the Pending released.
func TestRerouteWhileBothServersHoldTheCall(t *testing.T) {
	k := sim.NewKernel(1)
	n := simnet.New(k, simnet.Config{PropDelay: sim.Millisecond})
	client := NewEndpoint(k, n, "client", Options{})
	primary := NewEndpoint(k, n, "primary", Options{})
	backup := NewEndpoint(k, n, "backup", Options{})
	client.Reroute = func(to simnet.Addr) simnet.Addr {
		if to == "primary" {
			return "backup"
		}
		return to
	}
	args := token(0x3c, 24)
	var primarySaw []byte
	primary.Register(testProg, func(p *sim.Proc, _ simnet.Addr, _ uint32, a []byte) ([]byte, Status) {
		p.Sleep(3 * sim.Second)
		primarySaw = bytes.Clone(a)
		return nil, StatusOK
	})
	backup.Register(testProg, tokenHandler)
	var c *Pending
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		c = client.start(p, "primary", testProg, 1, 1, rawBody(args).XDR, CallTimeout, MaxRetries)
		if err := c.wait(p); err != nil || !bytes.Equal(c.body, args) || c.to != "backup" {
			t.Errorf("call: %v, body %x from %s", err, c.body, c.to)
		}
		c.done()
		if released(c) {
			t.Error("Pending released while the primary still serves it")
		}
		for i := 0; i < 4; i++ {
			body, err := client.Call(p, "backup", testProg, 1, 1, token(byte(i), 24))
			if err != nil || !bytes.Equal(body, token(byte(i), 24)) {
				t.Errorf("call %d: %v, body %x", i, err, body)
			}
		}
		p.Sleep(5 * sim.Second)
	})
	k.Run()
	if !bytes.Equal(primarySaw, args) {
		t.Errorf("the primary read %x, want %x", primarySaw, args)
	}
	if !released(c) {
		t.Errorf("Pending still held after both servers and its timeouts (refs %d)", c.refs)
	}
}

// TestStopDropsQueuedCalls: a server that stops drops the calls waiting
// for a service slot, and with them their copies' references; the call in
// service keeps its own until it is served. The dropped calls retransmit
// to the restarted server and complete, and every Pending is released.
func TestStopDropsQueuedCalls(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{Workers: 1})
	server.Register(testProg, func(p *sim.Proc, _ simnet.Addr, _ uint32, a []byte) ([]byte, Status) {
		p.Sleep(100 * sim.Millisecond)
		return a, StatusOK
	})
	var calls [3]*Pending
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		for i := range calls {
			calls[i] = client.start(p, "server", testProg, 1, 1, rawBody(token(byte(i+1), 16)).XDR, CallTimeout, MaxRetries)
		}
		p.Sleep(2 * sim.Millisecond) // all three have landed: one in service, two queued
		server.Stop()
		if server.queue.n != 0 {
			t.Errorf("%d calls still queued after Stop", server.queue.n)
		}
		for i, want := range []int32{2, 1, 1} {
			if calls[i].refs != want {
				t.Errorf("call %d: %d references after Stop, want %d", i, calls[i].refs, want)
			}
		}
		server.Restart()
		for i, c := range calls {
			if err := c.wait(p); err != nil || !bytes.Equal(c.body, token(byte(i+1), 16)) {
				t.Errorf("call %d: %v, body %x", i, err, c.body)
			}
			c.done()
		}
		p.Sleep(4 * CallTimeout)
	})
	k.Run()
	for i, c := range calls {
		if !released(c) {
			t.Errorf("call %d still held (refs %d)", i, c.refs)
		}
	}
}

// TestDupCacheResendsIntactHead: a reply cut on its way back is answered
// again, from the duplicate cache, when the call is retransmitted. Its
// head is held by its cache slot all the while, so the replies another
// client's calls make meanwhile, each the same size and each let go by
// its caller, are built in heads of their own, and the replay carries the
// first reply's bytes.
func TestDupCacheResendsIntactHead(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{PropDelay: sim.Millisecond})
	client := NewEndpoint(k, net, "client", Options{})
	other := NewEndpoint(k, net, "other", Options{})
	server := NewEndpoint(k, net, "server", Options{})
	served := 0
	server.Register(testProg, counting(&served, tokenHandler))
	args := token(0x11, 20)
	k.Go("caller", func(p *sim.Proc) {
		net.Cut("server", "client")
		body, err := client.Call(p, "server", testProg, 1, 1, args)
		if err != nil || !bytes.Equal(body, args) {
			t.Errorf("call: %v, body %x", err, body)
		}
	})
	k.Go("other", func(p *sim.Proc) {
		defer k.Stop()
		for i := 0; i < 8; i++ {
			body, err := other.Call(p, "server", testProg, 1, 1, token(byte(0x20+i), 20))
			if err != nil || !bytes.Equal(body, token(byte(0x20+i), 20)) {
				t.Errorf("other call %d: %v, body %x", i, err, body)
			}
		}
		net.Heal("server", "client")
		p.Sleep(3 * CallTimeout)
	})
	k.Run()
	if st := server.Stats(); st.DupHits != 1 || served != 9 {
		t.Errorf("%d dup hits, %d served: want the retransmit answered from the cache", st.DupHits, served)
	}
	if w := server.Work(); w.HeadsMade != 9 || w.HeadsReused != 0 {
		t.Errorf("reply heads made %d, reused %d: want each held by its cache slot", w.HeadsMade, w.HeadsReused)
	}
}

// TestReadReplyTailIsThePage: a READ reply's data is its image's tail, the
// server's frozen page, and what CallXDR decodes is that page itself: the
// head it was decoded from goes back to the server once its cache slot,
// here the only one, is taken by the next call, and is reused by the next
// replies, and the data the caller kept is still the page.
func TestReadReplyTailIsThePage(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	server.dup = newDupCache(1, &server.stats.DupEvictions)
	page := token(0x5a, 8192)
	server.Serve(testProg, func(p *sim.Proc, _ simnet.Addr, proc uint32, _, _ []byte) (Reply, Status) {
		r := proto.ReadReply{Status: proto.OK, Attr: proto.Fattr{Size: int64(proc)}, Data: page}
		return Encode(r.XDR), StatusOK
	})
	var first proto.ReadReply
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		if err := client.CallXDR(p, "server", testProg, 1, 1, nil, first.XDR); err != nil {
			t.Fatal(err)
		}
		for proc := uint32(2); proc < 6; proc++ {
			var r proto.ReadReply
			if err := client.CallXDR(p, "server", testProg, 1, proc, nil, r.XDR); err != nil || r.Attr.Size != int64(proc) {
				t.Errorf("read %d: %v, size %d", proc, err, r.Attr.Size)
			}
			p.Sleep(CallTimeout) // the Pending comes back too
		}
	})
	k.Run()
	if len(first.Data) != len(page) || &first.Data[0] != &page[0] || first.Attr.Size != 1 {
		t.Errorf("first read: %d bytes of data, size %d: want the page itself", len(first.Data), first.Attr.Size)
	}
	if w := server.Work(); !frozenCheck && (w.HeadsMade != 1 || w.HeadsReused != 4) {
		t.Errorf("reply heads made %d, reused %d: want 1 and 4", w.HeadsMade, w.HeadsReused)
	}
}

// TestRestartLetsGoOfRecordedHeads: a reboot discards the duplicate
// cache, and with it the cache's references: a reply head the caller has
// let go of goes back to the server's free list then.
func TestRestartLetsGoOfRecordedHeads(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	server.Register(testProg, tokenHandler)
	var h *replyHead
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		if _, err := client.Call(p, "server", testProg, 1, 1, token(4, 8)); err != nil {
			t.Fatal(err)
		}
		if h = server.dup.lookup(client.addr, 1).owner; h == nil || h.refs != 1 {
			t.Fatalf("recorded head %v: want it held by its cache slot alone", h)
		}
		server.Stop()
		server.Restart()
	})
	k.Run()
	if h.refs > 0 || !frozenCheck && len(server.heads[0])+len(server.heads[1]) != 1 {
		t.Errorf("after the restart the head has %d references, and the free lists %d and %d heads",
			h.refs, len(server.heads[0]), len(server.heads[1]))
	}
}

// TestHeadClasses: each class's object holds exactly its headCaps bytes,
// and a head goes to the smallest class that holds it.
func TestHeadClasses(t *testing.T) {
	for class, size := range headCaps {
		if n := len(makeHead(class).b); n != size {
			t.Errorf("class %d holds %d bytes, want %d", class, n, size)
		}
		if got := headClass(size); got != class {
			t.Errorf("a %d-byte head goes to class %d, want %d", size, got, class)
		}
		if got := headClass(size + 1); got != class+1 {
			t.Errorf("a %d-byte head goes to class %d, want %d", size+1, got, class+1)
		}
	}
}
