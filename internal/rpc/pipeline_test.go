package rpc

import (
	"bytes"
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/xdr"
)

// TestPipelinedCallsOverlap: N processes calling at once over one
// endpoint have all N calls on the wire together, so the batch completes
// in roughly one round trip instead of the N one caller pays in turn.
func TestPipelinedCallsOverlap(t *testing.T) {
	const depth = 8
	rtt := 2 * 10 * sim.Millisecond

	run := func(concurrent bool) sim.Duration {
		k := sim.NewKernel(1)
		client, server := newPair(k, simnet.Config{PropDelay: 10 * sim.Millisecond}, Options{Workers: depth})
		server.Register(testProg, echoHandler)
		call := func(p *sim.Proc, i int) {
			body, err := client.CallMsg(p, "server", testProg, 1, uint32(i), &proto.StatusReply{Status: proto.Status(i)})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if d := xdr.NewDecoder(body); d.Uint32() != uint32(i) {
				t.Errorf("call %d: reply for the wrong call", i)
			}
		}
		var elapsed sim.Duration
		k.Go("caller", func(p *sim.Proc) {
			start := k.Now()
			if concurrent {
				var wg sim.WaitGroup
				for i := 0; i < depth; i++ {
					wg.Add(1)
					k.Go("caller", func(cp *sim.Proc) {
						defer wg.Done()
						call(cp, i)
					})
				}
				wg.Wait(p)
			} else {
				for i := 0; i < depth; i++ {
					call(p, i)
				}
			}
			elapsed = k.Now().Sub(start)
			k.Stop()
		})
		k.Run()
		return elapsed
	}

	lockstep := run(false)
	pipelined := run(true)
	if lockstep < sim.Duration(depth)*rtt {
		t.Errorf("lockstep batch took %v, want >= %v", lockstep, sim.Duration(depth)*rtt)
	}
	if pipelined >= 2*rtt {
		t.Errorf("concurrent batch took %v, want < 2 RTT (%v)", pipelined, 2*rtt)
	}
}

// TestCallMsgMatchesMarshalledCall pins the byte-identity contract: a
// call issued with CallMsg produces exactly the reply (and wire
// behavior) of Call with proto.Marshal'd args.
func TestCallMsgMatchesMarshalledCall(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	var seen [][]byte
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		seen = append(seen, append([]byte(nil), args...))
		return nil, StatusOK
	})
	msg := &proto.WriteArgs{Offset: 4096, Data: []byte("same bytes both ways"), Unstable: true}
	k.Go("caller", func(p *sim.Proc) {
		if _, err := client.Call(p, "server", testProg, 1, 1, proto.Marshal(msg)); err != nil {
			t.Errorf("call: %v", err)
		}
		if _, err := client.CallMsg(p, "server", testProg, 1, 1, msg); err != nil {
			t.Errorf("callmsg: %v", err)
		}
		k.Stop()
	})
	k.Run()
	if len(seen) != 2 || !bytes.Equal(seen[0], seen[1]) {
		t.Fatalf("CallMsg args differ from Marshal'd Call args: %x vs %x", seen[0], seen[1])
	}
}

// TestDupCacheReplaysRecordedImage pins what the duplicate cache promises
// now that a transmitted image is frozen: a retransmission of a completed
// call is answered, without re-execution, by resending the very image the
// first reply went out in — no private copy at finish, none per replay.
// The reply is a READ's, so the image is a head and a tail, the tail the
// handler's data itself, and the replay carries both, byte for byte.
func TestDupCacheReplaysRecordedImage(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	page := bytes.Repeat([]byte("page"), 2048)
	want := proto.Marshal(&proto.ReadReply{Status: proto.OK, Data: page})
	served := 0
	server.Serve(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args, _ []byte) (Reply, Status) {
		served++
		r := proto.ReadReply{Status: proto.OK, Data: page}
		return Encode(r.XDR), StatusOK
	})
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		body, err := client.Call(p, "server", testProg, 1, 1, nil) // xid 1
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		if !bytes.Equal(body, want) {
			t.Errorf("first reply is %d bytes, want the %d of proto.Marshal", len(body), len(want))
		}
		rec := server.dup.lookup(client.addr, 1)
		state, head, tail := rec.state, rec.head, rec.tail
		if state != dupDone || len(tail) != len(page) || &tail[0] != &page[0] {
			t.Fatalf("the recorded image's tail is %d bytes, want the handler's page itself", len(tail))
		}
		// Hand-retransmit the same call (same from, same xid).
		enc := xdr.NewEncoder()
		enc.Uint32(1) // xid of the first call
		enc.Uint32(msgCall)
		enc.Uint32(testProg)
		enc.Uint32(1)
		enc.Uint32(1)
		enc.Uint64(0)
		again := &Pending{e: client, refs: 1} // the caller's reference
		client.pending[1] = again
		client.net.Send(client.addr, "server", enc.Bytes())
		if !again.await(p, sim.Second) {
			t.Error("no replayed reply")
			return
		}
		if replay := xdr.Join(again.body, again.tail); !bytes.Equal(replay, body) {
			t.Errorf("replayed reply differs from the first: %d bytes, want %d", len(replay), len(body))
		}
		if &again.body[0] != &head[len(head)-len(again.body)] || &again.tail[0] != &tail[0] {
			t.Error("replay is a copy: want the transmitted head and tail recorded and resent as they are")
		}
		if server.Stats().DupHits != 1 {
			t.Errorf("DupHits = %d, want 1", server.Stats().DupHits)
		}
		if served != 1 {
			t.Errorf("%d calls served, want 1 (replay must not re-execute)", served)
		}
	})
	k.Run()
}

// TestDupCacheFinishRecordsImage pins the unit-level contract of finish:
// it records the slices it is handed — the transmitted head and tail —
// and allocates nothing doing so.
func TestDupCacheFinishRecordsImage(t *testing.T) {
	c := newDupCache(4, nil)
	c.start("cl", 7)
	head, tail := []byte{1, 2, 3, 4}, []byte{5, 6, 7, 8}
	if n := testing.AllocsPerRun(100, func() { c.finish("cl", 7, head, tail, nil) }); n != 0 {
		t.Errorf("finish allocates %v objects, want 0", n)
	}
	rec := c.lookup("cl", 7)
	state, gotHead, gotTail := rec.state, rec.head, rec.tail
	if state != dupDone || &gotHead[0] != &head[0] || &gotTail[0] != &tail[0] {
		t.Errorf("state=%v head=%x tail=%x: want done and the recorded slices themselves", state, gotHead, gotTail)
	}
	c.finish("cl", 8, head, tail, nil) // evicted (never started): a no-op, not a panic
	if state := c.lookup("cl", 8).state; state != dupNew {
		t.Errorf("finish of an unknown entry created one: state=%v", state)
	}
}

// TestDrainedBacklogSlotIsCleared: taking a call leaves its slot in the
// queue's ring until the ring comes round to it again. It must be zeroed,
// or it keeps the served call's args and tail — views pinning the call's
// wire image, a WRITE's 8 KiB tail the sender's block — reachable from a
// server whose backlog is rarely empty for long.
func TestDrainedBacklogSlotIsCleared(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{Workers: 1})
	queued := -1 // calls waiting behind the first, once they have had time to arrive
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		if queued < 0 {
			p.Sleep(10 * sim.Millisecond)
			queued = server.queue.n
			for i := 0; i < queued; i++ {
				if r := server.queue.at(i); len(r.args)+len(r.tail) < 8192 {
					t.Errorf("waiting call %d has %d bytes of args and %d of tail", i, len(r.args), len(r.tail))
				}
			}
		}
		return nil, StatusOK
	})
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		var calls [3]*Pending
		for i := range calls {
			calls[i] = client.start(p, "server", testProg, 1, 1, (&proto.WriteArgs{Data: make([]byte, 8192)}).XDR, CallTimeout, MaxRetries)
		}
		for i, c := range calls {
			if err := c.wait(p); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	})
	k.Run()
	if queued != 2 {
		t.Fatalf("%d calls queued behind the first, want 2", queued)
	}
	if server.queue.n != 0 || server.handed != 0 || server.serving != 0 {
		t.Errorf("after the run: %d queued, %d handed, %d serving, want none", server.queue.n, server.handed, server.serving)
	}
	for i, r := range server.queue.buf {
		if r.args != nil || r.tail != nil {
			t.Errorf("drained queue slot %d still holds its request's %d-byte args and %d-byte tail", i, len(r.args), len(r.tail))
		}
	}
}

// TestPipelinedCallsCollectedOutOfOrder: calls of many processes are
// outstanding at once on one endpoint, and each reply lands in whatever
// order the server finishes, into the Pending of its own xid and so to
// its own caller; a call whose attempt or answer was lost still
// retransmits on its own schedule. order is the order the callers issue
// their calls in, so xids and finishing order differ from one to the next.
func TestPipelinedCallsCollectedOutOfOrder(t *testing.T) {
	const depth = 6
	for _, order := range [][depth]int{
		{0, 1, 2, 3, 4, 5}, // the last issued answers first
		{5, 4, 3, 2, 1, 0}, // as they were issued
		{3, 0, 5, 1, 4, 2},
	} {
		k := sim.NewKernel(1)
		// Every fourth message is lost: a call first, then replies.
		client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond, DropEvery: 4},
			Options{Workers: depth})
		server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
			p.Sleep(sim.Duration(depth-proc) * sim.Millisecond) // the last call answers first
			return args, StatusOK
		})
		k.Go("main", func(p *sim.Proc) {
			defer k.Stop()
			var wg sim.WaitGroup
			for j, i := range order {
				wg.Add(1)
				k.Go("caller", func(cp *sim.Proc) {
					defer wg.Done()
					cp.Sleep(sim.Duration(j) * sim.Microsecond) // issue in order
					body, err := client.CallMsg(cp, "server", testProg, 1, uint32(i), &proto.StatusReply{Status: proto.Status(100 + i)})
					if err != nil {
						t.Errorf("order %v: call %d: %v", order, i, err)
						return
					}
					var r proto.StatusReply
					if r.XDR(xdr.NewDecoder(body).Codec()); r.Status != proto.Status(100+i) {
						t.Errorf("order %v: call %d collected the reply to call %d", order, i, r.Status-100)
					}
				})
			}
			wg.Wait(p)
		})
		k.Run()
		if st := client.Stats(); st.Retransmits == 0 || st.Timeouts != 0 || len(client.pending) != 0 {
			t.Errorf("order %v: %d retransmits, %d timeouts, %d still pending, want some, 0, 0",
				order, st.Retransmits, st.Timeouts, len(client.pending))
		}
	}
}

// TestRecycledDupSlotDropsImage: a full duplicate cache starts a new call
// in its oldest slot. The slot must come back empty — the evicted call's
// reply image, head and an 8 KiB tail for a READ, let go at once and not
// when the new call finishes, which for a slow handler is much later.
func TestRecycledDupSlotDropsImage(t *testing.T) {
	c := newDupCache(2, nil)
	for xid := uint32(1); xid <= 2; xid++ {
		c.start("a", xid)
		c.finish("a", xid, make([]byte, 100), make([]byte, 8192), nil)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.start("a", 3) // recycles xid 1's slot the first time round, then finds itself
	}); allocs != 0 && !raceEnabled {
		t.Errorf("starting a call in a full cache allocates %v objects, want 0", allocs)
	}
	if len(c.ring) != 2 || len(c.slot) != 2 {
		t.Fatalf("ring holds %d entries, index %d, want 2 and 2", len(c.ring), len(c.slot))
	}
	for i, e := range c.ring {
		switch e.key.xid {
		case 3:
			if e.state != dupInProgress || e.head != nil || e.tail != nil {
				t.Errorf("recycled slot %d: state %v, the evicted call's %d-byte head and %d-byte tail",
					i, e.state, len(e.head), len(e.tail))
			}
		case 2:
			if e.state != dupDone || len(e.head) != 100 || len(e.tail) != 8192 {
				t.Errorf("slot %d: the surviving call lost its image (state %v, %d+%d bytes)", i, e.state, len(e.head), len(e.tail))
			}
		default:
			t.Errorf("slot %d holds xid %d", i, e.key.xid)
		}
	}
}
