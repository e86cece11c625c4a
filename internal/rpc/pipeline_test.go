package rpc

import (
	"bytes"
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/xdr"
)

// TestPipelinedCallsOverlap issues N calls with Start before collecting
// any reply: all N must be on the wire concurrently, so the batch
// completes in roughly one round trip instead of N.
func TestPipelinedCallsOverlap(t *testing.T) {
	const depth = 8
	rtt := 2 * 10 * sim.Millisecond

	run := func(pipelined bool) sim.Duration {
		k := sim.NewKernel(1)
		client, server := newPair(k, simnet.Config{PropDelay: 10 * sim.Millisecond}, Options{Workers: depth})
		server.Register(testProg, echoHandler)
		var elapsed sim.Duration
		k.Go("caller", func(p *sim.Proc) {
			start := k.Now()
			if pipelined {
				var calls [depth]*Pending
				for i := range calls {
					calls[i] = client.Start(p, "server", testProg, 1, uint32(i), &proto.StatusReply{Status: proto.Status(i)})
				}
				for i, c := range calls {
					body, err := c.Wait(p)
					if err != nil {
						t.Errorf("wait %d: %v", i, err)
						continue
					}
					d := xdr.NewDecoder(body)
					if d.Uint32() != uint32(i) {
						t.Errorf("call %d: reply for the wrong call", i)
					}
				}
			} else {
				for i := 0; i < depth; i++ {
					if _, err := client.CallMsg(p, "server", testProg, 1, uint32(i), &proto.StatusReply{Status: proto.Status(i)}); err != nil {
						t.Errorf("call %d: %v", i, err)
					}
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
		t.Errorf("pipelined batch took %v, want < 2 RTT (%v)", pipelined, 2*rtt)
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
// now that a transmitted buffer is frozen: a retransmission of a completed
// call is answered, without re-execution, by resending the very image the
// first reply went out in — no private copy at finish, none per replay.
func TestDupCacheReplaysRecordedImage(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	payload := []byte("stable reply payload")
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		return payload, StatusOK
	})
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		body, err := client.Call(p, "server", testProg, 1, 1, nil) // xid 1
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		if !bytes.Equal(body, payload) {
			t.Errorf("first reply %q, want %q", body, payload)
		}
		// Hand-retransmit the same call (same from, same xid).
		enc := xdr.NewEncoder()
		enc.Uint32(1) // xid of the first call
		enc.Uint32(msgCall)
		enc.Uint32(testProg)
		enc.Uint32(1)
		enc.Uint32(1)
		enc.Uint64(0)
		again := &Pending{e: client}
		client.pending[1] = again
		client.net.Send(client.addr, "server", enc.Bytes())
		if !again.await(p, sim.Second) {
			t.Error("no replayed reply")
			return
		}
		replay := again.body
		if !bytes.Equal(replay, payload) {
			t.Errorf("replayed reply %q, want %q", replay, payload)
		}
		if &replay[0] != &body[0] {
			t.Error("replay is a copy: want the transmitted image recorded and resent as is")
		}
		if server.Stats().DupHits != 1 {
			t.Errorf("DupHits = %d, want 1", server.Stats().DupHits)
		}
		if server.Stats().CallsServed != 1 {
			t.Errorf("CallsServed = %d, want 1 (replay must not re-execute)", server.Stats().CallsServed)
		}
	})
	k.Run()
}

// TestDupCacheFinishRecordsImage pins the unit-level contract of finish:
// it records the slice it is handed — the transmitted image — and
// allocates nothing doing so.
func TestDupCacheFinishRecordsImage(t *testing.T) {
	c := newDupCache(4, nil)
	c.start("cl", 7)
	wire := []byte{1, 2, 3, 4}
	if n := testing.AllocsPerRun(100, func() { c.finish("cl", 7, wire) }); n != 0 {
		t.Errorf("finish allocates %v objects, want 0", n)
	}
	state, cached := c.lookup("cl", 7)
	if state != dupDone || &cached[0] != &wire[0] {
		t.Errorf("state=%v cached=%x: want done and the recorded slice itself", state, cached)
	}
	c.finish("cl", 8, wire) // evicted (never started): a no-op, not a panic
	if state, _ := c.lookup("cl", 8); state != dupNew {
		t.Errorf("finish of an unknown entry created one: state=%v", state)
	}
}

// TestDrainedBacklogSlotIsCleared: taking a call leaves its slot in the
// queue's ring until the ring comes round to it again. It must be zeroed,
// or it keeps the served call's args — a view pinning the whole call wire
// image, 8 KiB+ for a WRITE — reachable from a server whose backlog is
// rarely empty for long.
func TestDrainedBacklogSlotIsCleared(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{Workers: 1})
	queued := -1 // calls waiting behind the first, once they have had time to arrive
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		if queued < 0 {
			p.Sleep(10 * sim.Millisecond)
			queued = server.queue.n
			for i := 0; i < queued; i++ {
				if len(server.queue.at(i).args) < 8192 {
					t.Errorf("waiting call %d has %d bytes of args", i, len(server.queue.at(i).args))
				}
			}
		}
		return nil, StatusOK
	})
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		var calls [3]*Pending
		for i := range calls {
			calls[i] = client.Start(p, "server", testProg, 1, 1, &proto.WriteArgs{Data: make([]byte, 8192)})
		}
		for i, c := range calls {
			if _, err := c.Wait(p); err != nil {
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
		if r.args != nil {
			t.Errorf("drained queue slot %d still holds its request's %d-byte args", i, len(r.args))
		}
	}
}

// TestPipelinedCallsCollectedOutOfOrder: replies land in whatever order
// the server finishes, into the Pending of their own xid, whether or not
// a caller is parked on it yet; Wait may then collect in any order, and a
// call whose attempt or answer was lost still retransmits from its Wait.
func TestPipelinedCallsCollectedOutOfOrder(t *testing.T) {
	const depth = 6
	for _, order := range [][depth]int{
		{0, 1, 2, 3, 4, 5}, // parked on the slowest while the others land
		{5, 4, 3, 2, 1, 0}, // as they land
		{3, 0, 5, 1, 4, 2},
	} {
		k := sim.NewKernel(1)
		// Every fourth message is lost: call 3 first, then replies.
		client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond, DropEvery: 4},
			Options{Workers: depth, CallTimeout: 50 * sim.Millisecond})
		server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
			p.Sleep(sim.Duration(depth-proc) * sim.Millisecond) // the last call answers first
			return args, StatusOK
		})
		k.Go("caller", func(p *sim.Proc) {
			defer k.Stop()
			var calls [depth]*Pending
			for i := range calls {
				calls[i] = client.Start(p, "server", testProg, 1, uint32(i), &proto.StatusReply{Status: proto.Status(100 + i)})
			}
			for _, i := range order {
				body, err := calls[i].Wait(p)
				if err != nil {
					t.Errorf("order %v: wait %d: %v", order, i, err)
					continue
				}
				if got := proto.DecodeStatusReply(xdr.NewDecoder(body)).Status; got != proto.Status(100+i) {
					t.Errorf("order %v: call %d collected the reply to call %d", order, i, got-100)
				}
			}
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
// reply image, 8 KiB+ for a READ, let go at once and not when the new
// call finishes, which for a slow handler is much later.
func TestRecycledDupSlotDropsImage(t *testing.T) {
	c := newDupCache(2, nil)
	for xid := uint32(1); xid <= 2; xid++ {
		c.start("a", xid)
		c.finish("a", xid, make([]byte, 8192))
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
			if e.state != dupInProgress || e.wire != nil {
				t.Errorf("recycled slot %d: state %v, %d-byte image of the evicted call", i, e.state, len(e.wire))
			}
		case 2:
			if e.state != dupDone || len(e.wire) != 8192 {
				t.Errorf("slot %d: the surviving call lost its image (state %v, %d bytes)", i, e.state, len(e.wire))
			}
		default:
			t.Errorf("slot %d holds xid %d", i, e.key.xid)
		}
	}
}
