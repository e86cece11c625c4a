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
					c, err := client.Start(p, "server", testProg, 1, uint32(i), &proto.StatusReply{Status: proto.Status(i)})
					if err != nil {
						t.Errorf("start %d: %v", i, err)
					}
					calls[i] = c
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
		sig := sim.NewSignal(k)
		client.pending[1] = sig
		client.net.Send(client.addr, "server", enc.Bytes())
		v, got := sig.WaitTimeout(p, sim.Second)
		if !got {
			t.Error("no replayed reply")
			return
		}
		replay := v.(reply).body
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

// TestDrainedBacklogSlotIsCleared: popping the backlog re-slices it, so a
// consumed slot stays in the backing array until the next reallocation.
// It must be zeroed, or it keeps the served call's args — a view pinning
// the whole call wire image, 8 KiB+ for a WRITE — reachable from a server
// whose backlog is rarely empty for long.
func TestDrainedBacklogSlotIsCleared(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{Workers: 1})
	var slots []request // the backing array, as it stood with two calls queued
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		if slots == nil {
			p.Sleep(10 * sim.Millisecond) // the other two calls queue behind this one
			slots = server.backlog[:len(server.backlog):len(server.backlog)]
		}
		return nil, StatusOK
	})
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		var calls [3]*Pending
		for i := range calls {
			calls[i], _ = client.Start(p, "server", testProg, 1, 1, &proto.WriteArgs{Data: make([]byte, 8192)})
		}
		for i, c := range calls {
			if _, err := c.Wait(p); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	})
	k.Run()
	if len(slots) != 2 {
		t.Fatalf("%d calls queued behind the first, want 2", len(slots))
	}
	for i, r := range slots {
		if r.args != nil {
			t.Errorf("drained backlog slot %d still holds its request's %d-byte args", i, len(r.args))
		}
	}
}
