package client

import (
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
)

// TestRecoverBackoffExactElapsed pins the recovery retry schedule to the
// tick. Each Reopen attempt against an unreachable server burns the whole
// default RPC schedule (1+2+4+8+16 s = 31 s), and between attempts the
// recovery path sleeps its own doubling backoff: 200, 400 and 800 ms.
// Four attempts, then the file is abandoned:
//
//	31 s + 200 ms + 31 s + 400 ms + 31 s + 800 ms + 31 s = 125.4 s
func TestRecoverBackoffExactElapsed(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{PropDelay: 0, BytesPerSec: 0})
	ep := rpc.NewEndpoint(k, net, "c0", rpc.Options{Workers: 1})
	cfg := Config{
		// No one listens at this address: every call times out after
		// the whole retransmit schedule.
		Server:    "deadserver",
		Root:      proto.Handle{FSID: 1, Ino: 1, Gen: 1},
		BlockSize: 4096,
	}
	c := NewSNFS(k, ep, cfg, SNFSOptions{})

	// One file the server believed open: recovery must re-register it.
	h := proto.Handle{FSID: 1, Ino: 2, Gen: 1}
	n := c.getNode(h)
	n.rec.Readers = 1

	var elapsed sim.Duration
	k.Go("test-main", func(p *sim.Proc) {
		defer k.Stop()
		start := p.Now()
		c.recover(p)
		elapsed = p.Now().Sub(start)
	})
	k.Run()

	want := 125*sim.Second + 400*sim.Millisecond
	if elapsed != want {
		t.Fatalf("recovery against a dead server took %v, want exactly %v", elapsed, want)
	}
	if st := ep.Stats(); st.CallsSent != 4 || st.Timeouts != 4 {
		t.Errorf("%d Reopen calls, %d timed out, want 4 and 4: one try and three retries", st.CallsSent, st.Timeouts)
	}
}
