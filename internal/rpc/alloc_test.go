package rpc

import (
	"bytes"
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/xdr"
)

// TestNullRoundTripAllocs budgets one null simulated call/reply exchange —
// the floor under every server and client operation — with every
// instrument off: an instrument that is off costs nothing here, and
// neither does the bookkeeping. What is left is what DESIGN.md §14 says
// cannot be handed on: the call's wire image, its Pending, the reply's
// wire image.
func TestNullRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const budget = 4 // 3 measured; 16 with a signal, closures and a dup entry per call
	for _, pool := range pools {
		k := sim.NewKernel(1)
		client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{Exec: pool.exec(k)})
		server.Register(testProg, func(*sim.Proc, simnet.Addr, uint32, []byte) ([]byte, Status) {
			return nil, StatusOK
		})
		var allocs float64
		k.Go("caller", func(p *sim.Proc) {
			defer k.Stop()
			allocs = testing.AllocsPerRun(200, func() {
				if _, err := client.Call(p, "server", testProg, 1, 1, nil); err != nil {
					t.Errorf("call: %v", err)
				}
			})
		})
		k.Run()
		if allocs > budget {
			t.Errorf("%s pool: null round trip allocates %v objects, budget %d", pool.name, allocs, budget)
		}
	}
}

// TestLiveNullRoundTripAllocs budgets the same exchange on the live path:
// DialTCP, the gateway, Inject, an endpoint under RunRealtime and back,
// every goroutine's allocations counted. The server half of the
// simulated exchange is in here, plus the record and the Inject closure
// at the gateway and the reply channel and TCPPending at the client.
func TestLiveNullRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const budget = 7 // 6 measured; 13 while the server half allocated its bookkeeping
	c, err := DialTCP(startLive(t, 2, nullProg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := c.Call(testProg, 1, 1, nil); err != nil {
			t.Errorf("call: %v", err)
		}
	})
	if allocs > budget {
		t.Errorf("live null round trip allocates %v objects, budget %d", allocs, budget)
	}
}

// TestCodecRoundTripAllocs budgets the pooled wire codec: an 8 KiB WRITE
// through pooled encode, record framing, record reading and zero-copy
// decode allocates at most 2 objects (DESIGN.md §14).
func TestCodecRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	msg := &proto.WriteArgs{
		Handle: proto.Handle{Ino: 42, Gen: 7}, Offset: 8192,
		Data: bytes.Repeat([]byte{0xa5}, 8192), Unstable: true,
	}
	var frame bytes.Buffer
	var br bytes.Reader
	rr := NewRecordReader(&br)
	var d xdr.Decoder
	allocs := testing.AllocsPerRun(200, func() {
		enc := xdr.GetEncoder()
		msg.Encode(enc)
		frame.Reset()
		if err := WriteRecord(&frame, enc.Bytes()); err != nil {
			t.Fatal(err)
		}
		enc.Release()
		br.Reset(frame.Bytes())
		rec, err := rr.Next()
		if err != nil {
			t.Fatal(err)
		}
		d.Reset(rec)
		if got := proto.DecodeWriteArgs(&d); d.Err() != nil || !bytes.Equal(got.Data, msg.Data) {
			t.Fatalf("decode: err=%v, %d data bytes", d.Err(), len(got.Data))
		}
	})
	if allocs > 2 {
		t.Errorf("8 KiB WRITE codec round trip allocates %v objects, budget 2", allocs)
	}
}
