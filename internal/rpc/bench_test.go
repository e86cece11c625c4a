package rpc

import (
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/xdr"
)

// BenchmarkSimulatedRPCRoundTrip measures the host cost of one simulated
// call/reply exchange (the dominant cost of running experiments).
func BenchmarkSimulatedRPCRoundTrip(b *testing.B) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	server.Register(testProg, echoHandler)
	b.ReportAllocs()
	b.ResetTimer()
	k.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := client.Call(p, "server", testProg, 1, 1, nil); err != nil {
				b.Errorf("call: %v", err)
				break
			}
		}
		k.Stop()
	})
	k.Run()
}

// BenchmarkSimulatedRPCWrite8K is the same exchange carrying an 8 KiB
// WRITE encoded straight from the message (CallMsg): the pooled encoder
// and zero-copy dispatch leave only the GC-owned wire images allocating.
func BenchmarkSimulatedRPCWrite8K(b *testing.B) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		return nil, StatusOK
	})
	msg := &proto.WriteArgs{Offset: 8192, Data: make([]byte, 8192), Unstable: true}
	b.SetBytes(8192)
	b.ReportAllocs()
	b.ResetTimer()
	k.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := client.CallMsg(p, "server", testProg, 1, 1, msg); err != nil {
				b.Errorf("call: %v", err)
				break
			}
		}
		k.Stop()
	})
	k.Run()
}

// benchTCPServer serves echo over a loopback listener with the
// production framing (RecordReader in, WriteRecord out), optionally
// delaying each reply to model a network round trip; it decodes just
// enough of the call header to answer by xid.
func benchTCPServer(b *testing.B, delay time.Duration) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				rr := NewRecordReader(conn)
				var wmu sync.Mutex
				var d xdr.Decoder
				for {
					rec, err := rr.Next()
					if err != nil {
						return
					}
					d.Reset(rec)
					xid := d.Uint32()
					reply := func() {
						enc := xdr.GetEncoder()
						enc.Uint32(xid)
						enc.Uint32(msgReply)
						enc.Uint32(uint32(StatusOK))
						wmu.Lock()
						WriteRecord(conn, enc.Bytes())
						wmu.Unlock()
						enc.Release()
					}
					if delay > 0 {
						// Concurrent per-call delay: a pipelined client
						// overlaps these waits, a lockstep client pays
						// them serially.
						go func() { time.Sleep(delay); reply() }()
					} else {
						reply()
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// benchmarkTCPPipelined drives an 8 KiB WRITE over a real loopback
// connection with the given number of calls in flight.
func benchmarkTCPPipelined(b *testing.B, depth int) {
	addr := benchTCPServer(b, 0)
	c, err := DialTCP(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	args := proto.Marshal(&proto.WriteArgs{Offset: 8192, Data: make([]byte, 8192), Unstable: true})
	b.SetBytes(8192)
	b.ReportAllocs()
	b.ResetTimer()
	pending := make([]*TCPPending, 0, depth)
	for i := 0; i < b.N; i++ {
		p, err := c.Start(proto.ProgNFS, proto.VersNFS, proto.ProcWrite, args)
		if err != nil {
			b.Fatal(err)
		}
		pending = append(pending, p)
		if len(pending) == depth {
			for _, p := range pending {
				if _, err := p.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			pending = pending[:0]
		}
	}
	for _, p := range pending {
		if _, err := p.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPRoundTrip8K measures the real-TCP wire path at pipeline
// depths 1 (lockstep), 8, and 32.
func BenchmarkTCPRoundTrip8K(b *testing.B) {
	for _, depth := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			benchmarkTCPPipelined(b, depth)
		})
	}
}

// ioSyscalls reads this process's count of read- and write-family system
// calls from /proc/self/io; ok is false where there is no such file.
func ioSyscalls() (n int64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, "syscr: %d", &v); err == nil {
			n += v
		} else if _, err := fmt.Sscanf(line, "syscw: %d", &v); err == nil {
			n += v
		}
	}
	return n, true
}

// BenchmarkLiveRoundTrip measures the daemon's whole live path — DialTCP,
// Gateway, Inject, an endpoint under RunRealtime and back — with depth
// closed loops sharing one connection, as the benchmark's daemon
// workload drives it. Both ends are this process, so syscalls/op counts
// the reads and writes of client and gateway together: four at depth 1
// (a write and a read at each end), fewer as bursts share them.
func BenchmarkLiveRoundTrip(b *testing.B) {
	block := make([]byte, 8192)
	for _, bc := range []struct {
		name string
		proc uint32
		args []byte
	}{{"null", 1, nil}, {"read8k", 2, nil}, {"write8k", 1, block}} {
		for _, depth := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/depth%d", bc.name, depth), func(b *testing.B) {
				addr := startLive(b, 8, func(ep *Endpoint) {
					ep.Register(testProg, func(_ *sim.Proc, _ simnet.Addr, proc uint32, _ []byte) ([]byte, Status) {
						if proc == 2 {
							return block, StatusOK
						}
						return nil, StatusOK
					})
				})
				c, err := DialTCP(addr)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				b.ReportAllocs()
				b.ResetTimer()
				before, counted := ioSyscalls()
				var wg sync.WaitGroup
				for l := 0; l < depth; l++ {
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if _, err := c.Call(testProg, 1, bc.proc, bc.args); err != nil {
								b.Error(err)
								return
							}
						}
					}((b.N + l) / depth)
				}
				wg.Wait()
				if after, _ := ioSyscalls(); counted {
					b.ReportMetric(float64(after-before)/float64(b.N), "syscalls/op")
				}
			})
		}
	}
}
