package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/xdr"
)

// The wire experiment measures the host-side cost of the RPC wire path —
// the thing that bounds both a real mount's throughput and every
// simulator sweep's wall-clock. Two oracles:
//
//  1. An 8 KiB WRITE pushed through the full codec: pooled XDR encode →
//     record framing → record reading → zero-copy decode. The pooled
//     path must stay within wireMaxAllocs allocations per round trip
//     (the seed paid one allocation per field).
//  2. Pipelined TCP throughput over loopback against a server that
//     charges each call a concurrent wireServiceDelay (modeling a
//     network round trip): depth-8 pipelining must beat depth-1
//     lockstep by at least wireMinSpeedup. The ratio is
//     machine-independent, so CI can gate on it.
const (
	wireMaxAllocs    = 2
	wireMinSpeedup   = 3.0
	wireServiceDelay = 500 * time.Microsecond
	wirePipelineOps  = 1000
)

// wireJSON is the machine-readable summary (results/BENCH_wire.json),
// consumed by the CI wire-regression job.
type wireJSON struct {
	Experiment  string           `json:"experiment"`
	MaxAllocs   int64            `json:"max_allocs_per_op"`
	MinSpeedup  float64          `json:"min_pipeline_speedup"`
	RoundTrip8K wireRoundJSON    `json:"roundtrip_8k"`
	Pipeline    wirePipelineJSON `json:"pipeline"`
}

type wireRoundJSON struct {
	NsOp     int64   `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	MBs      float64 `json:"mb_s"`
}

type wirePipelineJSON struct {
	ServiceDelayUs int64              `json:"service_delay_us"`
	Depths         map[string]float64 `json:"ops_s_by_depth"`
	Speedup8       float64            `json:"speedup_depth8"`
	Speedup32      float64            `json:"speedup_depth32"`
}

// wireRoundTrip benchmarks encode → frame → read → decode of an 8 KiB
// WRITE through the pooled/zero-copy path.
func wireRoundTrip() wireRoundJSON {
	msg := &proto.WriteArgs{
		Handle:   proto.Handle{Ino: 42, Gen: 7},
		Offset:   8192,
		Data:     bytes.Repeat([]byte{0xa5}, 8192),
		Unstable: true,
	}
	res := testing.Benchmark(func(b *testing.B) {
		var frame bytes.Buffer
		var br bytes.Reader
		rr := rpc.NewRecordReader(&br)
		var d xdr.Decoder
		b.SetBytes(8192)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc := xdr.GetEncoder()
			msg.Encode(enc)
			frame.Reset()
			rpc.WriteRecord(&frame, enc.Bytes())
			enc.Release()
			br.Reset(frame.Bytes())
			rec, err := rr.Next()
			if err != nil {
				b.Fatalf("read record: %v", err)
			}
			d.Reset(rec)
			got := proto.DecodeWriteArgs(&d)
			if d.Err() != nil || len(got.Data) != len(msg.Data) {
				b.Fatalf("decode: err=%v len=%d", d.Err(), len(got.Data))
			}
		}
	})
	nsOp := res.NsPerOp()
	mbs := 0.0
	if nsOp > 0 {
		mbs = 8192.0 / float64(nsOp) * 1e9 / 1e6
	}
	return wireRoundJSON{NsOp: nsOp, AllocsOp: res.AllocsPerOp(), MBs: mbs}
}

// wireServer answers each call OK after a concurrent wireServiceDelay,
// so a pipelined client overlaps the waits and a lockstep client pays
// them serially — a loopback stand-in for network latency.
func wireServer() (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				rr := rpc.NewRecordReader(conn)
				var wmu sync.Mutex
				var d xdr.Decoder
				for {
					rec, err := rr.Next()
					if err != nil {
						return
					}
					d.Reset(rec)
					xid := d.Uint32()
					go func(xid uint32) {
						time.Sleep(wireServiceDelay)
						enc := xdr.GetEncoder()
						enc.Uint32(xid)
						enc.Uint32(1) // msgReply
						enc.Uint32(0) // StatusOK
						wmu.Lock()
						rpc.WriteRecord(conn, enc.Bytes())
						wmu.Unlock()
						enc.Release()
					}(xid)
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }, nil
}

// wireThroughput drives wirePipelineOps 8 KiB WRITEs at the given
// pipeline depth and returns the achieved ops/s.
func wireThroughput(addr string, depth int) (float64, error) {
	c, err := rpc.DialTCP(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	args := proto.Marshal(&proto.WriteArgs{Offset: 0, Data: make([]byte, 8192), Unstable: true})
	window := make([]*rpc.TCPPending, 0, depth)
	drain := func() error {
		for _, p := range window {
			if _, err := p.Wait(); err != nil {
				return err
			}
		}
		window = window[:0]
		return nil
	}
	start := time.Now()
	for i := 0; i < wirePipelineOps; i++ {
		p, err := c.Start(proto.ProgNFS, proto.VersNFS, proto.ProcWrite, args)
		if err != nil {
			return 0, err
		}
		window = append(window, p)
		if len(window) == depth {
			if err := drain(); err != nil {
				return 0, err
			}
		}
	}
	if err := drain(); err != nil {
		return 0, err
	}
	return float64(wirePipelineOps) / time.Since(start).Seconds(), nil
}

// wireExperiment runs both oracles, renders the table, self-checks the
// acceptance floors, and writes results/BENCH_wire.json.
func wireExperiment(w io.Writer) error {
	rt := wireRoundTrip()
	fmt.Fprintf(w, "8 KiB WRITE encode+frame+decode (pooled, zero-copy):\n")
	fmt.Fprintf(w, "  %8d ns/op  %d allocs/op  %.0f MB/s\n\n", rt.NsOp, rt.AllocsOp, rt.MBs)

	addr, stop, err := wireServer()
	if err != nil {
		return err
	}
	defer stop()
	depths := []int{1, 8, 32}
	ops := make(map[string]float64, len(depths))
	fmt.Fprintf(w, "pipelined 8 KiB WRITE over loopback TCP (%v concurrent service delay, %d ops):\n",
		wireServiceDelay, wirePipelineOps)
	for _, depth := range depths {
		v, err := wireThroughput(addr, depth)
		if err != nil {
			return fmt.Errorf("depth %d: %w", depth, err)
		}
		ops[fmt.Sprint(depth)] = v
		fmt.Fprintf(w, "  depth %2d: %8.0f ops/s\n", depth, v)
	}
	doc := wireJSON{
		Experiment:  "wire",
		MaxAllocs:   wireMaxAllocs,
		MinSpeedup:  wireMinSpeedup,
		RoundTrip8K: rt,
		Pipeline: wirePipelineJSON{
			ServiceDelayUs: wireServiceDelay.Microseconds(),
			Depths:         ops,
			Speedup8:       ops["8"] / ops["1"],
			Speedup32:      ops["32"] / ops["1"],
		},
	}
	fmt.Fprintf(w, "  speedup: depth8 %.2fx, depth32 %.2fx over lockstep\n",
		doc.Pipeline.Speedup8, doc.Pipeline.Speedup32)

	// Self-checks: the acceptance floors travel with the experiment.
	if rt.AllocsOp > wireMaxAllocs {
		return fmt.Errorf("wire: round trip costs %d allocs/op, want <= %d", rt.AllocsOp, wireMaxAllocs)
	}
	if doc.Pipeline.Speedup8 < wireMinSpeedup {
		return fmt.Errorf("wire: depth-8 pipelining only %.2fx over lockstep, want >= %.1fx",
			doc.Pipeline.Speedup8, wireMinSpeedup)
	}
	return writeOutput(w, "\nCSV", "BENCH_wire.json", asJSON(doc))
}
