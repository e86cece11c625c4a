package rpc

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/xdr"
)

func TestRecordFraming(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{7}, 10000)}
	for _, p := range payloads {
		if err := WriteRecord(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	rr := NewRecordReader(&buf)
	for i, want := range payloads {
		got, err := rr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}

// within reports whether b is a view of buf's backing array.
func within(b, buf []byte) bool {
	if len(b) == 0 {
		return true
	}
	buf = buf[:cap(buf)]
	for i := range buf {
		if &buf[i] == &b[0] {
			return len(b) <= len(buf)-i
		}
	}
	return false
}

// TestRecordReaderReusesBuffer pins the zero-alloc contract: once the
// reader's buffer is sized, every record Next returns is a view of it,
// and a record NextOwned returns never is.
func TestRecordReaderReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	big := bytes.Repeat([]byte{1}, 8192)
	small := []byte("tiny")
	WriteRecord(&buf, big)
	WriteRecord(&buf, small)
	WriteRecord(&buf, small)
	rr := NewRecordReader(&buf)
	first, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, big) {
		t.Fatalf("first record corrupt")
	}
	backing := rr.buf
	second, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second, small) {
		t.Fatalf("second record corrupt: %q", second)
	}
	// Both records live in the same backing array.
	if &rr.buf[0] != &backing[0] || !within(first, rr.buf) || !within(second, rr.buf) {
		t.Error("record buffer not reused across Next calls")
	}
	owned, err := rr.NextOwned()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(owned, small) || cap(owned) != len(small) || within(owned, rr.buf) {
		t.Errorf("owned record %q (cap %d) is not an exact-size buffer of its own", owned, cap(owned))
	}
}

// chunkReader hands out its stream in reads of the given sizes, then in
// whole: the segment boundaries a TCP stream may fall on.
type chunkReader struct {
	data   []byte
	chunks []int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(c.data)
	if len(c.chunks) > 0 {
		n, c.chunks = c.chunks[0], c.chunks[1:]
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	return n, nil
}

// TestRecordReaderAcrossReadBoundaries frames the same stream however
// the reads fall — mid-header, mid-body, many records per read, bodies
// longer than the reader's buffer — through both Next and NextOwned, and
// ends with io.EOF between records and io.ErrUnexpectedEOF inside one.
func TestRecordReaderAcrossReadBoundaries(t *testing.T) {
	reader := func(r io.Reader, owned bool) func() ([]byte, error) {
		rr := NewRecordReader(r)
		if owned {
			return rr.NextOwned
		}
		return rr.Next
	}
	var want [][]byte
	var stream bytes.Buffer
	for i, n := range []int{0, 1, 3, 100, readBufSize - 4, readBufSize, 3 * readBufSize, 5, 8192, 8192, 7} {
		rec := bytes.Repeat([]byte{byte(i + 1)}, n)
		want = append(want, rec)
		WriteRecord(&stream, rec)
	}
	for _, chunks := range [][]int{nil, {1, 1, 1, 1, 1}, {2, 3, 5, 7, 11, 13}, {4, 1, 4, 3, 4, 100, 4}, {6, readBufSize, 9, readBufSize + 2}, {readBufSize - 1, readBufSize - 1}} {
		for _, owned := range []bool{false, true} {
			next := reader(&chunkReader{data: stream.Bytes(), chunks: chunks}, owned)
			for i, w := range want {
				got, err := next()
				if err != nil {
					t.Fatalf("chunks %v owned=%v record %d: %v", chunks, owned, i, err)
				}
				if !bytes.Equal(got, w) {
					t.Fatalf("chunks %v owned=%v record %d: %d bytes of %#x, want %d of %#x", chunks, owned, i, len(got), got[:min(1, len(got))], len(w), w[:min(1, len(w))])
				}
			}
			if _, err := next(); err != io.EOF {
				t.Errorf("chunks %v owned=%v: end of stream: %v, want io.EOF", chunks, owned, err)
			}
		}
	}
	for _, cut := range []int{2, 4, 6, 4 + 8191} {
		var one bytes.Buffer
		WriteRecord(&one, want[8])
		for _, owned := range []bool{false, true} {
			if _, err := reader(bytes.NewReader(one.Bytes()[:cut]), owned)(); err != io.ErrUnexpectedEOF {
				t.Errorf("stream cut at %d owned=%v: %v, want io.ErrUnexpectedEOF", cut, owned, err)
			}
		}
	}
}

func TestRecordTooLargeRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := NewRecordReader(&buf).Next(); err == nil {
		t.Error("oversized record accepted")
	}
}

// TestRecordLimitMatchesXDRLimit pins the shared-constant satellite: the
// framer refuses exactly what the decoder refuses.
func TestRecordLimitMatchesXDRLimit(t *testing.T) {
	if maxRecord != xdr.MaxItem {
		t.Fatalf("maxRecord %d != xdr.MaxItem %d", maxRecord, xdr.MaxItem)
	}
}

// startLive puts an endpoint behind a Gateway on a loopback listener
// with its kernel under RunRealtime, and returns the address to dial.
// register runs before the kernel starts. The listener closes, and Serve
// and RunRealtime return, when the test ends.
func startLive(tb testing.TB, workers int, register func(ep *Endpoint)) string {
	tb.Helper()
	k := sim.NewKernel(1)
	network := simnet.New(k, simnet.Config{})
	register(NewEndpoint(k, network, "server", Options{Workers: workers}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	stop := make(chan struct{})
	served, ran := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(served)
		NewGateway(k, network, "server").Serve(ln)
	}()
	go func() {
		defer close(ran)
		k.RunRealtime(stop)
	}()
	tb.Cleanup(func() {
		ln.Close()
		<-served
		close(stop)
		<-ran
	})
	return ln.Addr().String()
}

// nullProg answers every call with an empty OK reply.
func nullProg(ep *Endpoint) {
	ep.Register(testProg, func(*sim.Proc, simnet.Addr, uint32, []byte) ([]byte, Status) {
		return nil, StatusOK
	})
}

// TestGatewayEndToEnd runs a realtime kernel serving an echo program and
// exercises it through the TCP gateway with a TCPClient, including a
// server-initiated callback.
func TestGatewayEndToEnd(t *testing.T) {
	const prog, cbProg = 77, 88
	addr := startLive(t, 2, func(ep *Endpoint) {
		ep.Register(prog, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
			if proc == 2 {
				// Server-initiated call back to the requesting client.
				body, err := ep.Call(p, from, cbProg, 1, 1, []byte("ping"))
				if err != nil || string(body) != "pong" {
					return nil, StatusSystemErr
				}
				return []byte("callback-ok"), StatusOK
			}
			e := xdr.NewEncoder()
			e.Raw(args)
			e.Raw([]byte("/echoed"))
			return e.Bytes(), StatusOK
		})
	})

	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.OnCall = func(prog, proc uint32, args []byte) ([]byte, Status) {
		if prog == cbProg && string(args) == "ping" {
			return []byte("pong"), StatusOK
		}
		return nil, StatusProcUnavail
	}

	body, err := cli.Call(prog, 1, 1, []byte("hello"))
	if err != nil {
		t.Fatalf("echo call: %v", err)
	}
	if string(body) != "hello/echoed" {
		t.Errorf("echo = %q", body)
	}

	body, err = cli.Call(prog, 1, 2, nil)
	if err != nil {
		t.Fatalf("callback round trip: %v", err)
	}
	if string(body) != "callback-ok" {
		t.Errorf("callback result = %q", body)
	}

	// Unknown program yields PROG_UNAVAIL through the whole pipeline.
	if _, err := cli.Call(999, 1, 1, nil); err != ErrProgUnavail {
		t.Errorf("unknown program: %v", err)
	}
}

func TestGatewayConcurrentClients(t *testing.T) {
	addr := startLive(t, 4, func(ep *Endpoint) {
		ep.Register(50, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
			return append([]byte("from:"), []byte(from)...), StatusOK
		})
	})

	results := make(chan string, 3)
	for i := 0; i < 3; i++ {
		go func() {
			cli, err := DialTCP(addr)
			if err != nil {
				results <- "dial-error"
				return
			}
			defer cli.Close()
			body, err := cli.Call(50, 1, 1, nil)
			if err != nil {
				results <- "call-error"
				return
			}
			results <- string(body)
		}()
	}
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			seen[r] = true
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for concurrent clients")
		}
	}
	// Each connection appears as its own virtual host.
	if len(seen) != 3 {
		t.Errorf("virtual addresses not distinct: %v", seen)
	}
	for r := range seen {
		if r == "dial-error" || r == "call-error" {
			t.Errorf("client failed: %v", seen)
		}
	}
}

// TestGatewayConnectionsLeaveNothingBehind opens and closes connections
// against a live gateway: a long-running daemon must not keep a
// goroutine (or a parked simulation process, which is one) per
// connection it ever accepted.
func TestGatewayConnectionsLeaveNothingBehind(t *testing.T) {
	addr := startLive(t, 2, nullProg)
	session := func() {
		cli, err := DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if _, err := cli.Call(testProg, 1, 1, nil); err != nil {
			t.Fatalf("call: %v", err)
		}
	}
	// settled waits for the goroutine count to come down to limit: the
	// gateway notices a closed connection when its read fails.
	settled := func(limit int) int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > limit && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return n
	}
	// The endpoint keeps the worker processes it has started, up to its
	// Workers, so the baseline is read after a first connection.
	idle := runtime.NumGoroutine()
	session()
	baseline := settled(idle + 2)
	for i := 0; i < 50; i++ {
		session()
	}
	if n := settled(baseline); n > baseline {
		t.Errorf("%d goroutines after 50 connections came and went, %d before", n, baseline)
	}
}

// TestGatewayClosesConnectionThatStopsReading sends READ-sized replies to
// a client that never reads its socket. The stream is reliable and the
// client does not retransmit, so a reply the gateway dropped would be a
// call that never returns; the gateway must end the connection instead.
func TestGatewayClosesConnectionThatStopsReading(t *testing.T) {
	block := make([]byte, 8192)
	addr := startLive(t, 2, func(ep *Endpoint) {
		ep.Register(testProg, func(*sim.Proc, simnet.Addr, uint32, []byte) ([]byte, Status) {
			return block, StatusOK
		})
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A small window, so the gateway's writer blocks after few replies.
	conn.(*net.TCPConn).SetReadBuffer(4096)
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	// The client only ever writes, so the gateway hanging up shows as a
	// failed write. The first calls go out at once — replies to them
	// overflow any socket buffer and then the gateway's queue — and the
	// rest at a trickle, waiting for the reset to arrive.
	enc := xdr.NewEncoder()
	for xid := uint32(1); err == nil; xid++ {
		if xid > 5000 {
			time.Sleep(time.Millisecond)
		}
		enc.Reset()
		enc.Uint32(xid)
		enc.Uint32(msgCall)
		enc.Uint32(testProg)
		enc.Uint32(1)
		enc.Uint32(1)
		enc.Uint64(0)
		err = WriteRecord(conn, enc.Bytes())
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open with replies dropped: %v", err)
	}
}

// TestConcurrentCallersShareOneConnection drives one TCPClient from many
// goroutines at once, so their sends combine into shared writes and the
// gateway's replies into shared vectored writes, with bodies from empty
// to several read buffers long: every caller must get its own bytes back.
func TestConcurrentCallersShareOneConnection(t *testing.T) {
	addr := startLive(t, 4, func(ep *Endpoint) {
		ep.Register(testProg, func(_ *sim.Proc, _ simnet.Addr, _ uint32, args []byte) ([]byte, Status) {
			return args, StatusOK
		})
	})
	c, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sizes := []int{0, 1, 100, 8192, 3*readBufSize + 5}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				args := bytes.Repeat([]byte{byte(g*40 + i)}, sizes[(g+i)%len(sizes)])
				body, err := c.Call(testProg, 1, 1, args)
				if err != nil {
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if !bytes.Equal(body, args) {
					t.Errorf("caller %d call %d: %d bytes of %#x came back for %d of %#x", g, i, len(body), body[:min(1, len(body))], len(args), args[:min(1, len(args))])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
