package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/xdr"
)

// The TCP transport frames each RPC message with a 4-byte big-endian
// length (RFC 1057-style record marking, without the fragment bit). The
// framed payload is byte-identical to the simulated network's payload,
// so the same servers and clients interoperate across both.

// maxRecord is the framing limit, shared with the XDR decoder's
// variable-length item limit: no legal record can carry an item the
// decoder would reject, and no legal item can need a record the framer
// would refuse.
const maxRecord = xdr.MaxItem

// frame is a pooled header+payload pair for WriteRecord, so the
// coalesced write allocates nothing in steady state.
type frame struct {
	hdr [4]byte
	vec [2][]byte
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// WriteRecord frames and writes one message. Header and payload go out
// in a single coalesced write (writev on a TCP connection, via
// net.Buffers), halving the syscall count of the old two-write framing
// and keeping the header and payload in one segment.
func WriteRecord(w io.Writer, payload []byte) error {
	f := framePool.Get().(*frame)
	binary.BigEndian.PutUint32(f.hdr[:], uint32(len(payload)))
	f.vec[0], f.vec[1] = f.hdr[:], payload
	bufs := net.Buffers(f.vec[:])
	_, err := bufs.WriteTo(w)
	f.vec[1] = nil // don't pin the payload in the pool
	framePool.Put(f)
	return err
}

// readBufSize is the RecordReader's buffer: room for an 8 KiB transfer,
// its header and the small calls queued around it, so a burst of
// pipelined records costs one read.
const readBufSize = 16 << 10

// RecordReader reads length-prefixed records from one stream through a
// buffer it owns: one read of the stream brings in a header, its body
// and whatever records are queued behind them, and steady state
// allocates nothing. Next lends the caller a view of that buffer;
// NextOwned gives the caller a record of its own. See DESIGN.md §14.
type RecordReader struct {
	r io.Reader
	// buf[rd:wr] has been read from the stream and not yet consumed.
	buf    []byte
	rd, wr int
}

// NewRecordReader returns a reader framing records out of r.
func NewRecordReader(r io.Reader) *RecordReader {
	return &RecordReader{r: r, buf: make([]byte, readBufSize)}
}

// fill reads from the stream until n unconsumed bytes are buffered,
// taking whatever else the stream has ready up to the buffer's end. The
// unconsumed bytes move to the front when n would not fit behind them,
// into a larger buffer when n would not fit at all.
func (rr *RecordReader) fill(n int) error {
	have := rr.wr - rr.rd
	if have >= n {
		return nil
	}
	if have == 0 || rr.rd+n > len(rr.buf) {
		dst := rr.buf
		if n > len(dst) {
			dst = make([]byte, n)
		}
		copy(dst, rr.buf[rr.rd:rr.wr])
		rr.buf, rr.rd, rr.wr = dst, 0, have
	}
	m, err := io.ReadAtLeast(rr.r, rr.buf[rr.wr:], n-have)
	rr.wr += m
	if err == io.EOF && have > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// header consumes one record header and returns the body's length. A
// stream that ends between records ends with io.EOF.
func (rr *RecordReader) header() (int, error) {
	if err := rr.fill(4); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(rr.buf[rr.rd:])
	if n > maxRecord {
		return 0, fmt.Errorf("rpc: record of %d bytes exceeds limit", n)
	}
	rr.rd += 4
	return int(n), nil
}

// midRecord is the error of a read that follows a record's header: the
// stream may not end there.
func midRecord(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Next reads one framed message. The returned slice is a view of the
// reader's buffer, valid only until the following Next or NextOwned: a
// caller that hands the bytes to anything with a longer lifetime uses
// NextOwned instead.
func (rr *RecordReader) Next() ([]byte, error) {
	n, err := rr.header()
	if err != nil {
		return nil, err
	}
	if err := rr.fill(n); err != nil {
		return nil, midRecord(err)
	}
	rec := rr.buf[rr.rd : rr.rd+n : rr.rd+n]
	rr.rd += n
	return rec, nil
}

// NextOwned reads one framed message into a fresh buffer of exactly its
// size, which the caller owns: the reader keeps no reference to it. The
// part of the body that arrived with the header is copied out of the
// reader's buffer; the rest is read from the stream straight into place
// when it would fill the reader's buffer anyway, and through the buffer
// — bringing the records queued behind it along — when it is shorter.
func (rr *RecordReader) NextOwned() ([]byte, error) {
	n, err := rr.header()
	if err != nil {
		return nil, err
	}
	rec := make([]byte, n)
	got := copy(rec, rr.buf[rr.rd:rr.wr])
	rr.rd += got
	if rest := rec[got:]; len(rest) >= len(rr.buf) {
		_, err = io.ReadFull(rr.r, rest)
	} else if len(rest) > 0 {
		if err = rr.fill(len(rest)); err == nil {
			rr.rd += copy(rest, rr.buf[rr.rd:rr.wr])
		}
	}
	if err != nil {
		return nil, midRecord(err)
	}
	return rec, nil
}

// Gateway bridges TCP connections into a simulation kernel running under
// RunRealtime: each connection becomes a virtual host ("tcp/<n>") on the
// simulated network, its records delivered to the server address, and
// traffic the server sends to that virtual host (replies and callbacks)
// is written back over the connection. The whole protocol stack — state
// table, callbacks, duplicate cache — runs unmodified.
type Gateway struct {
	k      *sim.Kernel
	net    *simnet.Network
	server simnet.Addr
	mu     sync.Mutex
	nextID int
}

// NewGateway returns a gateway delivering to server on net.
func NewGateway(k *sim.Kernel, network *simnet.Network, server simnet.Addr) *Gateway {
	return &Gateway{k: k, net: network, server: server}
}

// Serve accepts connections until the listener closes.
func (g *Gateway) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go g.handle(conn)
	}
}

// outQueue is how many messages may wait for a connection's writer: the
// most a server sends a client that has stopped reading (beyond what
// the socket buffers hold) before the gateway gives the connection up.
const outQueue = 256

func (g *Gateway) handle(conn net.Conn) {
	g.mu.Lock()
	g.nextID++
	vaddr := simnet.Addr(fmt.Sprintf("tcp/%d", g.nextID))
	g.mu.Unlock()

	// Attach the virtual host inside the simulation; what the server
	// sends it is queued for the connection's writer at its delivery
	// instant, in scheduler context.
	out := make(chan []byte, outQueue)
	g.k.Inject(func() {
		g.net.Listen(vaddr).SetHandler(func(m simnet.Message) {
			select {
			case out <- m.Payload:
			default:
				// The peer has stopped reading. It is a reliable
				// stream whose client never retransmits, so a message
				// dropped here is a caller blocked for good: end the
				// connection, and every call pending on it fails.
				conn.Close()
			}
		})
	})

	done := make(chan struct{})
	go writeRecords(conn, out, done)

	rr := NewRecordReader(conn)
	for {
		// The record escapes into the simulation, which retains
		// payloads until (possibly duplicated) delivery, so the reader
		// hands over a buffer of the record's own.
		rec, err := rr.NextOwned()
		if err != nil {
			break
		}
		g.k.Inject(func() {
			g.net.Send(vaddr, g.server, rec)
		})
	}
	close(done)
	g.k.Inject(func() {
		g.net.Unlisten(vaddr)
	})
}

// writeBatch is the most records one write carries.
const writeBatch = 64

// writeRecords is a connection's writer: it frames the messages queued
// on out and writes everything that is queued when it looks as one
// vectored write. The messages are frozen wire images (DESIGN.md §14),
// read here and never written. It closes the connection when done
// closes or a write fails.
func writeRecords(conn net.Conn, out <-chan []byte, done <-chan struct{}) {
	defer conn.Close()
	var (
		hdrs [writeBatch][4]byte
		vec  [2 * writeBatch][]byte
		bufs net.Buffers
	)
	for {
		select {
		case payload := <-out:
			n := 0
		drain:
			for {
				binary.BigEndian.PutUint32(hdrs[n][:], uint32(len(payload)))
				vec[2*n], vec[2*n+1] = hdrs[n][:], payload
				if n++; n == writeBatch {
					break
				}
				select {
				case payload = <-out:
				default:
					break drain
				}
			}
			bufs = vec[:2*n]
			if _, err := bufs.WriteTo(conn); err != nil {
				return
			}
		case <-done:
			return
		}
	}
}

// TCPClient is a minimal real-time RPC client for the standalone tools:
// it issues calls over one TCP connection and services incoming calls
// (SNFS callbacks) with a handler.
type TCPClient struct {
	conn net.Conn
	mu   sync.Mutex
	next uint32
	wait map[uint32]chan reply
	// Sends are combined. A sender frames its message onto the end of
	// wbuf under mu; if no write is in progress it becomes the writer
	// and writes until wbuf is empty, otherwise the writer in progress
	// takes the message along with its next write. wspare is the buffer
	// the writer is not writing from.
	wbuf    xdr.Encoder
	wspare  []byte
	writing bool
	// OnCall services server-to-client calls; nil replies ProcUnavail.
	OnCall func(prog, proc uint32, args []byte) ([]byte, Status)
	// readErr terminates outstanding calls when the read loop dies.
	readErr error
	dead    chan struct{}
}

// DialTCP connects to a gateway-fronted server.
func DialTCP(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &TCPClient{
		conn: conn,
		wait: make(map[uint32]chan reply),
		dead: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Close shuts the connection down.
func (c *TCPClient) Close() error { return c.conn.Close() }

func (c *TCPClient) readLoop() {
	defer close(c.dead)
	rr := NewRecordReader(c.conn)
	var d xdr.Decoder
	for {
		rec, err := rr.Next()
		if err != nil {
			c.readErr = err
			return
		}
		// The record is a view of the reader's buffer, gone with the
		// next Next, so anything that leaves this iteration — a reply
		// body handed to a waiting caller, callback args handed to the
		// serve goroutine — is copied out by the copying Raw below, into
		// a buffer of exactly the body's size.
		d.Reset(rec)
		xid := d.Uint32()
		mtype := d.Uint32()
		switch mtype {
		case msgReply:
			status := Status(d.Uint32())
			body := d.Raw()
			c.mu.Lock()
			ch, ok := c.wait[xid]
			delete(c.wait, xid)
			c.mu.Unlock()
			if ok {
				ch <- reply{status: status, body: body}
			}
		case msgCall:
			prog := d.Uint32()
			vers := d.Uint32()
			proc := d.Uint32()
			_ = d.Uint64() // causal op ID; the uncached CLI has no use for it
			args := d.Raw()
			_ = vers
			go c.serve(xid, prog, proc, args)
		}
	}
}

// maxKeptBuf caps the capacity a send buffer keeps between writes, so
// one giant message doesn't pin its buffer for the connection's life.
const maxKeptBuf = 1 << 20

// send frames the message encode appends and sees it written: by this
// call, together with everything senders queue while it writes, or by
// the write already in progress. Only the writer learns of a failed
// write; it closes the connection, so the calls of senders it was
// carrying fail through the read loop. Called with mu held.
func (c *TCPClient) send(encode func(enc *xdr.Encoder)) error {
	mark := c.wbuf.Len()
	c.wbuf.Uint32(0)
	encode(&c.wbuf)
	binary.BigEndian.PutUint32(c.wbuf.Bytes()[mark:], uint32(c.wbuf.Len()-mark-4))
	if c.writing {
		return nil
	}
	c.writing = true
	var err error
	for c.wbuf.Len() > 0 && err == nil {
		buf := c.wbuf.Bytes()
		c.wbuf.SetBuffer(c.wspare)
		c.mu.Unlock()
		_, err = c.conn.Write(buf)
		c.mu.Lock()
		if cap(buf) > maxKeptBuf {
			buf = nil
		}
		c.wspare = buf
	}
	c.writing = false
	if err != nil {
		c.wbuf.Reset()
		c.conn.Close()
	}
	return err
}

func (c *TCPClient) serve(xid, prog, proc uint32, args []byte) {
	var body []byte
	status := StatusProcUnavail
	if c.OnCall != nil {
		body, status = c.OnCall(prog, proc, args)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// A failed write has ended the connection: nobody is left to tell.
	_ = c.send(func(enc *xdr.Encoder) {
		enc.Uint32(xid)
		enc.Uint32(msgReply)
		enc.Uint32(uint32(status))
		enc.Raw(body)
	})
}

// TCPPending is one in-flight call issued with TCPClient.Start.
type TCPPending struct {
	c  *TCPClient
	ch chan reply
}

// Start issues one RPC without waiting for its reply: calls are
// multiplexed by xid on the single connection, so any number may be
// outstanding (pipelining), and calls started while another's write is
// in progress go out together in one write. Collect the reply with Wait.
func (c *TCPClient) Start(prog, vers, proc uint32, args []byte) (*TCPPending, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	xid := c.next
	ch := make(chan reply, 1)
	c.wait[xid] = ch
	err := c.send(func(enc *xdr.Encoder) {
		enc.Uint32(xid)
		enc.Uint32(msgCall)
		enc.Uint32(prog)
		enc.Uint32(vers)
		enc.Uint32(proc)
		// Mint a causal op ID per call; the high bit marks "external client"
		// so IDs never collide with the kernel's own counter.
		enc.Uint64(1<<63 | uint64(xid))
		enc.Raw(args)
	})
	if err != nil {
		delete(c.wait, xid)
		return nil, err
	}
	return &TCPPending{c: c, ch: ch}, nil
}

// Wait collects the reply for a call issued with Start.
func (t *TCPPending) Wait() ([]byte, error) {
	select {
	case r := <-t.ch:
		if err := statusErr(r.status); err != nil {
			return nil, err
		}
		return r.body, nil
	case <-t.c.dead:
		if t.c.readErr != nil {
			return nil, t.c.readErr
		}
		return nil, io.EOF
	}
}

// Call issues one RPC and waits for its reply.
func (c *TCPClient) Call(prog, vers, proc uint32, args []byte) ([]byte, error) {
	p, err := c.Start(prog, vers, proc, args)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}
