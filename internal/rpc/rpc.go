// Package rpc provides the remote-procedure-call layer beneath NFS and
// Spritely NFS: an ONC-RPC-style message format (xid-matched call/reply),
// a client path with timeout and retransmission, a server path with a
// bounded service pool, and a duplicate-request cache so retransmitted
// non-idempotent operations are answered from their recorded replies
// (the fix Juszczak describes and the paper cites).
//
// An Endpoint owns no process. Its port hands each arriving message to
// handleMsg at the delivery instant; a call that passes the duplicate
// cache joins the endpoint's queue of accepted calls and is run on a
// process borrowed from a sim.Executor, and calls beyond the pool bound
// wait in that queue until a finishing process takes them, before it
// parks.
//
// A round trip has two objects, the caller's Pending, which holds a small
// call image head in itself, and the reply's head, and each goes back to
// a free list of the endpoint that made it when its last holder lets go:
//
//	object    holder                      lets go at
//	Pending   the caller                  done, once the reply is decoded
//	          each copy in flight         loss, or delivery to the receiver,
//	          the receiving endpoint      a duplicate-cache answer or drop,
//	                                      Stop's queue, or serveOne's end
//	          the timeout event           its Due, or the reply withdrawing it
//	head      sendReply's caller          serveOne's end
//	          each copy in flight         as the call's
//	          the caller it reaches       done, or at once if unawaited
//	          the duplicate-cache slot    eviction, or Restart
//
// A holder that never lets go (the TCP gateway's writer) leaves the object
// to the collector. Arguments and replies are encoded, and replies
// decoded, by static calls in the frames that hold the messages, so no
// message leaves its stack. The rest of the bookkeeping is kept in objects
// that already exist: the Pending is the reply slot, the waiter and the
// timeout event's target; accepted calls and duplicate-cache entries sit
// by value in rings; the service job is one method value per endpoint.
// See DESIGN.md §14, which has the table in full.
//
// A call, like a reply, may carry a tail: its message's last field, kept
// by reference (xdr.Codec.Tail) — a WRITE call's data, the client's
// frozen cache block, and a READ reply's, the server's frozen page. The
// tail travels beside the head, through retransmissions and the network,
// to the Service or the caller, which decode the two parts with
// xdr.Decoder.ResetTail.
//
// Two transports implement the layer: the simulated network (this file,
// used by all experiments) and a real TCP transport (tcp.go, used by the
// standalone snfsd daemon and snfscli).
//
// SNFS requires that the *client* also offer RPC service, because the
// server issues callback RPCs; an Endpoint therefore plays both roles.
// The paper's deadlock rule — with N server threads at most N−1 may issue
// callbacks concurrently, so one can always service the resulting
// write-backs — is enforced by the SNFS server on top of this package's
// pool bound (Options.Workers).
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/xdr"
)

// Message types.
const (
	msgCall  = 0
	msgReply = 1
)

// Status is the result code carried in every reply.
type Status uint32

// Reply status codes.
const (
	StatusOK Status = iota
	StatusProgUnavail
	StatusProcUnavail
	StatusGarbage
	StatusSystemErr
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusProgUnavail:
		return "PROG_UNAVAIL"
	case StatusProcUnavail:
		return "PROC_UNAVAIL"
	case StatusGarbage:
		return "GARBAGE_ARGS"
	case StatusSystemErr:
		return "SYSTEM_ERR"
	}
	return fmt.Sprintf("Status(%d)", uint32(s))
}

// Errors returned by Call.
var (
	ErrTimeout     = errors.New("rpc: call timed out")
	ErrProgUnavail = errors.New("rpc: program unavailable")
	ErrProcUnavail = errors.New("rpc: procedure unavailable")
	ErrGarbage     = errors.New("rpc: garbage arguments")
	ErrSystem      = errors.New("rpc: system error on server")
)

func statusErr(s Status) error {
	switch s {
	case StatusOK:
		return nil
	case StatusProgUnavail:
		return ErrProgUnavail
	case StatusProcUnavail:
		return ErrProcUnavail
	case StatusGarbage:
		return ErrGarbage
	default:
		return ErrSystem
	}
}

// Service services calls to one program. It runs on a server worker and
// may itself block (disk access, nested RPCs). The arguments are
// args‖tail, the tail's pad implied, tail nil for a call sent whole;
// decode them with xdr.Decoder.ResetTail. Both are frozen views of the delivered call
// image. It returns its reply body already encoded, by Encode (the zero
// Reply for an empty body).
type Service func(p *sim.Proc, from simnet.Addr, proc uint32, args, tail []byte) (Reply, Status)

// Handler is a Service that takes its arguments, and returns its reply
// body, as bytes (Register).
type Handler func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status)

// replyHeaderLen is the size of the reply message header (xid, type,
// status).
const replyHeaderLen = 3 * 4

// Reply is a reply image begun where its handler built the reply: a
// pooled encoder holding the reply header, whose xid and status sendReply
// fills in, and the body behind it. The zero Reply is an empty body.
type Reply struct{ enc *xdr.Encoder }

// Encode encodes a reply body at once, through body: the XDR method value
// of a message in the handler's own frame, as in
//
//	r := proto.AttrReply{Status: proto.OK, Attr: attr}
//	return rpc.Encode(r.XDR), rpc.StatusOK
//
// A method value passed here stays on the stack, and so does its
// message; a message returned as a proto.Message is boxed on the heap.
// A nil body is an empty one. What the image holds by reference (a
// READ's data, Codec.Tail) must be frozen from here on.
func Encode(body func(xdr.Codec)) Reply {
	enc := xdr.GetEncoder()
	enc.Uint32(0) // xid
	enc.Uint32(msgReply)
	enc.Uint32(0) // status
	if body != nil {
		body(enc.Codec())
	}
	return Reply{enc}
}

// rawBody is a body its owner already encoded. It is only ever encoded:
// the value receiver keeps the conversion from bytes free of allocation.
type rawBody []byte

func (b rawBody) XDR(c xdr.Codec) { c.Raw((*[]byte)(&b)) }

// The default call schedule: a call waits CallTimeout for its reply,
// then retransmits up to MaxRetries times, doubling the wait each time —
// 1, 2, 4, 8 and 16 s, so ErrTimeout comes 31 s after the send. A caller
// that needs another schedule passes it to CallXDREx.
const (
	CallTimeout = sim.Second
	MaxRetries  = 4
)

// dupCacheSize bounds the duplicate-request cache.
const dupCacheSize = 128

// Options configures an Endpoint.
type Options struct {
	// Workers is the size of the service thread pool (the paper's "N
	// threads"): at most Workers calls are in service at once on the
	// endpoint's own pool, the rest wait their turn in arrival order.
	// Zero means 4.
	Workers int
	// Exec says whose pool the service processes come from. Nil gives the
	// endpoint a private executor held to Workers concurrent calls. A
	// caller-supplied (typically shared) executor is not held to Workers:
	// its owner sized it for the whole fleet, and a thousand light clients
	// then share a few dozen processes instead of parking Workers each.
	Exec *sim.Executor
}

// Stats counts endpoint activity.
type Stats struct {
	CallsSent     int64 // distinct calls issued (not counting retransmits)
	Retransmits   int64
	Timeouts      int64 // calls that exhausted all retries
	DupHits       int64 // retransmits answered from the duplicate cache
	DupInProgress int64 // retransmits dropped because the call was executing
	DupEvictions  int64 // duplicate-cache entries evicted to make room
}

// Work counts the wire-image heads an endpoint has built and the
// round-trip objects it has made. For a fixed seed and tree each count is
// exact, as sim.KernelWork's are.
type Work struct {
	// Heads counts the heads built in a buffer of their own, outside a
	// Pending: a call head over inlineImage bytes, and every reply head.
	Heads int64
	// HeadBytes counts the bytes copied into heads, a Pending's included.
	HeadBytes int64
	// PendingsMade counts the Pendings allocated, PendingsReused the
	// calls started on one taken back from the endpoint's free list.
	PendingsMade, PendingsReused int64
	// HeadsMade counts the reply heads allocated, HeadsReused the replies
	// built in one taken back from the endpoint's free list.
	HeadsMade, HeadsReused int64
	// StaleTimeouts counts the timeout events that came due on a call
	// already answered.
	StaleTimeouts int64
}

// Add returns the sum of w and v.
func (w Work) Add(v Work) Work {
	return Work{
		Heads: w.Heads + v.Heads, HeadBytes: w.HeadBytes + v.HeadBytes,
		PendingsMade: w.PendingsMade + v.PendingsMade, PendingsReused: w.PendingsReused + v.PendingsReused,
		HeadsMade: w.HeadsMade + v.HeadsMade, HeadsReused: w.HeadsReused + v.HeadsReused,
		StaleTimeouts: w.StaleTimeouts + v.StaleTimeouts,
	}
}

type request struct {
	from simnet.Addr
	xid  uint32
	prog uint32
	vers uint32
	proc uint32
	op   uint64   // causal operation ID carried in the call header
	enq  sim.Time // when handleMsg accepted it (for the srv-queue span)
	args []byte
	tail []byte       // the call image's tail, behind args
	held simnet.Owner // the delivered copy's reference to args' owner
}

type reply struct {
	status Status
	body   []byte
}

// Endpoint is a host's RPC attachment to the simulated network: it issues
// calls, matches replies, and services incoming calls on pooled processes.
type Endpoint struct {
	k       *sim.Kernel
	net     *simnet.Network
	port    *simnet.Port
	addr    simnet.Addr
	workers int // Options.Workers
	nextXID uint32
	stopped bool
	pending map[uint32]*Pending
	progs   map[uint32]Service
	exec    *sim.Executor
	limit   int // calls in service at once; 0 = unbounded (shared pool)
	serving int // calls in service now, counting the handed ones
	// queue holds the accepted calls no process has started on, in
	// arrival order: first the handed ones — a process has been woken
	// for each and they start in that order — then those waiting for a
	// slot, which exist only while serving == limit.
	queue  callQueue
	handed int
	job    func(*sim.Proc) // serve, bound once: every submission is this value
	dup    dupCache
	stats  Stats
	sent   stats.Ops // the NFS and callback calls started, by procedure
	work   Work
	// The free lists: Pendings of this endpoint's making whose last
	// holder has let go, linked through Pending.next, and reply heads, by
	// head class. They start empty and grow to the most ever held at once.
	calls *Pending
	heads [len(headCaps)][]*replyHead
	// dec decodes a reply into its caller's message (CallXDREx): one at a
	// time, since decoding never parks.
	dec xdr.Decoder
	// Instruments are the sinks Attach armed: the ring records every call
	// sent and served; spans record wire time and retransmit gaps on the
	// call side, queue wait and serve intervals on the service side. Nil
	// keeps the hot path at one nil check.
	trace.Instruments
	// Reroute, when set, is consulted before each retransmission of a
	// timed-out call: given the address the call has been going to, it
	// may return a different one (replicated-shard failover — the old
	// primary is dead and the shard map now names its backup). The
	// retransmission reuses the original xid and wire image, so a
	// server that already executed the call via the replicated
	// duplicate cache answers from the recorded reply instead of
	// re-executing (exactly-once across the failover, same as within
	// one server's retry window).
	Reroute func(to simnet.Addr) simnet.Addr
	// OnServed, when set, observes every completed handler invocation
	// with the reply wire image, head and tail (the one transmitted and
	// recorded in the duplicate cache: read-only). The replication stream
	// uses it to forward dup entries of non-idempotent calls to the
	// backup, and joins the two parts (xdr.Join) only for those.
	OnServed func(from simnet.Addr, xid, prog, vers, proc uint32, head, tail []byte)
	// met, set when Attach arms a registry, records per-procedure latency
	// histograms. Kept behind one pointer so the disabled hot path pays
	// a single nil check.
	met *epMetrics
}

// epMetrics caches per-procedure histograms so the enabled path pays a
// small map lookup instead of a name-formatting allocation per call.
type epMetrics struct {
	r    *metrics.Registry
	host string

	mu    sync.Mutex
	call  map[procKey]*metrics.Histogram
	serve map[uint64]*metrics.Histogram
}

type procKey struct {
	progProc uint64
	retrans  bool
}

func pp(prog, proc uint32) uint64 { return uint64(prog)<<32 | uint64(proc) }

// Attach arms the non-nil sinks of in. A registry gets one call→reply
// latency sample per completed call (retransmitted calls in a
// separately-tagged series), one serve-duration sample per handler
// invocation, and the duplicate cache's gauges.
func (e *Endpoint) Attach(in trace.Instruments) {
	trace.Arm(&e.Instruments, in)
	r := in.Metrics
	if r == nil {
		return
	}
	e.met = &epMetrics{
		r:     r,
		host:  string(e.addr),
		call:  make(map[procKey]*metrics.Histogram),
		serve: make(map[uint64]*metrics.Histogram),
	}
	host := string(e.addr)
	r.GaugeFunc(metrics.Label("snfs_rpc_dupcache_hits_total", "host", host),
		func() float64 { return float64(e.stats.DupHits) })
	r.GaugeFunc(metrics.Label("snfs_rpc_dupcache_inprogress_drops_total", "host", host),
		func() float64 { return float64(e.stats.DupInProgress) })
	r.GaugeFunc(metrics.Label("snfs_rpc_dupcache_evictions_total", "host", host),
		func() float64 { return float64(e.stats.DupEvictions) })
}

// observeCall records a call latency sample; op (nonzero only when spans
// are armed) stamps the bucket's exemplar so the histogram links to the
// captured span tree.
func (m *epMetrics) observeCall(prog, proc uint32, d sim.Duration, retrans bool, op uint64) {
	k := procKey{progProc: pp(prog, proc), retrans: retrans}
	m.mu.Lock()
	h, ok := m.call[k]
	if !ok {
		kv := []string{"host", m.host, "proc", proto.ProcName(prog, proc)}
		if retrans {
			kv = append(kv, "retrans", "1")
		}
		h = m.r.Histogram(metrics.Label("snfs_rpc_call_latency_us", kv...))
		m.call[k] = h
	}
	m.mu.Unlock()
	h.ObserveOp(int64(d), op)
}

func (m *epMetrics) observeServe(prog, proc uint32, d sim.Duration, op uint64) {
	k := pp(prog, proc)
	m.mu.Lock()
	h, ok := m.serve[k]
	if !ok {
		h = m.r.Histogram(metrics.Label("snfs_rpc_serve_us",
			"host", m.host, "proc", proto.ProcName(prog, proc)))
		m.serve[k] = h
	}
	m.mu.Unlock()
	h.ObserveOp(int64(d), op)
}

// NewEndpoint attaches addr to net. It starts no process: service
// processes are created on demand by the executor, up to the peak number
// of calls ever in service together.
func NewEndpoint(k *sim.Kernel, net *simnet.Network, addr simnet.Addr, opts Options) *Endpoint {
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	e := &Endpoint{
		k:       k,
		net:     net,
		port:    net.Listen(addr),
		addr:    addr,
		workers: opts.Workers,
		pending: make(map[uint32]*Pending),
		progs:   make(map[uint32]Service),
		exec:    opts.Exec,
	}
	e.job = e.serve
	if e.exec == nil {
		e.exec, e.limit = sim.NewExecutor(k, string(addr)+"/rpc"), opts.Workers
	}
	e.dup = newDupCache(dupCacheSize, &e.stats.DupEvictions)
	e.port.SetHandler(e.handleMsg)
	return e
}

// Addr returns the endpoint's network address.
func (e *Endpoint) Addr() simnet.Addr { return e.addr }

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Sent returns the counts of the NFS and callback calls started, by procedure.
func (e *Endpoint) Sent() *stats.Ops { return &e.sent }

// Work returns the endpoint's wire-image work so far.
func (e *Endpoint) Work() Work { return e.work }

// Workers returns the service pool size.
func (e *Endpoint) Workers() int { return e.workers }

// Serve installs s as the service for program prog.
func (e *Endpoint) Serve(prog uint32, s Service) { e.progs[prog] = s }

// Register installs a handler that takes its arguments, and returns its
// reply body, as bytes: a call that came as a head and a tail is handed
// over joined, in a buffer of its own.
func (e *Endpoint) Register(prog uint32, h Handler) {
	e.Serve(prog, func(p *sim.Proc, from simnet.Addr, proc uint32, args, tail []byte) (Reply, Status) {
		body, st := h(p, from, proc, xdr.Join(args, tail))
		return Encode(rawBody(body).XDR), st
	})
}

// Stop detaches the endpoint from the network, simulating a crashed host:
// subsequent messages to it are dropped, and so are calls that were
// accepted but not yet in service (the socket buffer dies with the host).
// Handlers already running are not interrupted, nor is a call whose
// process was woken at this very instant and has yet to start; they
// finish, and their replies go out, as the simulation has no way to
// unwind them mid-call.
func (e *Endpoint) Stop() {
	e.stopped = true
	e.net.Unlisten(e.addr)
	e.queue.truncate(e.handed) // each dropped call lets its image go
}

// Restart reattaches a stopped endpoint, simulating reboot. Pending state
// (the duplicate cache, in-flight calls) is discarded, as a reboot would.
// The pool is the same one: handlers that were running at Stop and have
// not finished still count against Workers.
func (e *Endpoint) Restart() {
	if !e.stopped {
		return
	}
	e.stopped = false
	e.port = e.net.Listen(e.addr)
	e.pending = make(map[uint32]*Pending)
	e.dup.clear()
	e.port.SetHandler(e.handleMsg)
}

// Call issues an RPC to program prog procedure proc at to, retransmitting
// on timeout, and returns the reply body, head‖tail‖pad, in a buffer of
// its own: the reply's head goes back to its endpoint when Call returns.
func (e *Endpoint) Call(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args []byte) ([]byte, error) {
	return e.callCopy(p, to, prog, vers, proc, rawBody(args).XDR)
}

// CallMsg is Call for arguments already boxed as a proto.Message.
func (e *Endpoint) CallMsg(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, m proto.Message) ([]byte, error) {
	return e.callCopy(p, to, prog, vers, proc, m.XDR)
}

// callCopy is Call's and CallMsg's one path.
func (e *Endpoint) callCopy(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args func(xdr.Codec)) ([]byte, error) {
	c, err := e.call(p, to, prog, vers, proc, args, CallTimeout, MaxRetries)
	var body []byte
	if err == nil {
		body = slices.Concat(c.body, c.tail, xdr.Pad(len(c.tail)))
	}
	c.done()
	return body, err
}

// CallXDR issues an RPC with the default schedule (CallTimeout,
// MaxRetries). args encodes the arguments straight into the pooled wire
// buffer and reply decodes the reply body, head‖tail, into the caller's
// message: each is the XDR method value of a message in the caller's
// frame (a.XDR, r.XDR), which keeps the message on the stack, as Encode
// does for a reply. A nil args sends none, a nil reply ignores the body.
// The caller may keep what reply decodes: every field is a copy but a
// Tail, and a tail is never a head's bytes (a READ's data is the server's
// frozen page); the head itself goes back to its endpoint as soon as
// reply returns.
func (e *Endpoint) CallXDR(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args, reply func(xdr.Codec)) error {
	return e.CallXDREx(p, to, prog, vers, proc, args, reply, CallTimeout, MaxRetries)
}

// CallXDREx is CallXDR with an explicit schedule in place of the default
// (CallTimeout, MaxRetries): a first-attempt timeout, doubled for each
// retransmission, and a retry budget. The SNFS server uses a tight budget
// for callbacks: a callback to a dead client must be abandoned before the
// opener that triggered it times out (§3.2).
func (e *Endpoint) CallXDREx(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args, reply func(xdr.Codec), callTimeout sim.Duration, maxRetries int) error {
	c, err := e.call(p, to, prog, vers, proc, args, callTimeout, maxRetries)
	if err == nil && reply != nil {
		e.dec.ResetTail(c.body, c.tail)
		reply(e.dec.Codec())
		e.dec = xdr.Decoder{}
	}
	c.done()
	return err
}

// call is the one synchronous call path, inside its whole-call span: it
// returns the call with its reply in it, for the caller to read and then
// let go (Pending.done).
func (e *Endpoint) call(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args func(xdr.Codec), callTimeout sim.Duration, maxRetries int) (*Pending, error) {
	sp := e.Spans.Begin(p, string(e.addr), callSpanKind(prog), proto.ProcName(prog, proc))
	defer sp.End()
	c := e.start(p, to, prog, vers, proc, args, callTimeout, maxRetries)
	return c, c.wait(p)
}

// callSpanKind classifies a call for the span recorder.
func callSpanKind(prog uint32) span.Kind {
	if prog == proto.ProgCallback {
		return span.Callback
	}
	return span.RPC
}

// callHeaderLen is the size of the call message header (xid, type, prog,
// vers, proc, op).
const callHeaderLen = 5*4 + 8

// inlineImage is the largest call image head a Pending holds in itself.
// It takes the calls that are most of the traffic — GETATTR, LOOKUP,
// READ, OPEN and CLOSE are 44 to 60 bytes, and so is the head of a WRITE
// whose data is its tail.
const inlineImage = 64

// Pending is one in-flight call and all the state it has: start takes it
// from the endpoint's free list or makes it, wait collects the reply into
// it, and done lets go of it, in the caller's process. It is the entry in
// the endpoint's xid table, the slot the reply is delivered into, the
// record of who is parked waiting for it, the target of the attempt's
// timeout event, and, for an image head of up to inlineImage bytes, the
// call's wire image head, so such a call costs this one object, and none
// once the endpoint's free list holds one. Calls of many processes are
// outstanding at once on one endpoint, their replies matched by xid: that
// is how a client's biods overlap their WRITEs.
//
// It goes back to the free list when its last holder lets go (release):
// the caller, from start until done; the network, for each copy of the
// image in flight, and the endpoint each copy is delivered to, until it
// has served or dropped the call; and the attempt's timeout event, until
// it comes due or the reply withdraws it.
type Pending struct {
	e        *Endpoint
	to       simnet.Addr
	prog     uint32
	vers     uint32
	proc     uint32
	xid      uint32
	op       uint64
	wire     []byte // the call image's head
	wireTail []byte // and its tail, nil for a call sent whole
	timeout  sim.Duration
	retries  int
	issued   sim.Time  // when the call was first put on the wire
	sent     sim.Time  // when the current attempt was put on the wire
	timer    sim.Timer // the attempt's timeout event, until it comes due or is withdrawn
	refs     int32     // holders, as above; < 0 once released (frozencheck)
	next     *Pending  // the next free Pending, while on the free list

	// The reply slot, and the wait on it.
	replied  bool
	timedOut bool // this attempt's timeout came due before a reply
	status   Status
	waiter   *sim.Proc    // the caller, while parked in await
	body     []byte       // a view of the delivered reply image
	tail     []byte       // the image's tail, behind body
	reply    simnet.Owner // body's owner, held until done

	inline [inlineImage]byte // wire, when it fits
}

// callImage is a Pending standing as the owner of its call image head
// (simnet.Owner). It is a type of its own so that Hold and Release are
// not methods of Pending.
type callImage Pending

// Hold takes a reference for a copy of the call image.
func (h *callImage) Hold() { (*Pending)(h).hold() }

// Release lets a copy of the call image go.
func (h *callImage) Release() { (*Pending)(h).release() }

func (c *Pending) hold() {
	if frozenCheck && c.refs <= 0 {
		panic("rpc: a released Pending taken up again")
	}
	c.refs++
}

// release drops one reference. The last puts the Pending on its
// endpoint's free list, holding nothing: no reply, no image, no WRITE
// data, no waiter.
func (c *Pending) release() {
	if frozenCheck && c.refs <= 0 {
		panic("rpc: a released Pending released again")
	}
	if c.refs--; c.refs > 0 {
		return
	}
	e := c.e
	if frozenCheck {
		scribble(c.inline[:])
		c.refs = -1
		return
	}
	*c = Pending{e: e, next: e.calls}
	e.calls = c
}

// newPending takes a Pending from the free list, or makes one.
func (e *Endpoint) newPending() *Pending {
	if c := e.calls; c != nil {
		e.calls, c.next = c.next, nil
		e.work.PendingsReused++
		return c
	}
	e.work.PendingsMade++
	return &Pending{e: e}
}

// start encodes and transmits the first attempt of a call. The wire
// image's head is built in a pooled encoder and copied out exactly once,
// into the Pending itself when it fits and into a buffer of its own when
// it does not: the network holds the image until (possibly duplicated)
// delivery, the server until it has served the call, and the retransmit
// loop resends the same image, so the head lives as long as the Pending's
// last holder (inline) or the collector's (a buffer of its own). The
// tail, a WRITE's data, is not copied at all: it is the caller's, frozen
// by the caller before the call. Once sent the image is frozen: nobody
// writes through it or through a view decoded from it until the Pending
// is released.
func (e *Endpoint) start(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args func(xdr.Codec), callTimeout sim.Duration, maxRetries int) *Pending {
	e.nextXID++
	xid := e.nextXID
	e.stats.CallsSent++
	e.sent.Inc(prog, proc)
	op := p.Op()
	c := e.newPending()
	c.to, c.prog, c.vers, c.proc, c.xid, c.op = to, prog, vers, proc, xid, op
	c.timeout, c.retries = callTimeout, maxRetries
	c.issued, c.sent = e.k.Now(), e.k.Now()
	c.refs = 1 // the caller's

	enc := xdr.GetEncoder()
	enc.Uint32(xid)
	enc.Uint32(msgCall)
	enc.Uint32(prog)
	enc.Uint32(vers)
	enc.Uint32(proc)
	enc.Uint64(op)
	if args != nil {
		args(enc.Codec())
	}
	head, tail := enc.Parts()
	if n := len(head); n <= len(c.inline) {
		c.wire = c.inline[:copy(c.inline[:], head):n]
	} else {
		c.wire = append([]byte(nil), head...)
		e.work.Heads++
	}
	e.work.HeadBytes += int64(len(head))
	c.wireTail = tail
	enc.Release()

	e.Tracer.Add(trace.Event{Host: string(e.addr), Kind: trace.RPCCall, Op: op, Peer: string(to),
		Prog: prog, Proc: proc, XID: xid, Bytes: xdr.WireLen(c.wire, c.wireTail) - callHeaderLen})
	e.pending[xid] = c
	e.send(c)
	return c
}

// send transmits one attempt of c, each copy in flight holding c.
func (e *Endpoint) send(c *Pending) {
	e.net.SendOwned(e.addr, c.to, c.wire, c.wireTail, (*callImage)(c))
}

// deliver fills the reply slot, taking over the delivered copy's
// reference to the reply's head, withdraws the attempt's timeout event and
// its reference, and wakes the caller if it is parked on it. Only the
// first reply counts: handleMsg drops a duplicate made by the network, or
// the answer to a retransmission that crossed the first answer, before it
// gets here. The caller still holds the call, so the release is never the
// last.
func (c *Pending) deliver(status Status, body, tail []byte, owner simnet.Owner) {
	c.replied, c.status, c.body, c.tail, c.reply = true, status, body, tail, owner
	if c.e.k.Cancel(c.timer) {
		c.release()
	}
	c.timer = sim.Timer{}
	c.wake()
}

// wake resumes the caller if it is parked in await.
func (c *Pending) wake() {
	if c.waiter != nil {
		c.waiter.Unpark()
		c.waiter = nil
	}
}

// callTimeout is a Pending standing as its own timeout event. It is a
// type of its own so that Due is not a method of Pending.
type callTimeout Pending

// Due ends the attempt await is parked in, and lets go of the event's
// reference. At most one timeout event per call is ahead of its attempt —
// the next is scheduled only after this one came due — and a reply
// withdraws it, so it never finds the call answered (Work.StaleTimeouts
// would count it); what became of the endpoint meanwhile (Stop, Restart)
// does not matter, the event holds the call itself.
func (t *callTimeout) Due() {
	c := (*Pending)(t)
	if frozenCheck && c.refs <= 0 {
		panic("rpc: a timeout came due on a released Pending")
	}
	c.timer = sim.Timer{}
	if c.replied {
		c.e.work.StaleTimeouts++
	} else {
		c.timedOut = true
		c.wake()
	}
	c.release()
}

// await parks p until the reply is in the slot or d has passed, and
// reports whether it is. A reply already delivered (a call whose start
// and wait are apart, as in a test) schedules nothing. d is a step of the
// call's schedule, its first-attempt timeout doubled per retry: a
// constant, so the timeout waits in the kernel's lane for d
// (sim.Kernel.AfterFixed), where the reply can withdraw it.
func (c *Pending) await(p *sim.Proc, d sim.Duration) bool {
	if c.replied {
		return true
	}
	c.timedOut = false
	c.hold() // the timeout event's
	c.timer = c.e.k.AfterFixed(d, (*callTimeout)(c))
	for !c.replied && !c.timedOut {
		c.waiter = p
		p.Park()
	}
	return c.replied
}

// wait runs the timeout/retransmit loop for an already-transmitted call,
// leaving the reply in the slot for the caller to read before done.
func (c *Pending) wait(p *sim.Proc) error {
	e := c.e
	defer delete(e.pending, c.xid)
	timeout := c.timeout
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if e.Reroute != nil {
				if alt := e.Reroute(c.to); alt != "" && alt != c.to {
					e.Tracer.Add(trace.Event{Host: string(e.addr), Kind: trace.RPCRetry, Op: c.op,
						Peer: string(alt), Rerouted: string(c.to), XID: c.xid})
					c.to = alt
				}
			}
			e.stats.Retransmits++
			e.Tracer.Add(trace.Event{Host: string(e.addr), Kind: trace.RPCRetry, Op: c.op, Peer: string(c.to),
				Prog: c.prog, Proc: c.proc, XID: c.xid, Attempt: attempt})
			c.sent = e.k.Now()
			e.send(c)
		}
		if c.await(p, timeout) {
			if e.met != nil {
				var exop uint64
				if e.Spans != nil {
					exop = c.op
				}
				e.met.observeCall(c.prog, c.proc, e.k.Now().Sub(c.issued), attempt > 0, exop)
			}
			return statusErr(c.status)
		}
		// The whole timed-out attempt window is retransmit backoff.
		e.Spans.Add(p, string(e.addr), span.Retrans, proto.ProcName(c.prog, c.proc), c.sent, e.k.Now())
		timeout *= 2 // exponential backoff
	}
	e.stats.Timeouts++
	return fmt.Errorf("%w: %s -> %s prog %d proc %d", ErrTimeout, e.addr, c.to, c.prog, c.proc)
}

// done is the caller letting go of a collected call: the reply's head
// goes back to its endpoint, and the Pending drops what it still points
// at — the reply, the image, the WRITE's data — so that a copy still in
// flight, which keeps the Pending from its free list, pins nothing else.
func (c *Pending) done() {
	if c.reply != nil {
		c.reply.Release()
	}
	c.body, c.tail, c.reply, c.wire, c.wireTail = nil, nil, nil, nil, nil
	c.release()
}

// handleMsg routes one incoming message: a reply into its call's Pending,
// a call through the duplicate cache into the queue, with a service
// process woken for it if a slot is free. It is the port's delivery
// callback, so it runs in scheduler context at the message's delivery
// instant and never blocks; it allocates nothing of its own.
//
// The message comes with the network's reference to its head's owner
// (simnet.Port.SetHandler), and every view below is decoded from that
// head, so the reference goes where the views go: into the Pending for a
// reply its caller will read, into the queue for a call to be served
// (serveOne lets it go), and nowhere else — a reply nobody waits for, a
// call answered from the duplicate cache or dropped as in progress, or a
// corrupt message is let go here.
func (e *Endpoint) handleMsg(m simnet.Message) {
	// Views into the payload are sound until the reference is let go,
	// never written through: the sender may resend the same image. See
	// DESIGN.md §13 and §14.
	var d xdr.Decoder
	d.Reset(m.Payload)
	xid := d.Uint32()
	switch d.Uint32() {
	case msgReply:
		status := Status(d.Uint32())
		body := d.RawRef()
		if c, ok := e.pending[xid]; ok && !c.replied && d.Err() == nil {
			c.deliver(status, body, m.Tail, m.Owner)
			return
		}
		// A corrupt reply (the caller times out), a duplicate made by
		// the network, or the answer to a retransmission that crossed
		// the first answer.
	case msgCall:
		prog := d.Uint32()
		vers := d.Uint32()
		proc := d.Uint32()
		op := d.Uint64()
		args := d.RawRef()
		if d.Err() != nil {
			h, _, _ := e.sendReply(m.From, xid, StatusGarbage, Reply{})
			h.Release()
			break
		}
		switch ent := e.dup.lookup(m.From, xid); ent.state {
		case dupDone:
			// Retransmit of a completed call: resend the
			// recorded image, as is, without re-executing.
			e.stats.DupHits++
			e.net.SendOwned(e.addr, m.From, ent.head, ent.tail, ent.owner.image())
		case dupInProgress:
			// Still executing; drop and let the client
			// retry again later.
			e.stats.DupInProgress++
		default:
			e.dup.start(m.From, xid)
			e.queue.push(request{from: m.From, xid: xid, prog: prog, vers: vers, proc: proc, op: op, enq: e.k.Now(), args: args, tail: m.Tail, held: m.Owner})
			if e.limit > 0 && e.serving == e.limit {
				return // it waits for a slot
			}
			// No call waits while a slot is free, so this one is
			// last in the queue and last of the handed ones: it is
			// at the head when the process woken for it starts,
			// the executor starting jobs in Submit order.
			e.serving++
			e.handed++
			e.exec.Submit(op, e.job, nil)
			return
		}
	}
	if m.Owner != nil {
		m.Owner.Release()
	}
}

// serve is the job every accepted call is submitted as. It runs the call
// it was woken for — the head of the queue — and then, without yielding,
// whatever waits for a slot: a process that finishes a call takes the
// first waiting call at that same instant, and only gives its slot back
// when none waits. It never takes a handed call, though one may be queued
// ahead of the waiting ones for an instant: that call's own process is
// already in the event queue, and running it from here instead would move
// its handler ahead of every event between the two.
func (e *Endpoint) serve(p *sim.Proc) {
	e.handed--
	req := e.queue.take(0)
	for {
		e.serveOne(p, req)
		if e.queue.n == e.handed {
			e.serving--
			return
		}
		req = e.queue.take(e.handed)
	}
}

// serveOne runs one call through its handler and sends the reply. p is a
// pooled executor process; it may block (disk access, nested RPCs). It
// lets go of the call's image, and of the reply's head but for the copies
// in flight and the duplicate cache's, once both are done with.
func (e *Endpoint) serveOne(p *sim.Proc, req request) {
	start := e.k.Now()
	// The worker inherits the caller's causal operation ID, so
	// everything the handler does — disk access, callback fan-out,
	// nested RPCs — is attributed to the originating syscall.
	p.SetOp(req.op)
	var sp span.Handle
	exop := req.op
	if e.Spans != nil {
		if req.op == 0 {
			// Untagged call (a TCP gateway client, an untagged
			// daemon): mint a fresh op so the serve roots its own
			// trace and still shows up in the slow-op capture.
			exop = p.BeginOp()
		}
		sp = e.Spans.Begin(p, string(e.addr), span.Serve, proto.ProcName(req.prog, req.proc))
		e.Spans.Add(p, string(e.addr), span.SrvQueue, "queue", req.enq, e.k.Now())
	}
	e.Tracer.Add(trace.Event{Host: string(e.addr), Kind: trace.RPCServe, Op: req.op, Peer: string(req.from),
		Prog: req.prog, Proc: req.proc, XID: req.xid, Bytes: xdr.WireLen(req.args, req.tail)})
	s, ok := e.progs[req.prog]
	var body Reply
	status := StatusProgUnavail
	if ok {
		body, status = s(p, req.from, req.proc, req.args, req.tail)
	}
	if req.held != nil {
		req.held.Release()
	}
	// The transmitted image is frozen, so the duplicate cache and
	// observers share it; an observer that keeps it copies it, since the
	// head goes back to this endpoint once the cache and the network are
	// done with it.
	h, head, tail := e.sendReply(req.from, req.xid, status, body)
	e.dup.finish(req.from, req.xid, head, tail, h)
	if e.OnServed != nil {
		e.OnServed(req.from, req.xid, req.prog, req.vers, req.proc, head, tail)
	}
	h.Release()
	e.Tracer.Add(trace.Event{Host: string(e.addr), Kind: trace.RPCReply, Op: req.op, Peer: string(req.from),
		Prog: req.prog, Proc: req.proc, XID: req.xid})
	sp.End()
	p.SetOp(0)
	if e.met != nil {
		if e.Spans == nil {
			exop = 0
		}
		e.met.observeServe(req.prog, req.proc, e.k.Now().Sub(start), exop)
	}
}

// SeedDup installs a completed entry in the duplicate cache without the
// call ever having been executed here: a replicated shard's backup seeds
// its cache with the primary's recorded replies, so a client that
// reroutes a timed-out retransmission after failover gets the answer the
// dead primary computed instead of a re-execution. Existing entries are
// left alone (the local execution's reply wins). wire is kept as it is:
// nobody recycles it.
func (e *Endpoint) SeedDup(from simnet.Addr, xid uint32, wire []byte) {
	if e.dup.lookup(from, xid).state != dupNew {
		return
	}
	e.dup.start(from, xid)
	e.dup.finish(from, xid, wire, nil, nil)
}

// sendReply completes body's header with xid and status, copies the head
// into a reply head of this endpoint's (newHead), transmits it with its
// tail, and returns the two and the head's owner, held for the caller to
// release (nil for a head too large to recycle). From here on the image is
// frozen (see start). The tail, a READ's data, goes by reference: it is
// the store's page, which the read froze.
func (e *Endpoint) sendReply(to simnet.Addr, xid uint32, status Status, body Reply) (h *replyHead, head, tail []byte) {
	if body.enc == nil {
		body = Encode(nil)
	}
	img, tail := body.enc.Parts()
	h, head = e.newHead(len(img))
	copy(head, img)
	body.enc.Release()
	e.work.Heads++
	e.work.HeadBytes += int64(len(head))
	binary.BigEndian.PutUint32(head, xid)
	binary.BigEndian.PutUint32(head[replyHeaderLen-4:], uint32(status))
	e.net.SendOwned(e.addr, to, head, tail, h.image())
	return h, head, tail
}

// headCaps are the byte capacities of the reply head classes. A head is
// built in an object of the smallest class that holds it, its bytes and
// its count together — 64, 128, 144, 256, 512 or 1,024 bytes in all, the
// Go size classes of the 40-byte replyHead plus its bytes — and a larger
// one, which no fleet or Andrew run builds, in a buffer of its own that
// is never recycled. The fleet's heads are 16 to 100 bytes.
var headCaps = [...]int{24, 88, 104, 216, 472, 984}

// replyHead is a reply image head and the count of its holders, in one
// object with the head's bytes behind it (newHead). It goes back to its
// endpoint's free list when the last holder lets go: sendReply's caller,
// until serveOne has recorded and observed it; each copy in flight, and
// the caller it is delivered to, until its reply is decoded (done); and
// the duplicate cache's slot, until the slot is recycled or the endpoint
// restarts. The gateway's writer, which reads heads on a goroutine of its
// own, never lets go of those it writes: they are the collector's.
type replyHead struct {
	e    *Endpoint
	b    []byte // the object's bytes, at full length
	refs int32  // holders; < 0 once released (frozencheck)
}

// newHead returns a head of n bytes and its owner: one from the free
// list of n's class, or one made, or for an n beyond every class a
// buffer of its own and no owner.
func (e *Endpoint) newHead(n int) (*replyHead, []byte) {
	class := headClass(n)
	if class == len(headCaps) {
		e.work.HeadsMade++
		return nil, make([]byte, n)
	}
	var h *replyHead
	if free := e.heads[class]; len(free) > 0 {
		h = free[len(free)-1]
		free[len(free)-1] = nil
		e.heads[class] = free[:len(free)-1]
		e.work.HeadsReused++
	} else {
		h = makeHead(class)
		h.e = e
		e.work.HeadsMade++
	}
	h.refs = 1
	return h, h.b[:n]
}

// headClass returns the smallest class that holds n bytes, len(headCaps)
// if none does.
func headClass(n int) int {
	class := 0
	for class < len(headCaps) && n > headCaps[class] {
		class++
	}
	return class
}

// makeHead allocates a head of class headCaps[class].
func makeHead(class int) *replyHead {
	switch class {
	case 0:
		return headWith(func(a *[24]byte) []byte { return a[:] })
	case 1:
		return headWith(func(a *[88]byte) []byte { return a[:] })
	case 2:
		return headWith(func(a *[104]byte) []byte { return a[:] })
	case 3:
		return headWith(func(a *[216]byte) []byte { return a[:] })
	case 4:
		return headWith(func(a *[472]byte) []byte { return a[:] })
	}
	return headWith(func(a *[984]byte) []byte { return a[:] })
}

// headWith allocates a replyHead and the array A its bytes are, bytes(a),
// as one object.
func headWith[A any](bytes func(*A) []byte) *replyHead {
	o := new(struct {
		replyHead
		a A
	})
	o.b = bytes(&o.a)
	return &o.replyHead
}

// image returns h as its head's owner, nil for none.
func (h *replyHead) image() simnet.Owner {
	if h == nil {
		return nil
	}
	return h
}

// Hold takes a reference for a copy of the head.
func (h *replyHead) Hold() {
	if frozenCheck && h.refs <= 0 {
		panic("rpc: a released reply head taken up again")
	}
	h.refs++
}

// Release lets a copy of the head go, nil for none; the last puts the
// head on its endpoint's free list.
func (h *replyHead) Release() {
	if h == nil {
		return
	}
	if frozenCheck && h.refs <= 0 {
		panic("rpc: a released reply head released again")
	}
	if h.refs--; h.refs > 0 {
		return
	}
	if frozenCheck {
		scribble(h.b)
		h.refs = -1
		return
	}
	class := headClass(len(h.b))
	h.e.heads[class] = append(h.e.heads[class], h)
}
