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
// What a round trip allocates is the caller's Pending, which holds a
// small call image head in itself, and the reply's head. Arguments and
// replies are encoded by static calls in the frames that built them, so
// neither message leaves its stack. The rest of the bookkeeping is kept
// in objects that already exist: the Pending is the reply slot, the
// waiter and the timeout event's target; accepted calls and
// duplicate-cache entries sit by value in rings; the service job is one
// method value per endpoint. See DESIGN.md §14.
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
	"sync"

	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
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
	CallsServed   int64 // handler invocations
	DupHits       int64 // retransmits answered from the duplicate cache
	DupInProgress int64 // retransmits dropped because the call was executing
	DupEvictions  int64 // duplicate-cache entries evicted to make room
}

// Work counts the wire-image heads an endpoint has built. For a fixed
// seed and tree each count is exact, as sim.KernelWork's are.
type Work struct {
	// Heads counts the heads built in a buffer of their own, outside a
	// Pending: a call head over inlineImage bytes, and every reply head.
	Heads int64
	// HeadBytes counts the bytes copied into heads, a Pending's included.
	HeadBytes int64
}

// Add returns the sum of w and v.
func (w Work) Add(v Work) Work { return Work{w.Heads + v.Heads, w.HeadBytes + v.HeadBytes} }

type request struct {
	from simnet.Addr
	xid  uint32
	prog uint32
	vers uint32
	proc uint32
	op   uint64   // causal operation ID carried in the call header
	enq  sim.Time // when handleMsg accepted it (for the srv-queue span)
	args []byte
	tail []byte // the call image's tail, behind args
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
	work   Work
	// Tracer, when set, records this endpoint's RPC activity.
	Tracer *trace.Tracer
	// Spans, when set, records causal latency spans: wire time and
	// retransmit gaps on the call side, queue wait and serve intervals
	// on the service side. Nil keeps the hot path at one nil check.
	Spans *span.Recorder
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
	// met, when set via SetMetrics, records per-procedure latency
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

// SetMetrics attaches a metrics registry: the endpoint records one
// call→reply latency sample per completed call (retransmitted calls in a
// separately-tagged series) and one serve-duration sample per handler
// invocation. A nil registry detaches.
func (e *Endpoint) SetMetrics(r *metrics.Registry) {
	if r == nil {
		e.met = nil
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
	e.queue.truncate(e.handed)
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
	e.dup = newDupCache(dupCacheSize, &e.stats.DupEvictions)
	e.port.SetHandler(e.handleMsg)
}

// Call issues an RPC to program prog procedure proc at to, retransmitting
// on timeout, and returns the reply body. The body may be a view of the
// delivered reply image: read it, copy what must change. A reply that
// came as a head and a tail is returned joined, in a buffer of its own
// (xdr.Join; CallTail leaves the two apart).
func (e *Endpoint) Call(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args []byte) ([]byte, error) {
	return e.CallXDR(p, to, prog, vers, proc, rawBody(args).XDR)
}

// CallMsg is CallXDR for a message already boxed as a proto.Message.
func (e *Endpoint) CallMsg(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, m proto.Message) ([]byte, error) {
	return e.CallXDR(p, to, prog, vers, proc, m.XDR)
}

// CallXDR is Call with the arguments encoded by args straight into the
// pooled wire buffer: args is the XDR method value of a message in the
// caller's frame (a.XDR), which keeps the message on the stack, as Encode
// does for a reply.
func (e *Endpoint) CallXDR(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args func(xdr.Codec)) ([]byte, error) {
	return e.CallXDREx(p, to, prog, vers, proc, args, CallTimeout, MaxRetries)
}

// CallXDREx is CallXDR with an explicit schedule in place of the default
// (CallTimeout, MaxRetries): a first-attempt timeout, doubled for each
// retransmission, and a retry budget. The SNFS server uses a tight budget
// for callbacks: a callback to a dead client must be abandoned before the
// opener that triggered it times out (§3.2).
func (e *Endpoint) CallXDREx(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args func(xdr.Codec), callTimeout sim.Duration, maxRetries int) ([]byte, error) {
	body, tail, err := e.call(p, to, prog, vers, proc, args, callTimeout, maxRetries)
	return xdr.Join(body, tail), err
}

// CallTail is CallXDR for a caller that decodes a two-part reply image
// itself: the reply body is body‖tail, the tail's pad implied (tail nil
// for a reply sent whole),
// and the two are left apart, so a READ's data is the server's frozen
// page and not a copy joined behind the header. Decode them with
// xdr.Decoder.ResetTail.
func (e *Endpoint) CallTail(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args func(xdr.Codec)) (body, tail []byte, err error) {
	return e.call(p, to, prog, vers, proc, args, CallTimeout, MaxRetries)
}

// call is the one synchronous call path, inside its whole-call span.
func (e *Endpoint) call(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args func(xdr.Codec), callTimeout sim.Duration, maxRetries int) (body, tail []byte, err error) {
	sp := e.Spans.Begin(p, string(e.addr), callSpanKind(prog), proto.ProcName(prog, proc))
	defer sp.End()
	return e.start(p, to, prog, vers, proc, args, callTimeout, maxRetries).wait(p)
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

// Pending is one in-flight call and all the state it has: start makes
// it and wait collects it, once, in the caller's process. It is the entry
// in the endpoint's xid table, the slot the reply is delivered into, the
// record of who is parked waiting for it, the target of the attempt's
// timeout event, and, for an image head of up to inlineImage bytes, the
// call's wire image head, so such a call costs this one object. Calls of
// many processes are outstanding at once on one endpoint, their replies
// matched by xid: that is how a client's biods overlap their WRITEs.
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
	issued   sim.Time // when the call was first put on the wire
	sent     sim.Time // when the current attempt was put on the wire

	// The reply slot, and the wait on it. The kernel's events cannot be
	// withdrawn, so a call that completes leaves its last timeout event
	// in the kernel's lane for that timeout, pointing here, until it
	// comes due and finds replied set; wait therefore drops body, tail and the wire image as it
	// returns, and the stale event pins only this struct.
	replied  bool
	timedOut bool // this attempt's timeout came due before a reply
	status   Status
	waiter   *sim.Proc // the caller, while parked in await
	body     []byte    // a view of the delivered reply image
	tail     []byte    // the image's tail, behind body

	inline [inlineImage]byte // wire, when it fits
}

// start encodes and transmits the first attempt of a call. The wire
// image's head is built in a pooled encoder and copied out exactly once,
// into the Pending itself when it fits and into a buffer of its own when
// it does not: the simulated network retains payloads until (possibly
// duplicated) delivery and the retransmit loop resends the same image,
// so the call's buffer must be GC-owned rather than pool-recycled. The
// tail, a WRITE's data, is not copied at all: it is the caller's, frozen
// by the caller before the call. Once sent the image is frozen: nobody
// writes through it or through a view decoded from it. The Pending, and
// a large head, are all a call allocates here.
func (e *Endpoint) start(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args func(xdr.Codec), callTimeout sim.Duration, maxRetries int) *Pending {
	e.nextXID++
	xid := e.nextXID
	e.stats.CallsSent++
	op := p.Op()
	c := &Pending{
		e: e, to: to, prog: prog, vers: vers, proc: proc, xid: xid, op: op,
		timeout: callTimeout, retries: maxRetries,
		issued: e.k.Now(), sent: e.k.Now(),
	}

	enc := xdr.GetEncoder()
	enc.Uint32(xid)
	enc.Uint32(msgCall)
	enc.Uint32(prog)
	enc.Uint32(vers)
	enc.Uint32(proc)
	enc.Uint64(op)
	args(enc.Codec())
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

	if e.Tracer != nil { // variadic args are boxed even for a nil tracer
		e.Tracer.RecordOp(string(e.addr), trace.RPCCall, op, "-> %s %s xid=%d (%dB)",
			to, proto.ProcName(prog, proc), xid, xdr.WireLen(c.wire, c.wireTail)-callHeaderLen)
	}
	e.pending[xid] = c
	e.net.SendTail(e.addr, to, c.wire, c.wireTail)
	return c
}

// deliver fills the reply slot and wakes the caller if it is parked on it.
// Only the first reply counts: a duplicate made by the network, or the
// answer to a retransmission that crossed the first answer, finds the slot
// full and is dropped.
func (c *Pending) deliver(status Status, body, tail []byte) {
	if c.replied {
		return
	}
	c.replied, c.status, c.body, c.tail = true, status, body, tail
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

// Due ends the attempt await is parked in. At most one timeout event per
// call is ahead of its attempt — the next is scheduled only after this one
// came due — so the one way to be stale is to find the call answered, at
// this instant or long before; what became of the endpoint meanwhile
// (Stop, Restart) does not matter, the event holds the call itself.
func (t *callTimeout) Due() {
	c := (*Pending)(t)
	if c.replied {
		return
	}
	c.timedOut = true
	c.wake()
}

// await parks p until the reply is in the slot or d has passed, and
// reports whether it is. A reply already delivered (a call whose start
// and wait are apart, as in a test) schedules nothing. d is a step of the call's schedule,
// its first-attempt timeout doubled per retry: a constant, so the timeout
// waits in the kernel's lane for d (sim.Kernel.AfterFixed).
func (c *Pending) await(p *sim.Proc, d sim.Duration) bool {
	if c.replied {
		return true
	}
	c.timedOut = false
	c.e.k.AfterFixed(d, (*callTimeout)(c))
	for !c.replied && !c.timedOut {
		c.waiter = p
		p.Park()
	}
	return c.replied
}

// wait runs the timeout/retransmit loop for an already-transmitted call,
// and returns the reply body in its two parts.
func (c *Pending) wait(p *sim.Proc) (body, tail []byte, err error) {
	e := c.e
	defer delete(e.pending, c.xid)
	timeout := c.timeout
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if e.Reroute != nil {
				if alt := e.Reroute(c.to); alt != "" && alt != c.to {
					if e.Tracer != nil {
						e.Tracer.RecordOp(string(e.addr), trace.RPCRetry, c.op, "~> rerouting %s -> %s xid=%d",
							c.to, alt, c.xid)
					}
					c.to = alt
				}
			}
			e.stats.Retransmits++
			if e.Tracer != nil {
				e.Tracer.RecordOp(string(e.addr), trace.RPCRetry, c.op, "-> %s %s xid=%d attempt=%d",
					c.to, proto.ProcName(c.prog, c.proc), c.xid, attempt)
			}
			c.sent = e.k.Now()
			e.net.SendTail(e.addr, c.to, c.wire, c.wireTail)
		}
		if c.await(p, timeout) {
			if e.met != nil {
				var exop uint64
				if e.Spans != nil {
					exop = c.op
				}
				e.met.observeCall(c.prog, c.proc, e.k.Now().Sub(c.issued), attempt > 0, exop)
			}
			body, tail := c.body, c.tail
			c.body, c.tail, c.wire, c.wireTail = nil, nil, nil, nil
			if err := statusErr(c.status); err != nil {
				return nil, nil, err
			}
			return body, tail, nil
		}
		// The whole timed-out attempt window is retransmit backoff.
		e.Spans.Add(p, string(e.addr), span.Retrans, proto.ProcName(c.prog, c.proc), c.sent, e.k.Now())
		timeout *= 2 // exponential backoff
	}
	e.stats.Timeouts++
	return nil, nil, fmt.Errorf("%w: %s -> %s prog %d proc %d", ErrTimeout, e.addr, c.to, c.prog, c.proc)
}

// handleMsg routes one incoming message: a reply into its call's Pending,
// a call through the duplicate cache into the queue, with a service
// process woken for it if a slot is free. It is the port's delivery
// callback, so it runs in scheduler context at the message's delivery
// instant and never blocks; it allocates nothing of its own.
func (e *Endpoint) handleMsg(m simnet.Message) {
	// Zero-copy views into the payload are sound here: the simulated
	// network hands over a GC-owned buffer it never reuses, so a
	// handler (or the waiting caller) may retain the view for as
	// long as it likes — but never write through it: the sender may
	// resend the same image. See DESIGN.md §13 and §14.
	var d xdr.Decoder
	d.Reset(m.Payload)
	xid := d.Uint32()
	mtype := d.Uint32()
	switch mtype {
	case msgReply:
		status := Status(d.Uint32())
		body := d.RawRef()
		if d.Err() != nil {
			return // corrupt reply; let the caller time out
		}
		if c, ok := e.pending[xid]; ok {
			c.deliver(status, body, m.Tail)
		}
	case msgCall:
		prog := d.Uint32()
		vers := d.Uint32()
		proc := d.Uint32()
		op := d.Uint64()
		args := d.RawRef()
		if d.Err() != nil {
			e.sendReply(m.From, xid, StatusGarbage, Reply{})
			return
		}
		switch state, head, tail := e.dup.lookup(m.From, xid); state {
		case dupDone:
			// Retransmit of a completed call: resend the
			// recorded image, as is, without re-executing.
			e.stats.DupHits++
			e.net.SendTail(e.addr, m.From, head, tail)
		case dupInProgress:
			// Still executing; drop and let the client
			// retry again later.
			e.stats.DupInProgress++
		default:
			e.dup.start(m.From, xid)
			e.queue.push(request{from: m.From, xid: xid, prog: prog, vers: vers, proc: proc, op: op, enq: e.k.Now(), args: args, tail: m.Tail})
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
		}
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
// pooled executor process; it may block (disk access, nested RPCs).
func (e *Endpoint) serveOne(p *sim.Proc, req request) {
	e.stats.CallsServed++
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
	if e.Tracer != nil {
		e.Tracer.RecordOp(string(e.addr), trace.RPCServe, req.op, "<- %s %s xid=%d (%dB)",
			req.from, proto.ProcName(req.prog, req.proc), req.xid, xdr.WireLen(req.args, req.tail))
	}
	s, ok := e.progs[req.prog]
	var body Reply
	status := StatusProgUnavail
	if ok {
		body, status = s(p, req.from, req.proc, req.args, req.tail)
	}
	// The transmitted image is frozen, so the duplicate cache and
	// observers share it.
	head, tail := e.sendReply(req.from, req.xid, status, body)
	e.dup.finish(req.from, req.xid, head, tail)
	if e.OnServed != nil {
		e.OnServed(req.from, req.xid, req.prog, req.vers, req.proc, head, tail)
	}
	if e.Tracer != nil {
		e.Tracer.RecordOp(string(e.addr), trace.RPCReply, req.op, "-> %s %s xid=%d",
			req.from, proto.ProcName(req.prog, req.proc), req.xid)
	}
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
// left alone (the local execution's reply wins).
func (e *Endpoint) SeedDup(from simnet.Addr, xid uint32, wire []byte) {
	if state, _, _ := e.dup.lookup(from, xid); state != dupNew {
		return
	}
	e.dup.start(from, xid)
	e.dup.finish(from, xid, wire, nil)
}

// sendReply completes body's header with xid and status, transmits the
// wire image, head and tail, and returns it. From here on the image is
// frozen (see start).
func (e *Endpoint) sendReply(to simnet.Addr, xid uint32, status Status, body Reply) (head, tail []byte) {
	// One exact-size copy of the head out of the pooled encoder: the
	// simulated network retains the payload until delivery, so the
	// transmitted buffer must be GC-owned — but the encoder's
	// grow-as-you-go scratch space is recycled. The tail, a READ's data,
	// goes by reference: it is the store's page, which the read froze.
	if body.enc == nil {
		body = Encode(nil)
	}
	head, tail = body.enc.Image()
	body.enc.Release()
	e.work.Heads++
	e.work.HeadBytes += int64(len(head))
	binary.BigEndian.PutUint32(head, xid)
	binary.BigEndian.PutUint32(head[replyHeaderLen-4:], uint32(status))
	e.net.SendTail(e.addr, to, head, tail)
	return head, tail
}
