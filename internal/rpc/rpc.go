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
// What a round trip leaves behind is its two wire images, the caller's
// Pending and the handler's own argument and reply structs. The rest of
// the bookkeeping is kept in objects that already exist: the Pending is
// the reply slot, the waiter and the timeout event's target; accepted
// calls and duplicate-cache entries sit by value in rings; the service
// job is one method value per endpoint. See DESIGN.md §14.
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

// Handler services calls to one program. It runs on a server worker and
// may itself block (disk access, nested RPCs).
type Handler func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status)

// MsgHandler is a Handler that returns its reply as a message (nil for an
// empty body), which the endpoint encodes straight behind the reply
// header at the instant the handler returns — the reply-side mirror of
// CallMsg. The wire image is byte-identical to a Handler returning
// proto.Marshal of the same message.
type MsgHandler func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) (proto.Message, Status)

// rawBody is a reply body a Handler already encoded.
type rawBody []byte

func (b rawBody) Encode(e *xdr.Encoder) { e.Raw(b) }

// Options configures an Endpoint.
type Options struct {
	// Workers is the size of the service thread pool (the paper's "N
	// threads"): at most Workers calls are in service at once on the
	// endpoint's own pool, the rest wait their turn in arrival order.
	// Zero means 4.
	Workers int
	// CallTimeout is the per-attempt reply timeout. Zero means 1 s.
	CallTimeout sim.Duration
	// MaxRetries is the number of retransmissions after the first
	// attempt. Zero means 4.
	MaxRetries int
	// DupCacheSize bounds the duplicate-request cache. Zero means 128.
	DupCacheSize int
	// MaxBackoff caps the exponentially-doubled per-attempt timeout: a
	// caller with a generous retry budget stops doubling once it reaches
	// the cap instead of growing without bound. Zero means 60 s, which
	// the default 1,2,4,8,16 s schedule never reaches — existing
	// configurations keep their exact retransmit times.
	MaxBackoff sim.Duration
	// BackoffJitter, when positive, perturbs each backed-off timeout by
	// a uniform draw in ±(jitter × timeout) from the kernel RNG, so
	// clients that timed out together stop retransmitting in lockstep.
	// Zero (the default) keeps the schedule fully deterministic, which
	// the paper-fidelity runs depend on.
	BackoffJitter float64
	// Exec says whose pool the service processes come from. Nil gives the
	// endpoint a private executor held to Workers concurrent calls. A
	// caller-supplied (typically shared) executor is not held to Workers:
	// its owner sized it for the whole fleet, and a thousand light clients
	// then share a few dozen processes instead of parking Workers each.
	Exec *sim.Executor
}

func (o *Options) fill() {
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = sim.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.DupCacheSize <= 0 {
		o.DupCacheSize = 128
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 60 * sim.Second
	}
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

type request struct {
	from simnet.Addr
	xid  uint32
	prog uint32
	vers uint32
	proc uint32
	op   uint64   // causal operation ID carried in the call header
	enq  sim.Time // when handleMsg accepted it (for the srv-queue span)
	args []byte
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
	opts    Options
	nextXID uint32
	pending map[uint32]*Pending
	progs   map[uint32]MsgHandler
	exec    *sim.Executor
	limit   int // calls in service at once; 0 = unbounded (shared pool)
	serving int // calls in service now, counting the handed ones
	// queue holds the accepted calls no process has started on, in
	// arrival order: first the handed ones — a process has been woken
	// for each and they start in that order — then those waiting for a
	// slot, which exist only while serving == limit.
	queue   callQueue
	handed  int
	job     func(*sim.Proc) // serve, bound once: every submission is this value
	dup     dupCache
	stats   Stats
	stopped bool
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
	// with the reply wire image (the one transmitted and recorded in the
	// duplicate cache: read-only). The replication stream uses it to
	// forward dup entries of non-idempotent calls to the backup.
	OnServed func(from simnet.Addr, xid, prog, vers, proc uint32, wire []byte)
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

// Metrics returns the attached registry, if any.
func (e *Endpoint) Metrics() *metrics.Registry {
	if e.met == nil {
		return nil
	}
	return e.met.r
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
	opts.fill()
	e := &Endpoint{
		k:       k,
		net:     net,
		port:    net.Listen(addr),
		addr:    addr,
		opts:    opts,
		pending: make(map[uint32]*Pending),
		progs:   make(map[uint32]MsgHandler),
		exec:    opts.Exec,
	}
	e.job = e.serve
	if e.exec == nil {
		e.exec, e.limit = sim.NewExecutor(k, string(addr)+"/rpc"), opts.Workers
	}
	e.dup = newDupCache(opts.DupCacheSize, &e.stats.DupEvictions)
	e.port.SetHandler(e.handleMsg)
	return e
}

// Addr returns the endpoint's network address.
func (e *Endpoint) Addr() simnet.Addr { return e.addr }

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Workers returns the service pool size.
func (e *Endpoint) Workers() int { return e.opts.Workers }

// RegisterMsg installs h as the handler for program prog.
func (e *Endpoint) RegisterMsg(prog uint32, h MsgHandler) { e.progs[prog] = h }

// Register installs a handler that encodes its own reply body.
func (e *Endpoint) Register(prog uint32, h Handler) {
	e.RegisterMsg(prog, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) (proto.Message, Status) {
		body, st := h(p, from, proc, args)
		return rawBody(body), st
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
	e.dup = newDupCache(e.opts.DupCacheSize, &e.stats.DupEvictions)
	e.port.SetHandler(e.handleMsg)
}

// Call issues an RPC to program prog procedure proc at to, retransmitting
// on timeout, and returns the reply body. The body may be a view of the
// delivered reply image: read it, copy what must change.
func (e *Endpoint) Call(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args []byte) ([]byte, error) {
	return e.CallEx(p, to, prog, vers, proc, args, e.opts.CallTimeout, e.opts.MaxRetries)
}

// CallEx is Call with an explicit per-attempt timeout and retry budget.
// The SNFS server uses a tight budget for callbacks: a callback to a dead
// client must be abandoned before the opener that triggered it times out
// (§3.2).
func (e *Endpoint) CallEx(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, args []byte, callTimeout sim.Duration, maxRetries int) ([]byte, error) {
	sp := e.Spans.Begin(p, string(e.addr), callSpanKind(prog), procTraceName(prog, proc))
	defer sp.End()
	return e.start(p, to, prog, vers, proc, nil, args, callTimeout, maxRetries).wait(p)
}

// CallMsg is Call with the arguments encoded straight from m into the
// pooled wire buffer, skipping the intermediate proto.Marshal allocation.
// The wire image is byte-identical to Call(..., proto.Marshal(m)).
func (e *Endpoint) CallMsg(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, m proto.Message) ([]byte, error) {
	return e.CallMsgEx(p, to, prog, vers, proc, m, e.opts.CallTimeout, e.opts.MaxRetries)
}

// CallMsgEx is CallMsg with an explicit per-attempt timeout and retry
// budget (see CallEx).
func (e *Endpoint) CallMsgEx(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, m proto.Message, callTimeout sim.Duration, maxRetries int) ([]byte, error) {
	sp := e.Spans.Begin(p, string(e.addr), callSpanKind(prog), procTraceName(prog, proc))
	defer sp.End()
	return e.start(p, to, prog, vers, proc, m, nil, callTimeout, maxRetries).wait(p)
}

// Start issues an RPC without waiting for its reply: the call is encoded
// and put on the wire, and the returned Pending collects the reply (and
// owns the retransmit schedule) in Wait. Any number of calls may be
// outstanding per endpoint — replies are multiplexed by xid — so a
// client can pipeline N requests on one connection instead of paying a
// full round trip each.
func (e *Endpoint) Start(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, m proto.Message) *Pending {
	return e.start(p, to, prog, vers, proc, m, nil, e.opts.CallTimeout, e.opts.MaxRetries)
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

// Pending is one in-flight call: the handle Start returns, and all the
// state the call has. It is the entry in the endpoint's xid table, the
// slot the reply is delivered into, the record of who is parked waiting
// for it, and the target of the attempt's timeout event, so a call costs
// this one object beside its wire image. Wait collects a call once.
type Pending struct {
	e       *Endpoint
	to      simnet.Addr
	prog    uint32
	vers    uint32
	proc    uint32
	xid     uint32
	op      uint64
	wire    []byte
	timeout sim.Duration
	retries int
	issued  sim.Time // when the call was first put on the wire
	sent    sim.Time // when the current attempt was put on the wire

	// The reply slot, and the wait on it. The kernel's events cannot be
	// withdrawn, so a call that completes leaves its last timeout event
	// on the heap, pointing here, until it comes due and finds replied
	// set; wait therefore drops body and wire as it returns, and the
	// stale event pins only this struct.
	replied  bool
	timedOut bool // this attempt's timeout came due before a reply
	status   Status
	waiter   *sim.Proc // the caller, while parked in await
	body     []byte    // a view of the delivered reply image
}

// start encodes and transmits the first attempt of a call. The wire
// image is built in a pooled encoder and copied out exactly once: the
// simulated network retains payloads until (possibly duplicated)
// delivery and the retransmit loop resends the same image, so the call's
// buffer must be GC-owned rather than pool-recycled. Once sent it is
// frozen: nobody writes through it or through a view decoded from it.
// That image and the Pending are all a call allocates here.
func (e *Endpoint) start(p *sim.Proc, to simnet.Addr, prog, vers, proc uint32, m proto.Message, args []byte, callTimeout sim.Duration, maxRetries int) *Pending {
	e.nextXID++
	xid := e.nextXID
	e.stats.CallsSent++
	op := p.Op()

	enc := xdr.GetEncoder()
	enc.Uint32(xid)
	enc.Uint32(msgCall)
	enc.Uint32(prog)
	enc.Uint32(vers)
	enc.Uint32(proc)
	enc.Uint64(op)
	if m != nil {
		m.Encode(enc)
	} else {
		enc.Raw(args)
	}
	wire := enc.CopyBytes()
	enc.Release()

	if e.Tracer != nil { // variadic args are boxed even for a nil tracer
		e.Tracer.RecordOp(string(e.addr), trace.RPCCall, op, "-> %s %s xid=%d (%dB)",
			to, procTraceName(prog, proc), xid, len(wire)-callHeaderLen)
	}
	c := &Pending{
		e: e, to: to, prog: prog, vers: vers, proc: proc, xid: xid, op: op,
		wire: wire, timeout: callTimeout, retries: maxRetries,
		issued: e.k.Now(), sent: e.k.Now(),
	}
	e.pending[xid] = c
	e.net.Send(e.addr, to, wire)
	return c
}

// deliver fills the reply slot and wakes the caller if it is parked on it.
// Only the first reply counts: a duplicate made by the network, or the
// answer to a retransmission that crossed the first answer, finds the slot
// full and is dropped.
func (c *Pending) deliver(status Status, body []byte) {
	if c.replied {
		return
	}
	c.replied, c.status, c.body = true, status, body
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
// reports whether it is. A reply already delivered (a pipelined call
// collected late) schedules nothing.
func (c *Pending) await(p *sim.Proc, d sim.Duration) bool {
	if c.replied {
		return true
	}
	c.timedOut = false
	c.e.k.AfterTarget(d, (*callTimeout)(c))
	for !c.replied && !c.timedOut {
		c.waiter = p
		p.Park()
	}
	return c.replied
}

// Wait collects the reply for a call issued with Start, retransmitting
// on timeout exactly as Call does. It records the whole-call span as an
// explicit interval (pipelined calls complete out of order, so the
// recorder's nested Begin/End discipline does not apply).
func (c *Pending) Wait(p *sim.Proc) ([]byte, error) {
	body, err := c.wait(p)
	c.e.Spans.Add(p, string(c.e.addr), callSpanKind(c.prog), procTraceName(c.prog, c.proc), c.issued, c.e.k.Now())
	return body, err
}

// wait runs the timeout/retransmit loop for an already-transmitted call.
func (c *Pending) wait(p *sim.Proc) ([]byte, error) {
	e := c.e
	defer delete(e.pending, c.xid)
	// The backoff cap never shrinks an explicitly generous first timeout
	// (callback delivery passes its own).
	limit := e.opts.MaxBackoff
	if c.timeout > limit {
		limit = c.timeout
	}
	backoff := c.timeout
	timeout := c.timeout
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if e.Reroute != nil {
				if alt := e.Reroute(c.to); alt != "" && alt != c.to {
					e.Tracer.RecordOp(string(e.addr), trace.RPCRetry, c.op, "~> rerouting %s -> %s xid=%d",
						c.to, alt, c.xid)
					c.to = alt
				}
			}
			e.stats.Retransmits++
			e.Tracer.RecordOp(string(e.addr), trace.RPCRetry, c.op, "-> %s %s xid=%d attempt=%d",
				c.to, procTraceName(c.prog, c.proc), c.xid, attempt)
			c.sent = e.k.Now()
			e.net.Send(e.addr, c.to, c.wire)
		}
		if c.await(p, timeout) {
			if e.met != nil {
				var exop uint64
				if e.Spans != nil {
					exop = c.op
				}
				e.met.observeCall(c.prog, c.proc, e.k.Now().Sub(c.issued), attempt > 0, exop)
			}
			body := c.body
			c.body, c.wire = nil, nil
			if err := statusErr(c.status); err != nil {
				return nil, err
			}
			return body, nil
		}
		// The whole timed-out attempt window is retransmit backoff.
		e.Spans.Add(p, string(e.addr), span.Retrans, procTraceName(c.prog, c.proc), c.sent, e.k.Now())
		// Exponential backoff, capped; jitter (off by default) is applied
		// to the waited timeout only, so it never compounds.
		backoff *= 2
		if backoff > limit {
			backoff = limit
		}
		timeout = backoff
		if j := e.opts.BackoffJitter; j > 0 {
			timeout += sim.Duration(j * (2*e.k.Rand().Float64() - 1) * float64(backoff))
		}
	}
	e.stats.Timeouts++
	return nil, fmt.Errorf("%w: %s -> %s prog %d proc %d", ErrTimeout, e.addr, c.to, c.prog, c.proc)
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
			c.deliver(status, body)
		}
	case msgCall:
		prog := d.Uint32()
		vers := d.Uint32()
		proc := d.Uint32()
		op := d.Uint64()
		args := d.RawRef()
		if d.Err() != nil {
			e.sendReply(m.From, xid, StatusGarbage, nil)
			return
		}
		switch state, cached := e.dup.lookup(m.From, xid); state {
		case dupDone:
			// Retransmit of a completed call: resend the
			// recorded image, as is, without re-executing.
			e.stats.DupHits++
			e.net.Send(e.addr, m.From, cached)
		case dupInProgress:
			// Still executing; drop and let the client
			// retry again later.
			e.stats.DupInProgress++
		default:
			e.dup.start(m.From, xid)
			e.queue.push(request{from: m.From, xid: xid, prog: prog, vers: vers, proc: proc, op: op, enq: e.k.Now(), args: args})
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
// already on the event heap, and running it from here instead would move
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
		sp = e.Spans.Begin(p, string(e.addr), span.Serve, procTraceName(req.prog, req.proc))
		e.Spans.Add(p, string(e.addr), span.SrvQueue, "queue", req.enq, e.k.Now())
	}
	if e.Tracer != nil {
		e.Tracer.RecordOp(string(e.addr), trace.RPCServe, req.op, "<- %s %s xid=%d (%dB)",
			req.from, procTraceName(req.prog, req.proc), req.xid, len(req.args))
	}
	h, ok := e.progs[req.prog]
	var body proto.Message
	status := StatusProgUnavail
	if ok {
		body, status = h(p, req.from, req.proc, req.args)
	}
	// Encoded with no yield since the handler returned; the transmitted
	// image is frozen, so the duplicate cache and observers share it.
	wire := e.sendReply(req.from, req.xid, status, body)
	e.dup.finish(req.from, req.xid, wire)
	if e.OnServed != nil {
		e.OnServed(req.from, req.xid, req.prog, req.vers, req.proc, wire)
	}
	if e.Tracer != nil {
		e.Tracer.RecordOp(string(e.addr), trace.RPCReply, req.op, "-> %s %s xid=%d",
			req.from, procTraceName(req.prog, req.proc), req.xid)
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
	if state, _ := e.dup.lookup(from, xid); state != dupNew {
		return
	}
	e.dup.start(from, xid)
	e.dup.finish(from, xid, wire)
}

// sendReply encodes header and body into one wire image, transmits it and
// returns it. From here on the image is frozen (see start).
func (e *Endpoint) sendReply(to simnet.Addr, xid uint32, status Status, body proto.Message) []byte {
	// Pooled encoder, one exact-size copy out: the simulated network
	// retains the payload until delivery, so the transmitted buffer must
	// be GC-owned — but the encoder's grow-as-you-go scratch space is
	// recycled.
	enc := xdr.GetEncoder()
	enc.Uint32(xid)
	enc.Uint32(msgReply)
	enc.Uint32(uint32(status))
	if body != nil {
		body.Encode(enc)
	}
	wire := enc.CopyBytes()
	enc.Release()
	e.net.Send(e.addr, to, wire)
	return wire
}

// procTraceName formats program/procedure pairs for trace output.
func procTraceName(prog, proc uint32) string {
	return proto.ProcName(prog, proc)
}
