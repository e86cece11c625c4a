// Package trace is the repository's one event ring: RPC traffic,
// consistency-state transitions, callbacks, cache events and the
// crash/reboot/failover milestones are recorded into a bounded ring,
// timestamped with simulated time, and can be dumped chronologically —
// the tool you want when a callback deadlock or a stale-cache bug needs a
// timeline. A world-wide ring captures a whole run; a server host's ring
// is its black box, dumped on an audit violation or on demand.
//
// A Tracer belongs to the goroutine that runs its kernel: recording and
// reading both happen there (the live daemon reads it on its event loop).
// Tracers are optional everywhere: a nil *Tracer is safe to record to, so
// instrumented code pays one nil check when tracing is off. Instruments
// bundles the ring with the other sinks a component takes in its Attach.
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	opspan "spritelynfs/internal/span"
)

// Kind classifies events.
type Kind uint8

// Event kinds.
const (
	RPCCall  Kind = iota // client sent a call
	RPCRetry             // client retransmitted
	RPCServe             // server worker started a call
	RPCReply             // server sent a reply
	State                // state-table transition
	Callback             // callback issued or served
	Cache                // client cache event (invalidate, writeback)
	Crash                // crash/reboot/recovery milestones
	Note                 // anything else
)

var kindNames = [...]string{"rpc-call", "rpc-retry", "rpc-serve", "rpc-reply", "state", "callback", "cache", "crash", "note"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText makes a kind's JSON form its name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one trace record. Op, when nonzero, is the causal operation ID
// of the syscall the event belongs to (see sim.Proc.BeginOp); events that
// share an Op form one causal chain across hosts. An RPC event carries its
// call in the fields after Detail and no Detail: Events renders the line
// from them, so recording one formats nothing.
type Event struct {
	Seq    int64    `json:"seq"`
	At     sim.Time `json:"at_us"`
	Host   string   `json:"host"`
	Kind   Kind     `json:"kind"`
	Op     uint64   `json:"op,omitempty"`
	Detail string   `json:"detail"`
	// Peer is the other end, the callee of a call or retry and the caller
	// of a serve or reply; a rerouted retry names the address it leaves
	// in Rerouted. Attempt numbers a retry; Bytes are a call's argument
	// bytes, as sent or as served.
	Peer, Rerouted  string `json:"-"`
	Prog, Proc, XID uint32 `json:"-"`
	Attempt, Bytes  int    `json:"-"`
}

func (e Event) String() string {
	return fmt.Sprintf("%12.6fs %-10s %-9s %s", e.At.Seconds(), e.Host, e.Kind, e.Detail)
}

// rendered returns e with an RPC event's Detail formatted from its call.
func (e Event) rendered() Event {
	if e.Kind > RPCReply || e.Detail != "" {
		return e
	}
	name := proto.ProcName(e.Prog, e.Proc)
	switch {
	case e.Kind == RPCCall:
		e.Detail = fmt.Sprintf("-> %s %s xid=%d (%dB)", e.Peer, name, e.XID, e.Bytes)
	case e.Kind == RPCServe:
		e.Detail = fmt.Sprintf("<- %s %s xid=%d (%dB)", e.Peer, name, e.XID, e.Bytes)
	case e.Kind == RPCReply:
		e.Detail = fmt.Sprintf("-> %s %s xid=%d", e.Peer, name, e.XID)
	case e.Rerouted != "":
		e.Detail = fmt.Sprintf("~> rerouting %s -> %s xid=%d", e.Rerouted, e.Peer, e.XID)
	default:
		e.Detail = fmt.Sprintf("-> %s %s xid=%d attempt=%d", e.Peer, name, e.XID, e.Attempt)
	}
	return e
}

// Tracer records events into a bounded ring buffer. The zero value is not
// usable; create with New. A nil Tracer discards records.
type Tracer struct {
	clock func() sim.Time
	ring  []Event
	next  int
	total int64
}

// New returns a tracer holding the most recent capacity events (default
// 4096 if capacity <= 0), timestamping with clock.
func New(clock func() sim.Time, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{clock: clock, ring: make([]Event, 0, capacity)}
}

// Add appends e, numbered and timestamped, over the oldest event once the
// ring is full; safe on a nil tracer. It formats and boxes nothing: the
// caller of a protocol event (state, callback, cache, crash, note) that
// formats its Detail checks for a nil tracer first.
func (t *Tracer) Add(e Event) {
	if t != nil {
		t.add(e)
	}
}

func (t *Tracer) add(e Event) {
	e.Seq, e.At = t.total, t.clock()
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.next] = e
	t.next = (t.next + 1) % len(t.ring)
}

// RecordOp adds an event whose detail is formatted from format and args,
// which are boxed even for a nil tracer.
func (t *Tracer) RecordOp(host string, kind Kind, op uint64, format string, args ...any) {
	if t != nil {
		t.Add(Event{Host: host, Kind: kind, Op: op, Detail: fmt.Sprintf(format, args...)})
	}
}

// Total reports how many events were ever recorded (including evicted
// ones).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Dropped reports how many early events the ring has evicted.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.total - int64(len(t.ring))
}

// Events returns the retained events in chronological order, each RPC
// event's Detail rendered.
func (t *Tracer) Events() []Event { return t.Filter() }

// Filter returns the retained events of the given kinds (all if none
// given) in chronological order, each RPC event's Detail rendered.
func (t *Tracer) Filter(kinds ...Kind) []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.ring))
	for _, part := range [2][]Event{t.ring[t.next:], t.ring[:t.next]} {
		for _, e := range part {
			if len(kinds) == 0 || slices.Contains(kinds, e.Kind) {
				out = append(out, e.rendered())
			}
		}
	}
	return out
}

// Dump writes the retained events to w, optionally filtered by kind.
func (t *Tracer) Dump(w io.Writer, kinds ...Kind) {
	evs := t.Filter(kinds...)
	if dropped := t.Dropped(); dropped > 0 {
		fmt.Fprintf(w, "(%d earlier events dropped)\n", dropped)
	}
	for _, e := range evs {
		fmt.Fprintln(w, e)
	}
}

// DumpTriggered writes the black-box form of the ring: a header naming
// what forced the dump, then every retained event with its causal op ID,
// the key a post-mortem greps for. Safe on a nil tracer (writes nothing).
func (t *Tracer) DumpTriggered(w io.Writer, trigger string) {
	if t == nil {
		return
	}
	evs := t.Events()
	fmt.Fprintf(w, "=== flight recorder dump (%s): %d retained of %d recorded ===\n",
		trigger, len(evs), t.total)
	for _, e := range evs {
		if e.Op != 0 {
			e.Detail = fmt.Sprintf("op=%d %s", e.Op, e.Detail)
		}
		fmt.Fprintln(w, e)
	}
}

// Instruments are the observability sinks a component reports to; a nil
// sink is off. Whoever owns the world creates them (one span recorder per
// world; one event ring per world, or else one per server host — its
// black box, shared by a shard's two replicas; one auditor per shard; one
// registry per server, whose series carry no host label) and hands them
// to each component through its one Attach, which arms the non-nil ones.
type Instruments struct {
	Metrics *metrics.Registry
	Spans   *opspan.Recorder
	Tracer  *Tracer
	// Auditor shadows one SNFS server's state table and witnesses its
	// clients' syscalls; the other components ignore it.
	Auditor *audit.Auditor
}

// Arm sets the non-nil sinks of in on dst, keeping dst's others.
func Arm(dst *Instruments, in Instruments) {
	dst.Metrics = cmp.Or(in.Metrics, dst.Metrics)
	dst.Spans = cmp.Or(in.Spans, dst.Spans)
	dst.Tracer = cmp.Or(in.Tracer, dst.Tracer)
	dst.Auditor = cmp.Or(in.Auditor, dst.Auditor)
}

// FlightDumpOnViolation arranges for the first audit violation (only the
// first: the ring still holds the events that led there) to call dump
// with a trigger naming it. The auditor holds its lock during the
// callback, so dump may read the ring and write a sink but never reenter
// the auditor. A no-op unless both are armed.
func (in Instruments) FlightDumpOnViolation(dump func(trigger string)) {
	if in.Auditor == nil || in.Tracer == nil {
		return
	}
	dumped := false
	in.Auditor.OnViolation = func(v audit.Violation) {
		if dumped {
			return
		}
		dumped = true
		dump(fmt.Sprintf("audit violation op=%d %s: %s", v.Op, v.Invariant, v.Detail))
	}
}
