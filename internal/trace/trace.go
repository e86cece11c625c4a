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
// instrumented code pays one nil check when tracing is off.
package trace

import (
	"fmt"
	"io"

	"spritelynfs/internal/sim"
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

func (k Kind) String() string {
	switch k {
	case RPCCall:
		return "rpc-call"
	case RPCRetry:
		return "rpc-retry"
	case RPCServe:
		return "rpc-serve"
	case RPCReply:
		return "rpc-reply"
	case State:
		return "state"
	case Callback:
		return "callback"
	case Cache:
		return "cache"
	case Crash:
		return "crash"
	case Note:
		return "note"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText makes a kind's JSON form its name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one trace record. Op, when nonzero, is the causal operation ID
// of the syscall the event belongs to (see sim.Proc.BeginOp); events that
// share an Op form one causal chain across hosts.
type Event struct {
	Seq    int64    `json:"seq"`
	At     sim.Time `json:"at_us"`
	Host   string   `json:"host"`
	Kind   Kind     `json:"kind"`
	Op     uint64   `json:"op,omitempty"`
	Detail string   `json:"detail"`
}

func (e Event) String() string {
	return fmt.Sprintf("%12.6fs %-10s %-9s %s", e.At.Seconds(), e.Host, e.Kind, e.Detail)
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

// Record appends an event; safe on a nil tracer.
func (t *Tracer) Record(host string, kind Kind, format string, args ...any) {
	t.RecordOp(host, kind, 0, format, args...)
}

// RecordOp is Record with an explicit causal operation ID.
func (t *Tracer) RecordOp(host string, kind Kind, op uint64, format string, args ...any) {
	if t == nil {
		return
	}
	e := Event{
		Seq:    t.total,
		At:     t.clock(),
		Host:   host,
		Kind:   kind,
		Op:     op,
		Detail: fmt.Sprintf(format, args...),
	}
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.next] = e
	t.next = (t.next + 1) % len(t.ring)
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

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Filter returns retained events of the given kinds (all if none given).
func (t *Tracer) Filter(kinds ...Kind) []Event {
	if len(kinds) == 0 {
		return t.Events()
	}
	// Kind is a uint8, so a fixed array covers every possible value with
	// no per-call allocation (Filter runs per Dump over the whole ring).
	var want [256]bool
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	for _, e := range t.Events() {
		if want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// Dump writes the retained events to w, optionally filtered by kind.
func (t *Tracer) Dump(w io.Writer, kinds ...Kind) {
	if t == nil {
		return
	}
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
		op := ""
		if e.Op != 0 {
			op = fmt.Sprintf(" op=%d", e.Op)
		}
		fmt.Fprintf(w, "%12.6fs %-10s %-9s%s %s\n", e.At.Seconds(), e.Host, e.Kind, op, e.Detail)
	}
}
