// Package audit is an online witness for the consistency guarantees the
// paper claims: an event-sourced journal of every protocol event plus an
// invariant checker that runs alongside the live system.
//
// The auditor keeps a shadow replica of the server's Table 4-1 state
// machine (shadow.go) fed by the state table's Observer hook, and a
// per-block write ledger (ledger.go) fed by a vfs wrapper interposed at
// each client's syscall boundary (fs.go). Every event carries the causal
// operation ID minted by sim.Proc.BeginOp and propagated through the RPC
// wire, so a violation names the syscall that exposed it.
//
// Checked invariants:
//
//	illegal-transition    every server-side state transition is legal per
//	                      Table 4-1, and the post-state matches a state
//	                      independently re-derived from the auditor's own
//	                      open counts
//	version-monotonicity  version numbers never regress for a live entry
//	prev-version          an open-for-write bump records the prior version
//	                      as PrevVersion (the §3.1 cache-validation rule)
//	cache-write-shared    no client is left caching a write-shared file
//	stale-read            every data read returns bytes some committed (or
//	                      concurrently in-flight) write put there — this
//	                      also catches lost delayed writes across
//	                      close/reopen and crash recovery
//
// Violations are recorded in memory, surfaced as metrics and through the
// server's audit procedure, and written (with every other event) to an
// optional JSONL sink.
package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"spritelynfs/internal/core"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
)

// Invariant names, used in violations, journal records, and metrics.
const (
	InvTransition  = "illegal-transition"
	InvVersion     = "version-monotonicity"
	InvPrevVersion = "prev-version"
	InvWriteShared = "cache-write-shared"
	InvStaleRead   = "stale-read"
)

var invariants = []string{InvTransition, InvVersion, InvPrevVersion, InvWriteShared, InvStaleRead}

// Violation is one detected invariant breach.
type Violation struct {
	Seq       int64
	At        sim.Time
	Op        uint64 // causal operation ID of the syscall that exposed it
	Invariant string
	Handle    proto.Handle
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%12.6fs op=%d %s %s: %s",
		v.At.Seconds(), v.Op, v.Invariant, v.Handle, v.Detail)
}

// record is one JSONL journal line. Protocol events and violations share
// the schema; Type distinguishes them.
type record struct {
	Seq       int64  `json:"seq"`
	AtUS      int64  `json:"at_us"`
	Op        uint64 `json:"op,omitempty"`
	Type      string `json:"type"` // "event" or "violation"
	Event     string `json:"event,omitempty"`
	Handle    string `json:"handle,omitempty"`
	Client    string `json:"client,omitempty"`
	Write     bool   `json:"write,omitempty"`
	From      string `json:"from,omitempty"`
	To        string `json:"to,omitempty"`
	Version   uint32 `json:"version,omitempty"`
	Prev      uint32 `json:"prev,omitempty"`
	Invariant string `json:"invariant,omitempty"`
	Detail    string `json:"detail,omitempty"`
}

// Auditor is the online checker. Create with New; attach OnTransition to
// the server state table's Observer and wrap client file systems with
// WrapFS. All methods are safe for use from simulation processes and from
// the snfsd realtime loop.
type Auditor struct {
	k   *sim.Kernel
	mu  sync.Mutex
	enc *json.Encoder // nil when no sink

	seq        int64
	events     int64
	violations []Violation
	byInv      map[string]int64

	shadow  map[proto.Handle]*shadowEntry
	ledgers map[proto.Handle]*fileLedger

	// OnViolation, when set, is called synchronously with every recorded
	// violation — the hook the observability plane uses to dump the
	// flight recorder the moment an invariant breaks, while the ring
	// still holds the events leading up to it. The callback runs with
	// the auditor's lock held: it must not call back into the auditor.
	OnViolation func(Violation)
}

// New returns an auditor on kernel k. sink, when non-nil, receives one
// JSON object per line for every protocol event and violation.
func New(k *sim.Kernel, sink io.Writer) *Auditor {
	a := &Auditor{
		k:       k,
		byInv:   make(map[string]int64),
		shadow:  make(map[proto.Handle]*shadowEntry),
		ledgers: make(map[proto.Handle]*fileLedger),
	}
	if sink != nil {
		a.enc = json.NewEncoder(sink)
	}
	return a
}

// Events reports how many protocol events the auditor has witnessed.
func (a *Auditor) Events() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.events
}

// Violations returns a copy of every violation recorded so far.
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	return out
}

// Err returns nil when no invariant has been violated, or an error
// summarizing the violations (first one quoted) otherwise.
func (a *Auditor) Err() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.violations) == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d invariant violation(s), first: %s",
		len(a.violations), a.violations[0])
}

// Summary renders a human-readable report (the body of the audit RPC).
func (a *Auditor) Summary() string {
	if a == nil {
		return "audit: not enabled\n"
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "audit: %d events witnessed, %d violations\n", a.events, len(a.violations))
	for _, inv := range invariants {
		fmt.Fprintf(&sb, "  %-22s %d\n", inv, a.byInv[inv])
	}
	n := len(a.violations)
	show := a.violations
	if n > 20 {
		show = a.violations[n-20:]
		fmt.Fprintf(&sb, "last 20 of %d violations:\n", n)
	} else if n > 0 {
		fmt.Fprintf(&sb, "violations:\n")
	}
	for _, v := range show {
		fmt.Fprintf(&sb, "  %s\n", v)
	}
	return sb.String()
}

// EnableMetrics exports the auditor's counters on r.
func (a *Auditor) EnableMetrics(r *metrics.Registry) {
	if a == nil || r == nil {
		return
	}
	r.GaugeFunc("snfs_audit_events_total", func() float64 {
		return float64(a.Events())
	})
	r.GaugeFunc("snfs_audit_violations_total", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(len(a.violations))
	})
	for _, inv := range invariants {
		inv := inv
		r.GaugeFunc(metrics.Label("snfs_audit_violations", "invariant", inv), func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(a.byInv[inv])
		})
	}
}

// violate records one breach. Caller holds a.mu.
func (a *Auditor) violate(op uint64, inv string, h proto.Handle, format string, args ...any) {
	v := Violation{
		Seq:       a.seq,
		At:        a.k.Now(),
		Op:        op,
		Invariant: inv,
		Handle:    h,
		Detail:    fmt.Sprintf(format, args...),
	}
	a.seq++
	a.violations = append(a.violations, v)
	a.byInv[inv]++
	a.journal(record{
		Seq: v.Seq, AtUS: int64(v.At), Op: op, Type: "violation",
		Invariant: inv, Handle: h.String(), Detail: v.Detail,
	})
	if a.OnViolation != nil {
		a.OnViolation(v)
	}
}

// journal writes one record to the sink. Caller holds a.mu.
func (a *Auditor) journal(r record) {
	if a.enc != nil {
		a.enc.Encode(r)
	}
}

// event journals a protocol event. Caller holds a.mu.
func (a *Auditor) event(r record) { a.journal(a.stamp(r)) }

// stamp counts r as a protocol event and gives it its seq and instant.
// Caller holds a.mu.
func (a *Auditor) stamp(r record) record {
	r.Seq = a.seq
	a.seq++
	r.AtUS = int64(a.k.Now())
	r.Type = "event"
	a.events++
	return r
}

// NoteEvent records a protocol event that does not pass through the state
// table — the server's callback fan-out, for example.
func (a *Auditor) NoteEvent(op uint64, event string, h proto.Handle, client string, detail string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.event(record{Op: op, Event: event, Handle: h.String(), Client: client, Detail: detail})
}

// ServerRebooted resets the shadow state machine: the server's table (and
// its version counter) is rebuilt from scratch during recovery, so prior
// version floors and states no longer apply. The write ledger is kept —
// file contents survive a server reboot, and a read that returns pre-crash
// bytes when newer committed writes exist is still a lost-write bug.
func (a *Auditor) ServerRebooted() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.shadow = make(map[proto.Handle]*shadowEntry)
	a.event(record{Op: a.k.CurrentOp(), Event: "server-reboot"})
}

// OnTransition is the state-table Observer hook: it journals the event,
// replays it against the shadow machine, and checks every transition
// invariant. Attach with table.Observer = auditor.OnTransition.
func (a *Auditor) OnTransition(ev core.TransitionEvent) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	op := a.k.CurrentOp()
	a.event(record{
		Op: op, Event: ev.Event, Handle: ev.Handle.String(), Client: string(ev.Client),
		Write: ev.Write, From: ev.From.String(), To: ev.To.String(),
		Version: ev.Version, Prev: ev.Prev, Detail: transitionDetail(ev),
	})
	a.checkTransition(op, ev)

	// Contents the protocol legitimately cannot vouch for any longer:
	// a removed or truncated file's ledger restarts, and an opener warned
	// of an inconsistency (the last writer died holding dirty blocks) may
	// see old bytes.
	switch {
	case ev.Event == "drop":
		delete(a.ledgers, ev.Handle)
	case ev.Event == "open" && ev.Inconsistent:
		delete(a.ledgers, ev.Handle)
	}
}

func transitionDetail(ev core.TransitionEvent) string {
	var parts []string
	if ev.CacheEnabled {
		parts = append(parts, "cache=on")
	}
	if ev.Inconsistent {
		parts = append(parts, "inconsistent")
	}
	if ev.Callbacks > 0 {
		parts = append(parts, fmt.Sprintf("callbacks=%d", ev.Callbacks))
	}
	if ev.LastWriter != "" {
		parts = append(parts, "lastWriter="+string(ev.LastWriter))
	}
	return strings.Join(parts, " ")
}
