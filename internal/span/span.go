// Package span is causal latency attribution for the protocol stack: a
// per-operation tree of timed intervals built on top of the causal op IDs
// minted by sim.Proc.BeginOp. Every client syscall becomes a root span
// (Root, opened where the syscall mints its op), and the instrumented
// layers underneath — client cache and attribute-cache work, biod flush
// waits, RPC wire time and retransmit gaps, server queueing, handler CPU,
// disk queue delay and arm time, callback round-trips — attach child
// spans as the operation flows through them, across processes and hosts.
//
// From the finished trees the Recorder derives three products:
//
//   - a critical-path breakdown (Summarize): elapsed time attributed to
//     exactly one category per instant — the deepest span covering that
//     instant wins — so the per-category sums always equal the root
//     duration, and "elapsed = X% disk arm + Y% server CPU + ..." is an
//     identity, not an estimate;
//   - a top-K slowest-ops capture: a bounded min-heap keyed on root-span
//     duration; the full span tree is retained only for the winners;
//   - histogram exemplars (EnableMetrics): per-root-name latency
//     histograms whose buckets remember the op ID of a recent sample, so
//     a p99 bucket links straight to a captured tree.
//
// Like trace.Tracer and the metrics types, everything is nil-safe: a nil
// *Recorder no-ops at every call site, so the instrumented hot paths pay
// one nil check when spans are off, and all paper-table outputs are
// byte-identical. The Recorder never sleeps, never touches the kernel
// RNG, and never blocks a simulation process, so arming it does not
// perturb simulated time. A mutex guards the structures because the
// standalone daemon records from the realtime kernel while HTTP readers
// snapshot concurrently.
package span

import (
	"sort"
	"sync"

	"spritelynfs/internal/metrics"
	"spritelynfs/internal/sim"
)

// Kind classifies what a span's time was spent on; it is the attribution
// category of the critical-path breakdown.
type Kind uint8

// Span kinds. Syscall and Daemon are root kinds; the rest are children.
const (
	Syscall   Kind = iota // a client syscall (root; self time = client other)
	Daemon                // a background daemon pass (root; sync/recovery)
	Cache                 // client block-cache work (fetch, dedup wait)
	Attr                  // client attribute-cache remote revalidation
	BiodWait              // waiting for the client's async write-behind pool
	RPC                   // an RPC round-trip (self time = wire + server)
	Retrans               // a timed-out RPC attempt window
	Callback              // a server→client callback round-trip
	Serve                 // server worker handling one call (self = other)
	SrvQueue              // request waiting in the server work queue
	CPUQueue              // waiting for the server CPU resource
	CPU                   // server handler CPU charge
	DiskQueue             // waiting for the disk resource
	DiskArm               // disk positioning + transfer
	kindCount
)

var kindNames = [kindCount]string{
	Syscall: "syscall", Daemon: "daemon", Cache: "cache", Attr: "attr",
	BiodWait: "biod-wait", RPC: "rpc", Retrans: "retrans",
	Callback: "callback", Serve: "serve", SrvQueue: "srv-queue",
	CPUQueue: "cpu-queue", CPU: "cpu", DiskQueue: "disk-queue",
	DiskArm: "disk-arm",
}

// displayNames are the breakdown-table row labels.
var displayNames = [kindCount]string{
	Syscall: "client other", Daemon: "daemon", Cache: "client cache",
	Attr: "attr revalidate", BiodWait: "biod wait", RPC: "wire",
	Retrans: "retransmit", Callback: "callback wait",
	Serve: "server other", SrvQueue: "server queue",
	CPUQueue: "server cpu queue", CPU: "server cpu",
	DiskQueue: "disk queue", DiskArm: "disk arm",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Display returns the human-readable breakdown label for k.
func (k Kind) Display() string {
	if int(k) < len(displayNames) {
		return displayNames[k]
	}
	return "?"
}

// node is one span inside a trace.
type node struct {
	parent     int32 // index into trace.nodes, -1 for the root
	depth      int32
	kind       Kind
	name       string
	host       string
	start, end sim.Time
	open       bool
}

// trace is one operation's span tree: a root (index 0) plus children.
type trace struct {
	id    uint64
	op    uint64 // causal op ID; lookup key while open
	done  bool
	nodes []node
}

// stack tracks a process's open spans; its top is the parent of the next
// span begun on that process.
type stack struct {
	t   *trace
	idx []int32
}

// Recorder collects span trees and their derived aggregates. Create with
// NewRecorder; a nil *Recorder is safe everywhere and records nothing.
type Recorder struct {
	mu    sync.Mutex
	clock func() sim.Time
	topK  int

	stacks    map[*sim.Proc]*stack
	byOp      map[uint64]*trace
	nextTrace uint64

	agg                Agg
	heap               opHeap
	windowLo, windowHi sim.Time
	haveWindow         bool

	reg   *metrics.Registry
	hists map[string]*metrics.Histogram
}

// DefaultTopK is the slow-op capture size when none is configured.
const DefaultTopK = 32

// NewRecorder returns a recorder timestamping with clock and retaining
// the topK slowest operations (DefaultTopK if topK <= 0).
func NewRecorder(clock func() sim.Time, topK int) *Recorder {
	if topK <= 0 {
		topK = DefaultTopK
	}
	return &Recorder{
		clock:  clock,
		topK:   topK,
		stacks: map[*sim.Proc]*stack{},
		byOp:   map[uint64]*trace{},
		hists:  map[string]*metrics.Histogram{},
	}
}

// EnableMetrics registers per-root-name latency histograms (with op-ID
// exemplars) into reg as snfs_span_root_us{name="..."}.
func (r *Recorder) EnableMetrics(reg *metrics.Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg = reg
	reg.Help("snfs_span_root_us", "root span (whole operation) latency by syscall name, with op-ID exemplars")
}

// Handle identifies an open span; End closes it. The zero Handle (from a
// nil recorder) is safe to End.
type Handle struct {
	r   *Recorder
	t   *trace
	p   *sim.Proc
	idx int32
	ok  bool
}

// Begin opens a span on process p. Parentage: the innermost open span on
// p if it has one; otherwise, if p carries a causal op ID with an open
// trace (a server worker or callback handler continuing a client's
// operation), the innermost open span of that trace; otherwise the new
// span roots a fresh trace keyed by p's op ID. Safe on a nil recorder.
func (r *Recorder) Begin(p *sim.Proc, host string, kind Kind, name string) Handle {
	if r == nil || p == nil {
		return Handle{}
	}
	return r.begin(p, host, kind, name, p.Op())
}

// Root opens the Syscall span of one syscall: the root of a fresh trace
// keyed by op, the causal op ID the syscall has just minted, or by none
// when op is 0 (a local mount's syscalls mint none). Like Begin, it nests
// under a span p already has open. Safe on a nil recorder.
func (r *Recorder) Root(p *sim.Proc, host, name string, op uint64) Handle {
	if r == nil || p == nil {
		return Handle{}
	}
	return r.begin(p, host, Syscall, name, op)
}

// begin is Begin with the op ID a fresh trace is keyed by.
func (r *Recorder) begin(p *sim.Proc, host string, kind Kind, name string, op uint64) Handle {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()
	t, parent := r.resolve(p)
	if t == nil {
		t = &trace{id: r.nextTrace, op: op}
		r.nextTrace++
		if _, taken := r.byOp[op]; op != 0 && !taken {
			r.byOp[op] = t
		}
	}
	depth := int32(0)
	if parent >= 0 {
		depth = t.nodes[parent].depth + 1
	}
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{
		parent: parent, depth: depth, kind: kind, name: name, host: host,
		start: now, open: true,
	})
	st := r.stacks[p]
	if st == nil {
		st = &stack{}
		r.stacks[p] = st
	}
	if len(st.idx) == 0 {
		st.t = t
	}
	st.idx = append(st.idx, idx)
	return Handle{r: r, t: t, p: p, idx: idx, ok: true}
}

// Add records an already-finished interval [start, end) as a child of
// p's current span — the shape of retroactive measurements like resource
// queueing delay, where the wait is only known once it is over. Safe on a
// nil recorder; zero-length intervals are dropped.
func (r *Recorder) Add(p *sim.Proc, host string, kind Kind, name string, start, end sim.Time) {
	if r == nil || p == nil || end <= start {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, parent := r.resolve(p)
	if t == nil {
		// No causal context (an untagged daemon): a degenerate one-span
		// trace, finalized immediately into the background bucket.
		t = &trace{id: r.nextTrace, op: p.Op()}
		r.nextTrace++
		t.nodes = append(t.nodes, node{
			parent: -1, kind: kind, name: name, host: host,
			start: start, end: end,
		})
		r.finalize(t)
		return
	}
	depth := t.nodes[parent].depth + 1
	t.nodes = append(t.nodes, node{
		parent: parent, depth: depth, kind: kind, name: name, host: host,
		start: start, end: end,
	})
}

// End closes the span. Ending a root finalizes its trace: attribution,
// aggregation, and slow-op capture happen here.
func (h Handle) End() {
	if !h.ok {
		return
	}
	r := h.r
	r.mu.Lock()
	defer r.mu.Unlock()
	t := h.t
	if int(h.idx) < len(t.nodes) {
		n := &t.nodes[h.idx]
		if n.open {
			n.open = false
			n.end = r.clock()
		}
	}
	if st := r.stacks[h.p]; st != nil && st.t == t {
		for i := len(st.idx) - 1; i >= 0; i-- {
			if st.idx[i] == h.idx {
				st.idx = append(st.idx[:i], st.idx[i+1:]...)
				break
			}
		}
		if len(st.idx) == 0 {
			delete(r.stacks, h.p)
		}
	}
	if h.idx == 0 && !t.done {
		r.finalize(t)
	}
}

// resolve finds the trace and parent index for a new node on p, or
// (nil, -1) when p has no causal context. Caller holds r.mu.
func (r *Recorder) resolve(p *sim.Proc) (*trace, int32) {
	if st := r.stacks[p]; st != nil && len(st.idx) > 0 {
		return st.t, st.idx[len(st.idx)-1]
	}
	if op := p.Op(); op != 0 {
		if t := r.byOp[op]; t != nil && !t.done {
			return t, innermostOpen(t)
		}
	}
	return nil, -1
}

// innermostOpen returns the deepest open node of t (ties: latest index).
func innermostOpen(t *trace) int32 {
	best, bd := int32(-1), int32(-1)
	for i := range t.nodes {
		if t.nodes[i].open && t.nodes[i].depth >= bd {
			best, bd = int32(i), t.nodes[i].depth
		}
	}
	return best
}

// finalize closes out a trace: attribution sweep, aggregate update,
// exemplar observation, and slow-op offer. Caller holds r.mu.
func (r *Recorder) finalize(t *trace) {
	t.done = true
	if r.byOp[t.op] == t {
		delete(r.byOp, t.op)
	}
	root := &t.nodes[0]
	if root.open {
		root.open = false
		root.end = r.clock()
	}
	dur := root.end.Sub(root.start)
	if dur < 0 {
		dur = 0
	}
	cats := attribute(t)
	if !r.haveWindow || root.start < r.windowLo {
		r.windowLo = root.start
	}
	if !r.haveWindow || root.end > r.windowHi {
		r.windowHi = root.end
	}
	r.haveWindow = true
	if root.kind == Syscall {
		r.agg.Ops++
		r.agg.RootTime += dur
		for i := range cats {
			r.agg.Cats[i] += cats[i]
		}
	} else {
		r.agg.Background++
		for i := range cats {
			r.agg.BGCats[i] += cats[i]
		}
	}
	r.observeRoot(root, t.op, dur)
	r.offer(t, dur, cats)
}

// observeRoot records the root latency (with an op exemplar) into the
// per-name histogram when metrics are enabled. Caller holds r.mu.
func (r *Recorder) observeRoot(root *node, op uint64, dur sim.Duration) {
	if r.reg == nil {
		return
	}
	name := metrics.Label("snfs_span_root_us", "name", root.name)
	h := r.hists[name]
	if h == nil {
		h = r.reg.Histogram(name)
		r.hists[name] = h
	}
	h.ObserveOp(int64(dur), op)
}

// attribute charges every instant of the root window to exactly one
// category: the deepest span covering it (ties: later start, then later
// index). Open children are clamped to the root's end, so the per-kind
// sums always equal the root duration.
func attribute(t *trace) [kindCount]sim.Duration {
	var cats [kindCount]sim.Duration
	root := t.nodes[0]
	lo, hi := root.start, root.end
	if hi <= lo {
		return cats
	}
	type iv struct {
		s, e  sim.Time
		depth int32
		idx   int32
		kind  Kind
	}
	ivs := make([]iv, 0, len(t.nodes))
	cuts := make([]sim.Time, 0, 2*len(t.nodes))
	for i := range t.nodes {
		n := t.nodes[i]
		s, e := n.start, n.end
		if n.open || e > hi {
			e = hi
		}
		if s < lo {
			s = lo
		}
		if e <= s {
			continue
		}
		ivs = append(ivs, iv{s: s, e: e, depth: n.depth, idx: int32(i), kind: n.kind})
		cuts = append(cuts, s, e)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	prev := sim.Time(-1)
	for _, c := range cuts {
		if c == prev {
			continue
		}
		if prev >= lo && c > prev {
			// Charge [prev, c) to the deepest covering interval.
			best := -1
			for i := range ivs {
				if ivs[i].s <= prev && ivs[i].e >= c {
					if best < 0 ||
						ivs[i].depth > ivs[best].depth ||
						(ivs[i].depth == ivs[best].depth &&
							(ivs[i].s > ivs[best].s ||
								(ivs[i].s == ivs[best].s && ivs[i].idx > ivs[best].idx))) {
						best = i
					}
				}
			}
			if best >= 0 {
				cats[ivs[best].kind] += c.Sub(prev)
			}
		}
		prev = c
	}
	return cats
}

// Agg is the running critical-path aggregate: syscall-rooted traces
// (Ops/RootTime/Cats) and everything else (Background/BGCats — daemon
// passes, async write-behind, untagged work).
type Agg struct {
	Ops        int64
	RootTime   sim.Duration
	Cats       [kindCount]sim.Duration
	Background int64
	BGCats     [kindCount]sim.Duration
}

// Breakdown returns a snapshot of the running aggregate (zero for nil).
func (r *Recorder) Breakdown() Agg {
	if r == nil {
		return Agg{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.agg
}

// Window returns the time range covered by finalized roots.
func (r *Recorder) Window() (lo, hi sim.Time, ok bool) {
	if r == nil {
		return 0, 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.windowLo, r.windowHi, r.haveWindow
}
