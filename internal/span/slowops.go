package span

import (
	"container/heap"
	"fmt"
	"io"
	"sort"

	"spritelynfs/internal/sim"
)

// Span is one node of a captured tree, JSON-ready.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the root
	Depth   int    `json:"depth"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Host    string `json:"host"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// SlowOp is one captured operation: the root's identity, its attribution,
// and the full span tree (retained only for top-K winners).
type SlowOp struct {
	Op      uint64           `json:"op"`
	Trace   uint64           `json:"trace"`
	Name    string           `json:"name"`
	Host    string           `json:"host"`
	Kind    string           `json:"kind"`
	StartUS int64            `json:"start_us"`
	DurUS   int64            `json:"dur_us"`
	CatsUS  map[string]int64 `json:"breakdown_us,omitempty"`
	Spans   []Span           `json:"spans"`
}

// opHeap is a min-heap by duration: the cheapest winner sits at the top,
// ready to be evicted by a slower operation.
type opHeap []*SlowOp

func (h opHeap) Len() int { return len(h) }
func (h opHeap) Less(i, j int) bool {
	if h[i].DurUS != h[j].DurUS {
		return h[i].DurUS < h[j].DurUS
	}
	return h[i].Trace > h[j].Trace // equal durations: evict the newer one first
}
func (h opHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)   { *h = append(*h, x.(*SlowOp)) }
func (h *opHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// offer considers a finalized trace for the top-K capture. The full tree
// is materialized only when the operation actually wins a slot. Caller
// holds r.mu.
func (r *Recorder) offer(t *trace, dur sim.Duration, cats [kindCount]sim.Duration) {
	if len(r.heap) >= r.topK && int64(dur) <= r.heap[0].DurUS {
		return
	}
	if len(r.heap) >= r.topK {
		heap.Pop(&r.heap)
	}
	heap.Push(&r.heap, captureTrace(t, dur, cats))
}

// captureTrace copies a finalized trace into its JSON form.
func captureTrace(t *trace, dur sim.Duration, cats [kindCount]sim.Duration) *SlowOp {
	root := t.nodes[0]
	so := &SlowOp{
		Op: t.op, Trace: t.id,
		Name: root.name, Host: root.host, Kind: root.kind.String(),
		StartUS: int64(root.start), DurUS: int64(dur),
		Spans: make([]Span, 0, len(t.nodes)),
	}
	for k := Kind(0); k < kindCount; k++ {
		if cats[k] > 0 {
			if so.CatsUS == nil {
				so.CatsUS = map[string]int64{}
			}
			so.CatsUS[k.String()] = int64(cats[k])
		}
	}
	for i, n := range t.nodes {
		end := n.end
		if n.open {
			end = root.end
		}
		so.Spans = append(so.Spans, Span{
			ID: i, Parent: int(n.parent), Depth: int(n.depth),
			Kind: n.kind.String(), Name: n.name, Host: n.host,
			StartUS: int64(n.start), EndUS: int64(end),
		})
	}
	return so
}

// SlowOps returns the captured operations, slowest first (nil-safe).
func (r *Recorder) SlowOps() []SlowOp {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]SlowOp, 0, len(r.heap))
	for _, so := range r.heap {
		out = append(out, *so)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurUS != out[j].DurUS {
			return out[i].DurUS > out[j].DurUS
		}
		return out[i].Trace < out[j].Trace
	})
	return out
}

// Lookup returns the captured tree for a causal op ID, if it won a slot.
// Op IDs minted by separate TCP clients can coincide; then it is the
// slowest of their trees.
func (r *Recorder) Lookup(op uint64) (SlowOp, bool) {
	if r == nil || op == 0 {
		return SlowOp{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var found *SlowOp
	for _, so := range r.heap {
		if so.Op == op && (found == nil || so.DurUS > found.DurUS) {
			found = so
		}
	}
	if found == nil {
		return SlowOp{}, false
	}
	return *found, true
}

// Component is one row of the rendered breakdown.
type Component struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	PctOfWall float64 `json:"pct_of_wall"`
}

// Summary is the JSON-ready critical-path breakdown plus the slow-op
// capture: what snfs-bench writes to spans*.json and /slowops serves.
//
// Components partition the wall time (elapsed × clients): every
// per-category syscall second, plus a compute/idle residual for time the
// clients spent outside syscalls. AccountedPct is their sum over the
// wall — ~100 whenever the attribution sweep lost nothing.
type Summary struct {
	Ops             int64       `json:"ops"`
	BackgroundRoots int64       `json:"background_roots"`
	ElapsedSeconds  float64     `json:"elapsed_seconds"`
	Clients         int         `json:"clients"`
	WallSeconds     float64     `json:"wall_seconds"`
	SyscallSeconds  float64     `json:"syscall_seconds"`
	Components      []Component `json:"components"`
	AccountedPct    float64     `json:"accounted_pct"`
	Background      []Component `json:"background_components,omitempty"`
	DiskArmSeconds  float64     `json:"disk_arm_seconds"`
	// DiskBusySeconds is filled by the harness from the disk-busy gauge
	// so consumers can reconcile the span view against it.
	DiskBusySeconds float64  `json:"disk_busy_seconds,omitempty"`
	SlowOps         []SlowOp `json:"slow_ops"`
}

// Summarize renders the aggregate into a Summary. elapsed <= 0 uses the
// recorder's observed root window; clients < 1 is treated as 1.
func (r *Recorder) Summarize(elapsed sim.Duration, clients int) *Summary {
	if r == nil {
		return nil
	}
	agg := r.Breakdown()
	if elapsed <= 0 {
		if lo, hi, ok := r.Window(); ok {
			elapsed = hi.Sub(lo)
		}
	}
	if clients < 1 {
		clients = 1
	}
	s := &Summary{
		Ops:             agg.Ops,
		BackgroundRoots: agg.Background,
		ElapsedSeconds:  elapsed.Seconds(),
		Clients:         clients,
		WallSeconds:     elapsed.Seconds() * float64(clients),
		SyscallSeconds:  agg.RootTime.Seconds(),
		SlowOps:         r.SlowOps(),
	}
	var attributed float64
	for k := Kind(0); k < kindCount; k++ {
		if agg.Cats[k] > 0 {
			sec := agg.Cats[k].Seconds()
			attributed += sec
			s.Components = append(s.Components, Component{
				Name: k.Display(), Seconds: sec,
				PctOfWall: pct(sec, s.WallSeconds),
			})
		}
		if agg.BGCats[k] > 0 {
			sec := agg.BGCats[k].Seconds()
			s.Background = append(s.Background, Component{
				Name: k.Display(), Seconds: sec,
				PctOfWall: pct(sec, s.WallSeconds),
			})
		}
	}
	s.DiskArmSeconds = (agg.Cats[DiskArm] + agg.BGCats[DiskArm]).Seconds()
	if residual := s.WallSeconds - s.SyscallSeconds; residual > 0 {
		s.Components = append(s.Components, Component{
			Name: "compute/idle", Seconds: residual,
			PctOfWall: pct(residual, s.WallSeconds),
		})
		attributed += residual
	}
	s.AccountedPct = pct(attributed, s.WallSeconds)
	sort.SliceStable(s.Components, func(i, j int) bool {
		return s.Components[i].Seconds > s.Components[j].Seconds
	})
	sort.SliceStable(s.Background, func(i, j int) bool {
		return s.Background[i].Seconds > s.Background[j].Seconds
	})
	return s
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

// Render writes the breakdown as a human-readable table.
func (s *Summary) Render(w io.Writer) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "critical-path breakdown: %d ops, %.2fs syscall time over %.2fs elapsed x %d client(s) = %.2fs wall (accounted %.1f%%)\n",
		s.Ops, s.SyscallSeconds, s.ElapsedSeconds, s.Clients, s.WallSeconds, s.AccountedPct)
	for _, c := range s.Components {
		fmt.Fprintf(w, "  %-18s %10.3fs  %5.1f%%\n", c.Name, c.Seconds, c.PctOfWall)
	}
	if len(s.Background) > 0 {
		fmt.Fprintf(w, "background (%d roots, concurrent with the above):\n", s.BackgroundRoots)
		for _, c := range s.Background {
			fmt.Fprintf(w, "  %-18s %10.3fs\n", c.Name, c.Seconds)
		}
	}
	if s.DiskBusySeconds > 0 {
		fmt.Fprintf(w, "disk reconciliation: %.3fs span arm time vs %.3fs busy gauge (%.1f%%)\n",
			s.DiskArmSeconds, s.DiskBusySeconds, pct(s.DiskArmSeconds, s.DiskBusySeconds))
	}
	if n := len(s.SlowOps); n > 0 {
		top := s.SlowOps[0]
		fmt.Fprintf(w, "slowest op: #%d %s/%s %.3fs (%d captured)\n",
			top.Op, top.Host, top.Name, float64(top.DurUS)/1e6, n)
	}
}
