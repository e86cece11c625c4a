// Chrome trace-event export: the retained ring becomes a JSON file that
// loads in chrome://tracing or Perfetto (ui.perfetto.dev). Each host gets
// its own process track; RPC serve intervals (an RPCServe event paired
// with the RPCReply to the same caller with the same xid on the same
// host) become duration spans, laid out on as many lanes as overlap
// requires, and every other event becomes an instant marker.
package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	opspan "spritelynfs/internal/span"
)

// chromeEvent is one record of the Trace Event Format (JSON array form).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// span is one serve interval: the serve's event, and its reply's time.
type span struct {
	Event
	end sim.Time
}

// WriteChrome writes the retained events as Chrome trace-event JSON.
// Safe on a nil tracer (writes an empty trace).
func (t *Tracer) WriteChrome(w io.Writer) error {
	out := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}

	pids := map[string]int{}
	pidOf := func(host string) int {
		if id, ok := pids[host]; ok {
			return id
		}
		id := len(pids) + 1
		pids[host] = id
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: id,
			Args: map[string]any{"name": host},
		})
		return id
	}

	// Every endpoint numbers its xids from 1, so the caller is part of
	// the key: two clients' calls with one xid are two serves.
	type spanKey struct {
		host, peer string
		xid        uint32
	}
	pending := map[spanKey]Event{} // serves awaiting their reply
	var spans []span
	var instants []chromeEvent

	for _, e := range t.Events() {
		pid := pidOf(e.Host)
		key := spanKey{e.Host, e.Peer, e.XID}
		serve, open := pending[key]
		switch {
		case e.Kind == RPCServe && e.Peer != "":
			// A reused key with the old serve still unmatched
			// (dropped reply): flush the stale one as an instant.
			if open {
				instants = append(instants, instantFor(pid, serve))
			}
			pending[key] = e
			continue
		case e.Kind == RPCReply && open:
			spans = append(spans, span{serve, e.At})
			delete(pending, key)
			continue
		}
		instants = append(instants, instantFor(pid, e))
	}
	// Serves still open when the trace ended (handler running at dump
	// time) surface as instants, so they are not silently lost, in
	// recording order, so the file does not depend on map order.
	bySeq := func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) }
	for _, serve := range slices.SortedFunc(maps.Values(pending), bySeq) {
		instants = append(instants, instantFor(pids[serve.Host], serve))
	}

	// Greedy interval partitioning per host: each span takes the lowest
	// lane that is free at its start, so overlapping serves (concurrent
	// workers) render side by side instead of falsely nesting.
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].At < spans[j].At })
	lanes := map[string][]sim.Time{} // per host: end time of last span per lane
	type flowRef struct {
		pid, tid int
		ts       sim.Time
	}
	flows := map[uint64][]flowRef{} // causal op ID → spans carrying it
	var flowOps []uint64            // the IDs, in first-span order
	for _, sp := range spans {
		hostLanes := lanes[sp.Host]
		lane := slices.IndexFunc(hostLanes, func(end sim.Time) bool { return end <= sp.At })
		if lane < 0 {
			lane = len(hostLanes)
			hostLanes = append(hostLanes, 0)
		}
		hostLanes[lane] = sp.end
		lanes[sp.Host] = hostLanes
		args := map[string]any{"detail": sp.Detail}
		if sp.Op != 0 {
			args["op"] = sp.Op
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: proto.ProcName(sp.Prog, sp.Proc), Ph: "X",
			Ts: float64(sp.At), Dur: float64(sp.end - sp.At),
			Pid: pids[sp.Host], Tid: lane + 1,
			Args: args,
		})
		if sp.Op != 0 {
			if flows[sp.Op] == nil {
				flowOps = append(flowOps, sp.Op)
			}
			flows[sp.Op] = append(flows[sp.Op], flowRef{pid: pids[sp.Host], tid: lane + 1, ts: sp.At})
		}
	}
	// Flow events chain the spans that share a causal op ID — an open's
	// serve, the callback it fans out, and the write-back that callback
	// forces render as one arrow-linked chain instead of unrelated boxes.
	for _, op := range flowOps {
		refs := flows[op]
		if len(refs) < 2 {
			continue
		}
		for i, ref := range refs {
			ph := "t"
			switch i {
			case 0:
				ph = "s"
			case len(refs) - 1:
				ph = "f"
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "op", Cat: "op", Ph: ph, ID: op,
				Ts: float64(ref.ts), Pid: ref.pid, Tid: ref.tid,
				BP: "e",
			})
		}
	}
	out.TraceEvents = append(out.TraceEvents, instants...)

	return json.NewEncoder(w).Encode(out)
}

// WriteChromeSpans writes captured span trees (the slow-op winners of a
// span.Recorder) as Chrome trace-event JSON: one process track per
// captured operation, one row per tree depth, so the causal nesting of a
// slow operation — syscall over RPC over server queue over disk arm —
// reads as a flame-style layout in chrome://tracing or Perfetto.
func WriteChromeSpans(w io.Writer, ops []opspan.SlowOp) error {
	out := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for i, so := range ops {
		pid := i + 1
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("op %d %s/%s %.3fms",
				so.Op, so.Host, so.Name, float64(so.DurUS)/1000)},
		})
		for _, sp := range so.Spans {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: sp.Kind + " " + sp.Name, Ph: "X",
				Ts: float64(sp.StartUS), Dur: float64(sp.EndUS - sp.StartUS),
				Pid: pid, Tid: sp.Depth + 1,
				Args: map[string]any{"host": sp.Host, "parent": sp.Parent},
			})
		}
	}
	return json.NewEncoder(w).Encode(out)
}

func instantFor(pid int, e Event) chromeEvent {
	return chromeEvent{
		Name: e.Kind.String(), Ph: "i", S: "t",
		Ts: float64(e.At), Pid: pid, Tid: 0,
		Args: map[string]any{"detail": e.Detail},
	}
}
