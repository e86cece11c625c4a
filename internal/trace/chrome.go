// Chrome trace-event export: the retained ring becomes a JSON file that
// loads in chrome://tracing or Perfetto (ui.perfetto.dev). Each host gets
// its own process track; RPC serve intervals (an RPCServe event paired
// with the RPCReply carrying the same xid on the same host) become
// duration spans, laid out on as many lanes as overlap requires, and every
// other event becomes an instant marker.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

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

// span is one matched serve interval awaiting lane assignment.
type span struct {
	host       string
	name       string
	start, end sim.Time
	op         uint64
	detail     string
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

	type spanKey struct {
		host string
		xid  uint64
	}
	pending := map[spanKey]*span{}
	var spans []span
	var instants []chromeEvent

	for _, e := range t.Events() {
		pid := pidOf(e.Host)
		switch e.Kind {
		case RPCServe:
			if xid, ok := parseXID(e.Detail); ok {
				// A reused xid with the old serve still unmatched
				// (dropped reply): flush the stale one as an instant.
				key := spanKey{e.Host, xid}
				if old, dup := pending[key]; dup {
					instants = append(instants, instantFor(e.Host, pid, RPCServe, old.detail, old.start))
				}
				pending[key] = &span{
					host: e.Host, name: serveName(e.Detail),
					start: e.At, op: e.Op, detail: e.Detail,
				}
				continue
			}
			instants = append(instants, instantFor(e.Host, pid, e.Kind, e.Detail, e.At))
		case RPCReply:
			if xid, ok := parseXID(e.Detail); ok {
				key := spanKey{e.Host, xid}
				if sp, open := pending[key]; open {
					sp.end = e.At
					spans = append(spans, *sp)
					delete(pending, key)
					continue
				}
			}
			instants = append(instants, instantFor(e.Host, pid, e.Kind, e.Detail, e.At))
		default:
			instants = append(instants, instantFor(e.Host, pid, e.Kind, e.Detail, e.At))
		}
	}
	// Serves still open when the trace ended (handler running at dump
	// time) surface as instants so they are not silently lost — oldest
	// first, so the file is a function of the trace and not of map order.
	unmatched := make([]*span, 0, len(pending))
	for _, sp := range pending {
		unmatched = append(unmatched, sp)
	}
	sort.Slice(unmatched, func(i, j int) bool {
		if unmatched[i].start != unmatched[j].start {
			return unmatched[i].start < unmatched[j].start
		}
		return unmatched[i].host < unmatched[j].host
	})
	for _, sp := range unmatched {
		instants = append(instants, instantFor(sp.host, pids[sp.host], RPCServe, sp.detail, sp.start))
	}

	// Greedy interval partitioning per host: each span takes the lowest
	// lane that is free at its start, so overlapping serves (concurrent
	// workers) render side by side instead of falsely nesting.
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	lanes := map[string][]sim.Time{} // per host: end time of last span per lane
	type flowRef struct {
		pid, tid int
		ts       sim.Time
	}
	flows := map[uint64][]flowRef{} // causal op ID → spans carrying it
	var flowOps []uint64            // the IDs, in first-span order
	for _, sp := range spans {
		hostLanes := lanes[sp.host]
		lane := -1
		for i, end := range hostLanes {
			if end <= sp.start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(hostLanes)
			hostLanes = append(hostLanes, 0)
		}
		hostLanes[lane] = sp.end
		lanes[sp.host] = hostLanes
		args := map[string]any{"detail": sp.detail}
		if sp.op != 0 {
			args["op"] = sp.op
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: sp.name, Ph: "X",
			Ts: float64(sp.start), Dur: float64(sp.end - sp.start),
			Pid: pids[sp.host], Tid: lane + 1,
			Args: args,
		})
		if sp.op != 0 {
			if flows[sp.op] == nil {
				flowOps = append(flowOps, sp.op)
			}
			flows[sp.op] = append(flows[sp.op], flowRef{pid: pids[sp.host], tid: lane + 1, ts: sp.start})
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

	enc := json.NewEncoder(w)
	return enc.Encode(out)
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

func instantFor(host string, pid int, k Kind, detail string, at sim.Time) chromeEvent {
	return chromeEvent{
		Name: k.String(), Ph: "i", S: "t",
		Ts: float64(at), Pid: pid, Tid: 0,
		Args: map[string]any{"detail": detail},
	}
}

// parseXID extracts the xid=N field the RPC layer puts in serve and reply
// details.
func parseXID(detail string) (uint64, bool) {
	i := strings.Index(detail, "xid=")
	if i < 0 {
		return 0, false
	}
	var v uint64
	ok := false
	for _, c := range detail[i+4:] {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + uint64(c-'0')
		ok = true
	}
	return v, ok
}

// serveName pulls the procedure name out of a serve detail line
// ("<- client read xid=7 (132B)" → "read").
func serveName(detail string) string {
	f := strings.Fields(detail)
	if len(f) >= 3 && f[0] == "<-" {
		return f[2]
	}
	return "rpc-serve"
}
