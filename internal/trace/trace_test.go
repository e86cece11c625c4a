package trace

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	opspan "spritelynfs/internal/span"
)

func fixedClock(t sim.Time) func() sim.Time {
	return func() sim.Time { return t }
}

// note adds a protocol event with a ready-made detail.
func note(tr *Tracer, host string, kind Kind, detail string) {
	tr.Add(Event{Host: host, Kind: kind, Detail: detail})
}

// rpc adds a typed RPC event: host's side of a call with peer.
func rpc(tr *Tracer, host string, kind Kind, peer string, proc, xid uint32) {
	tr.Add(Event{Host: host, Kind: kind, Peer: peer, Prog: proto.ProgNFS, Proc: proc, XID: xid, Bytes: 4})
}

func TestRecordAndEvents(t *testing.T) {
	now := sim.Time(0)
	tr := New(func() sim.Time { return now }, 10)
	note(tr, "client", RPCCall, "call 1")
	now = sim.Time(sim.Second)
	note(tr, "server", RPCServe, "serve 1")
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("%d events", len(evs))
	}
	if evs[0].Host != "client" || evs[0].Kind != RPCCall || evs[0].Detail != "call 1" {
		t.Errorf("event 0: %+v", evs[0])
	}
	if evs[1].At != sim.Time(sim.Second) {
		t.Errorf("event 1 at %v", evs[1].At)
	}
	if tr.Total() != 2 {
		t.Errorf("total %d", tr.Total())
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(fixedClock(0), 3)
	for i := 0; i < 7; i++ {
		note(tr, "h", Note, fmt.Sprintf("e%d", i))
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("%d retained", len(evs))
	}
	// Oldest retained first.
	want := []string{"e4", "e5", "e6"}
	for i, e := range evs {
		if e.Detail != want[i] {
			t.Errorf("retained[%d] = %q, want %q", i, e.Detail, want[i])
		}
	}
	if tr.Total() != 7 {
		t.Errorf("total %d", tr.Total())
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Add(Event{Host: "h", Kind: Note, Detail: "ignored"})
	if tr.Events() != nil || tr.Total() != 0 {
		t.Error("nil tracer not inert")
	}
	var b strings.Builder
	tr.Dump(&b)
	if b.Len() != 0 {
		t.Error("nil dump wrote output")
	}
}

func TestFilter(t *testing.T) {
	tr := New(fixedClock(0), 10)
	note(tr, "client", RPCCall, "open fh(1:5.1)")
	note(tr, "server", State, "ONE-WRITER")
	note(tr, "server", Callback, "writeback fh(1:5.1)")
	if got := tr.Filter(State); len(got) != 1 || got[0].Kind != State {
		t.Errorf("Filter(State) = %v", got)
	}
	if got := tr.Filter(RPCCall, Callback); len(got) != 2 {
		t.Errorf("Filter(two kinds) = %d events", len(got))
	}
}

func TestDumpFormat(t *testing.T) {
	tr := New(fixedClock(sim.Time(1500*sim.Millisecond)), 2)
	note(tr, "client", RPCCall, "one")
	note(tr, "client", RPCCall, "two")
	note(tr, "client", RPCCall, "three") // evicts "one"
	var b strings.Builder
	tr.Dump(&b)
	out := b.String()
	if !strings.Contains(out, "(1 earlier events dropped)") {
		t.Errorf("missing drop notice:\n%s", out)
	}
	if !strings.Contains(out, "1.500000s") || !strings.Contains(out, "rpc-call") {
		t.Errorf("bad format:\n%s", out)
	}
	if strings.Contains(out, "one") {
		t.Errorf("evicted event printed:\n%s", out)
	}
}

// TestDroppedAtCapacityBoundaries pins the wrap-around accounting at the
// exact-capacity edges: N records drop nothing, N+1 drops exactly one,
// and a full second lap drops a full ring's worth.
func TestDroppedAtCapacityBoundaries(t *testing.T) {
	const capacity = 4
	tr := New(fixedClock(0), capacity)
	for i := 0; i < capacity; i++ {
		note(tr, "h", Note, fmt.Sprintf("e%d", i))
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped at exact capacity = %d, want 0", got)
	}
	if evs := tr.Events(); len(evs) != capacity || evs[0].Seq != 0 {
		t.Fatalf("full ring: %d events, first seq %d", len(evs), evs[0].Seq)
	}

	note(tr, "h", Note, fmt.Sprintf("e%d", capacity))
	if got := tr.Dropped(); got != 1 {
		t.Fatalf("Dropped at capacity+1 = %d, want 1", got)
	}
	evs := tr.Events()
	if len(evs) != capacity || evs[0].Seq != 1 || evs[len(evs)-1].Seq != capacity {
		t.Fatalf("one past capacity: %d events, seqs %d..%d",
			len(evs), evs[0].Seq, evs[len(evs)-1].Seq)
	}

	for i := capacity + 1; i < 2*capacity; i++ {
		note(tr, "h", Note, fmt.Sprintf("e%d", i))
	}
	if got := tr.Dropped(); got != capacity {
		t.Fatalf("Dropped at 2×capacity = %d, want %d", got, capacity)
	}
	if evs := tr.Events(); evs[0].Seq != capacity {
		t.Fatalf("second lap: first retained seq %d, want %d", evs[0].Seq, capacity)
	}

	// Dump's drop notice agrees with the accessor.
	var b strings.Builder
	tr.Dump(&b)
	if !strings.Contains(b.String(), "(4 earlier events dropped)") {
		t.Errorf("dump notice disagrees with Dropped():\n%s", b.String())
	}

	var nilTr *Tracer
	if nilTr.Dropped() != 0 {
		t.Error("nil tracer Dropped != 0")
	}
}

func TestWriteChrome(t *testing.T) {
	now := sim.Time(0)
	tr := New(func() sim.Time { return now }, 100)
	rpc(tr, "client", RPCCall, "server", proto.ProcRead, 7)
	now = 100
	rpc(tr, "server", RPCServe, "client", proto.ProcRead, 7)
	now = 350
	rpc(tr, "server", RPCReply, "client", proto.ProcRead, 7)
	now = 400
	note(tr, "server", State, "fh(1:5.1) CLOSED -> ONE-READER")

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	var span, meta, instant int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			span++
			if e.Name != "read" || e.Ts != 100 || e.Dur != 250 {
				t.Errorf("bad span: %+v", e)
			}
		case "M":
			meta++
		case "i":
			instant++
		}
	}
	if span != 1 {
		t.Errorf("%d spans, want 1 (serve..reply pair)", span)
	}
	if meta != 2 {
		t.Errorf("%d process_name records, want 2 (client, server)", meta)
	}
	if instant != 2 { // the rpc-call and the state transition
		t.Errorf("%d instants, want 2", instant)
	}

	// Nil tracer writes a loadable empty trace.
	var nilTr *Tracer
	var nb strings.Builder
	if err := nilTr.WriteChrome(&nb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nb.String(), "traceEvents") {
		t.Errorf("nil chrome trace: %s", nb.String())
	}
}

// TestChromeOverlappingServes checks pairing and lane assignment: each
// serve pairs with its own reply, and serve spans overlapping in time on
// one host get distinct tids. Two clients number their xids alike, so
// the second case's serves share xid 7 and pair only by caller.
func TestChromeOverlappingServes(t *testing.T) {
	type rec struct {
		at   sim.Time
		kind Kind
		peer string
		proc uint32
		xid  uint32
	}
	type want struct {
		name    string
		ts, dur float64
	}
	for _, c := range []struct {
		name  string
		recs  []rec
		spans []want
	}{
		{"one client", []rec{
			{0, RPCServe, "a", proto.ProcRead, 1},
			{50, RPCServe, "a", proto.ProcWrite, 2},
			{200, RPCReply, "a", proto.ProcRead, 1},
			{300, RPCReply, "a", proto.ProcWrite, 2},
		}, []want{{"read", 0, 200}, {"write", 50, 250}}},
		{"two clients, one xid", []rec{
			{10, RPCServe, "c1", proto.ProcRead, 7},
			{20, RPCServe, "c2", proto.ProcWrite, 7},
			{30, RPCReply, "c1", proto.ProcRead, 7},
			{90, RPCReply, "c2", proto.ProcWrite, 7},
		}, []want{{"read", 10, 20}, {"write", 20, 70}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			now := sim.Time(0)
			tr := New(func() sim.Time { return now }, 100)
			for _, r := range c.recs {
				now = r.at
				rpc(tr, "server", r.kind, r.peer, r.proc, r.xid)
			}
			var b strings.Builder
			if err := tr.WriteChrome(&b); err != nil {
				t.Fatal(err)
			}
			var out struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Ts   float64 `json:"ts"`
					Dur  float64 `json:"dur"`
					Tid  int     `json:"tid"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
				t.Fatal(err)
			}
			var got []want
			tids := map[int]int{}
			for _, e := range out.TraceEvents {
				switch e.Ph {
				case "X":
					got = append(got, want{e.Name, e.Ts, e.Dur})
					tids[e.Tid]++
				case "i":
					t.Errorf("serve or reply left as an instant: %+v", e)
				}
			}
			if !slices.Equal(got, c.spans) {
				t.Errorf("spans %v, want %v", got, c.spans)
			}
			if len(tids) != 2 {
				t.Errorf("overlapping spans share a lane: %v", tids)
			}
		})
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{RPCCall, RPCRetry, RPCServe, RPCReply, State, Callback, Cache, Crash, Note}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/duplicate string %q", k, s)
		}
		seen[s] = true
	}
}

// TestDumpTriggered pins the black-box form: a header naming the trigger
// and the retained/recorded counts, then one line per event carrying its
// op ID when it has one; a nil ring writes nothing.
func TestDumpTriggered(t *testing.T) {
	tr := New(fixedClock(sim.Time(sim.Second)), 2)
	note(tr, "server", Crash, "server crash (epoch 1)")
	tr.RecordOp("server", State, 77, "open(fh, client, write=true)")
	tr.RecordOp("server", Callback, 78, "-> client fh writeback=true")
	var b strings.Builder
	tr.DumpTriggered(&b, "audit violation")
	want := "=== flight recorder dump (audit violation): 2 retained of 3 recorded ===\n" +
		"    1.000000s server     state     op=77 open(fh, client, write=true)\n" +
		"    1.000000s server     callback  op=78 -> client fh writeback=true\n"
	if b.String() != want {
		t.Errorf("dump =\n%s\nwant\n%s", b.String(), want)
	}
	var nilTr *Tracer
	b.Reset()
	nilTr.DumpTriggered(&b, "x")
	if b.Len() != 0 {
		t.Errorf("nil ring dumped %q", b.String())
	}
}

// TestEventJSON pins the /flight record schema: kinds by name, times in
// microseconds, op omitted when zero, an RPC event's detail rendered from
// its call and its call's fields not in the record.
func TestEventJSON(t *testing.T) {
	tr := New(fixedClock(1500), 4)
	tr.Add(Event{Host: "shard0", Kind: RPCServe, Op: 9, Peer: "c", Prog: proto.ProgNFS, Proc: proto.ProcRead, XID: 1, Bytes: 12})
	note(tr, "viewsvc", Note, "view 2")
	got, err := json.Marshal(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"seq":0,"at_us":1500,"host":"shard0","kind":"rpc-serve","op":9,"detail":"\u003c- c read xid=1 (12B)"},` +
		`{"seq":1,"at_us":1500,"host":"viewsvc","kind":"note","detail":"view 2"}]`
	if string(got) != want {
		t.Errorf("json = %s\nwant   %s", got, want)
	}
}

// TestWriteChromeSpans renders a captured span tree and checks the rows
// land on depth lanes under a per-op process track.
func TestWriteChromeSpans(t *testing.T) {
	ops := []opspan.SlowOp{{
		Op: 17, Name: "open", Host: "client", Kind: "syscall",
		StartUS: 1000, DurUS: 5000,
		Spans: []opspan.Span{
			{ID: 0, Parent: -1, Depth: 0, Kind: "syscall", Name: "open", Host: "client", StartUS: 1000, EndUS: 6000},
			{ID: 1, Parent: 0, Depth: 1, Kind: "rpc", Name: "open", Host: "server", StartUS: 2000, EndUS: 5000},
			{ID: 2, Parent: 1, Depth: 2, Kind: "disk-arm", Name: "read", Host: "d0", StartUS: 3000, EndUS: 4000},
		},
	}}
	var b strings.Builder
	if err := WriteChromeSpans(&b, ops); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 { // process_name + 3 spans
		t.Fatalf("%d events, want 4:\n%s", len(doc.TraceEvents), b.String())
	}
	byName := map[string]map[string]any{}
	for _, e := range doc.TraceEvents {
		byName[e["name"].(string)] = e
	}
	if e := byName["disk-arm read"]; e == nil || e["tid"].(float64) != 3 || e["dur"].(float64) != 1000 {
		t.Errorf("disk span = %v, want tid 3 (depth 2) dur 1000", e)
	}
	if e := byName["syscall open"]; e == nil || e["tid"].(float64) != 1 {
		t.Errorf("root span = %v, want tid 1", e)
	}
	meta := byName["process_name"]
	if meta == nil || !strings.Contains(meta["args"].(map[string]any)["name"].(string), "op 17") {
		t.Errorf("process metadata = %v", meta)
	}
}

// BenchmarkFilter measures the per-dump kind filter over a full ring.
func BenchmarkFilter(b *testing.B) {
	tr := New(fixedClock(0), 4096)
	kinds := []Kind{RPCCall, RPCServe, RPCReply, State, Callback, Cache}
	for i := 0; i < 4096; i++ {
		note(tr, "h", kinds[i%len(kinds)], fmt.Sprintf("event %d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.Filter(State, Callback); len(got) == 0 {
			b.Fatal("empty filter result")
		}
	}
}

// TestRPCDetails pins each RPC kind's line, rendered on dump from the
// event's call, and a detail given with an RPC kind left as it is.
func TestRPCDetails(t *testing.T) {
	tr := New(fixedClock(0), 8)
	call := Event{Host: "client", Peer: "server", Prog: proto.ProgNFS, Proc: proto.ProcWrite, XID: 5, Bytes: 8232}
	for _, e := range []Event{
		{Kind: RPCCall}, {Kind: RPCRetry, Attempt: 2}, {Kind: RPCRetry, Rerouted: "s0"},
		{Kind: RPCServe}, {Kind: RPCReply}, {Kind: RPCCall, Detail: "as given"},
	} {
		e.Host, e.Peer, e.Prog, e.Proc, e.XID, e.Bytes = call.Host, call.Peer, call.Prog, call.Proc, call.XID, call.Bytes
		tr.Add(e)
	}
	tr.Add(Event{Host: "server", Kind: RPCServe, Peer: "server", Prog: proto.ProgCallback, Proc: proto.CbProcCallback, XID: 1, Bytes: 40})
	var got []string
	for _, e := range tr.Events() {
		got = append(got, e.Detail)
	}
	want := []string{
		"-> server write xid=5 (8232B)",
		"-> server write xid=5 attempt=2",
		"~> rerouting s0 -> server xid=5",
		"<- server write xid=5 (8232B)",
		"-> server write xid=5",
		"as given",
		"<- server callback xid=1 (40B)",
	}
	if !slices.Equal(got, want) {
		t.Errorf("details\n%q\nwant\n%q", got, want)
	}
}

// TestRecordAllocatesNothing: a typed RPC record boxes and formats
// nothing, so it allocates nothing into a nil ring or a live one.
func TestRecordAllocatesNothing(t *testing.T) {
	live := New(fixedClock(0), 64)
	for _, tr := range []*Tracer{nil, live} {
		xid := uint32(0)
		if n := testing.AllocsPerRun(1000, func() {
			xid++
			tr.Add(Event{Host: "client", Kind: RPCCall, Op: 3, Peer: "server", Prog: proto.ProgNFS, Proc: proto.ProcRead, XID: xid, Bytes: 96})
		}); n != 0 {
			t.Errorf("live=%v: %v allocations per record, want 0", tr != nil, n)
		}
	}
	if live.Total() == 0 {
		t.Error("the live ring recorded nothing")
	}
}
