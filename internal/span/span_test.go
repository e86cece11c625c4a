package span

import (
	"fmt"
	"strings"
	"testing"

	"spritelynfs/internal/metrics"
	"spritelynfs/internal/sim"
)

// TestAttributionDeepestWins builds one operation with nested spans and
// checks the sweep's identity: every instant of the root window charged
// to exactly one category, the deepest span covering it.
func TestAttributionDeepestWins(t *testing.T) {
	k := sim.NewKernel(1)
	r := NewRecorder(k.Now, 8)
	k.Go("client", func(p *sim.Proc) {
		p.BeginOp()
		root := r.Begin(p, "client", Syscall, "read")
		p.Sleep(10 * sim.Millisecond) // client other
		rpc := r.Begin(p, "server", RPC, "read")
		p.Sleep(5 * sim.Millisecond) // wire
		srv := r.Begin(p, "server", Serve, "read")
		p.Sleep(2 * sim.Millisecond) // server other
		// Retroactive disk interval, deepest, covers the last 8 ms.
		t0 := p.Now()
		p.Sleep(8 * sim.Millisecond)
		r.Add(p, "disk", DiskArm, "read", t0, p.Now())
		srv.End()
		p.Sleep(5 * sim.Millisecond) // wire again
		rpc.End()
		p.Sleep(3 * sim.Millisecond) // client other
		root.End()
	})
	k.Run()

	agg := r.Breakdown()
	if agg.Ops != 1 {
		t.Fatalf("ops = %d, want 1", agg.Ops)
	}
	want := map[Kind]sim.Duration{
		Syscall: 13 * sim.Millisecond,
		RPC:     10 * sim.Millisecond,
		Serve:   2 * sim.Millisecond,
		DiskArm: 8 * sim.Millisecond,
	}
	var sum sim.Duration
	for kd := Kind(0); kd < kindCount; kd++ {
		sum += agg.Cats[kd]
		if agg.Cats[kd] != want[kd] {
			t.Errorf("cats[%s] = %v, want %v", kd, agg.Cats[kd], want[kd])
		}
	}
	if sum != agg.RootTime || agg.RootTime != 33*sim.Millisecond {
		t.Errorf("sum(cats) = %v, root = %v, want both 33ms", sum, agg.RootTime)
	}
}

// TestCrossProcParenting hands an op ID to a second process (the server-
// worker shape) and checks its spans land inside the client's trace.
func TestCrossProcParenting(t *testing.T) {
	k := sim.NewKernel(1)
	r := NewRecorder(k.Now, 8)
	k.Go("client", func(p *sim.Proc) {
		op := p.BeginOp()
		root := r.Begin(p, "client", Syscall, "write")
		var wg sim.WaitGroup
		wg.Add(1)
		k.Go("worker", func(wp *sim.Proc) {
			defer wg.Done()
			wp.SetOp(op)
			sp := r.Begin(wp, "server", Serve, "write")
			wp.Sleep(4 * sim.Millisecond)
			sp.End()
		})
		p.Sleep(6 * sim.Millisecond)
		wg.Wait(p)
		root.End()
	})
	k.Run()

	agg := r.Breakdown()
	if agg.Ops != 1 || agg.Background != 0 {
		t.Fatalf("ops=%d background=%d, want 1/0 (worker span should join the syscall trace)",
			agg.Ops, agg.Background)
	}
	if agg.Cats[Serve] != 4*sim.Millisecond {
		t.Errorf("serve = %v, want 4ms", agg.Cats[Serve])
	}
	ops := r.SlowOps()
	if len(ops) != 1 || len(ops[0].Spans) != 2 {
		t.Fatalf("captured %d ops / %d spans, want 1 op with 2 spans", len(ops), len(ops[0].Spans))
	}
	if ops[0].Spans[1].Parent != 0 {
		t.Errorf("worker span parent = %d, want 0 (the root)", ops[0].Spans[1].Parent)
	}
}

// TestTopKEviction runs many more operations than the capture holds and
// checks the survivors are exactly the K slowest, in order, and that
// Lookup serves winners only.
func TestTopKEviction(t *testing.T) {
	const K = 4
	k := sim.NewKernel(1)
	r := NewRecorder(k.Now, K)
	// Durations 1..12 ms in a shuffled order so eviction pressure comes
	// from both directions.
	durs := []int{7, 1, 12, 3, 9, 2, 11, 5, 8, 4, 10, 6}
	opByDur := map[int]uint64{}
	k.Go("client", func(p *sim.Proc) {
		for _, d := range durs {
			op := p.BeginOp()
			opByDur[d] = op
			h := r.Begin(p, "client", Syscall, fmt.Sprintf("op%d", d))
			p.Sleep(sim.Duration(d) * sim.Millisecond)
			h.End()
			p.SetOp(0)
		}
	})
	k.Run()

	got := r.SlowOps()
	if len(got) != K {
		t.Fatalf("captured %d, want %d", len(got), K)
	}
	for i, wantMS := range []int{12, 11, 10, 9} {
		if got[i].DurUS != int64(wantMS)*1000 {
			t.Errorf("slowops[%d] = %dus, want %dms", i, got[i].DurUS, wantMS)
		}
		if got[i].Op != opByDur[wantMS] {
			t.Errorf("slowops[%d].Op = %d, want %d", i, got[i].Op, opByDur[wantMS])
		}
		if _, ok := r.Lookup(got[i].Op); !ok {
			t.Errorf("Lookup(%d) missed a winner", got[i].Op)
		}
	}
	if _, ok := r.Lookup(opByDur[1]); ok {
		t.Errorf("Lookup found an evicted op")
	}
}

// TestLookupSharedOp: two TCP clients can send the same op ID. Evicting
// the cheaper of two trees under one op must leave the other findable.
func TestLookupSharedOp(t *testing.T) {
	k := sim.NewKernel(1)
	r := NewRecorder(k.Now, 2)
	k.Go("clients", func(p *sim.Proc) {
		for _, run := range []struct {
			op uint64
			ms int
		}{{7, 10}, {7, 1}, {8, 5}} {
			p.SetOp(run.op)
			h := r.Begin(p, "server", Serve, "getattr")
			p.Sleep(sim.Duration(run.ms) * sim.Millisecond)
			h.End()
		}
	})
	k.Run()
	if so, ok := r.Lookup(7); !ok || so.DurUS != 10000 {
		t.Errorf("Lookup(7) = %dus, %v; want the 10 ms tree", so.DurUS, ok)
	}
}

// TestBackgroundRoots checks daemon-rooted and orphan work stays out of
// the syscall aggregate (it is concurrent, not part of any op's path).
func TestBackgroundRoots(t *testing.T) {
	k := sim.NewKernel(1)
	r := NewRecorder(k.Now, 8)
	k.Go("daemon", func(p *sim.Proc) {
		p.BeginOp()
		h := r.Begin(p, "client", Daemon, "sync-pass")
		p.Sleep(3 * sim.Millisecond)
		h.End()
	})
	k.Go("orphan", func(p *sim.Proc) {
		// No op, no open span: Add finalizes a degenerate trace.
		p.Sleep(1 * sim.Millisecond)
		t0 := p.Now()
		p.Sleep(2 * sim.Millisecond)
		r.Add(p, "disk", DiskArm, "flush", t0, p.Now())
	})
	k.Run()

	agg := r.Breakdown()
	if agg.Ops != 0 || agg.RootTime != 0 {
		t.Errorf("syscall agg polluted: ops=%d root=%v", agg.Ops, agg.RootTime)
	}
	if agg.Background != 2 {
		t.Errorf("background roots = %d, want 2", agg.Background)
	}
	if agg.BGCats[Daemon] != 3*sim.Millisecond || agg.BGCats[DiskArm] != 2*sim.Millisecond {
		t.Errorf("bg cats = daemon %v / disk-arm %v, want 3ms / 2ms",
			agg.BGCats[Daemon], agg.BGCats[DiskArm])
	}
}

// TestSummarizeAccounts checks the headline identity: components (plus
// the compute/idle residual) sum to ~100% of wall time.
func TestSummarizeAccounts(t *testing.T) {
	k := sim.NewKernel(1)
	r := NewRecorder(k.Now, 8)
	k.Go("client", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond) // compute before the op
		p.BeginOp()
		root := r.Begin(p, "client", Syscall, "read")
		p.Sleep(10 * sim.Millisecond)
		root.End()
		p.SetOp(0)
	})
	k.Run()

	s := r.Summarize(15*sim.Millisecond, 1)
	if s.AccountedPct < 99.99 || s.AccountedPct > 100.01 {
		t.Errorf("accounted = %.2f%%, want 100%%", s.AccountedPct)
	}
	var total float64
	for _, c := range s.Components {
		total += c.Seconds
	}
	if diff := total - s.WallSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("components sum %.6fs != wall %.6fs", total, s.WallSeconds)
	}
	var buf strings.Builder
	s.Render(&buf)
	if !strings.Contains(buf.String(), "critical-path breakdown") {
		t.Errorf("render missing header:\n%s", buf.String())
	}
}

// TestNilRecorder exercises every entry point on a nil recorder.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	k := sim.NewKernel(1)
	k.Go("p", func(p *sim.Proc) {
		h := r.Begin(p, "x", Syscall, "read")
		r.Add(p, "x", DiskArm, "read", 0, 10)
		h.End()
	})
	k.Run()
	r.EnableMetrics(metrics.New())
	if got := r.SlowOps(); got != nil {
		t.Errorf("nil SlowOps = %v", got)
	}
	if _, ok := r.Lookup(1); ok {
		t.Errorf("nil Lookup hit")
	}
	if s := r.Summarize(0, 1); s != nil {
		t.Errorf("nil Summarize = %v", s)
	}
	if agg := r.Breakdown(); agg.Ops != 0 {
		t.Errorf("nil Breakdown = %+v", agg)
	}
	if _, _, ok := r.Window(); ok {
		t.Errorf("nil Window ok")
	}
}

// TestExemplarHistogram checks the metrics hookup: root latencies land in
// the per-name histogram with the op ID stamped on the right bucket.
func TestExemplarHistogram(t *testing.T) {
	k := sim.NewKernel(1)
	r := NewRecorder(k.Now, 8)
	reg := metrics.New()
	r.EnableMetrics(reg)
	var op uint64
	k.Go("client", func(p *sim.Proc) {
		op = p.BeginOp()
		root := r.Begin(p, "client", Syscall, "read")
		p.Sleep(10 * sim.Millisecond)
		root.End()
		p.SetOp(0)
	})
	k.Run()

	h := reg.Histogram(metrics.Label("snfs_span_root_us", "name", "read"))
	if h.Count() != 1 {
		t.Fatalf("histogram count = %d, want 1", h.Count())
	}
	s := h.Snapshot()
	for b, c := range s.Counts {
		if c > 0 && s.Exemplars[b] != op {
			t.Errorf("exemplar of the sample's bucket %d = %d, want op %d", b, s.Exemplars[b], op)
		}
	}
}
