package harness

import (
	"strings"
	"testing"

	"spritelynfs/internal/span"
)

// TestScaleSpanBreakdown is the acceptance gate for causal span tracing:
// at the 16-client scale point the critical-path breakdown must account
// for at least 95% of elapsed wall time, and the disk share it reports
// must reconcile with the server's disk-busy gauge.
func TestScaleSpanBreakdown(t *testing.T) {
	pm := Default()
	pm.Spans = true
	pt, err := RunScale(SNFS, 16, pm)
	if err != nil {
		t.Fatal(err)
	}
	s := pt.Spans
	if s == nil {
		t.Fatal("Params.Spans armed but ScalePoint.Spans is nil")
	}
	if s.Ops == 0 || s.Clients != 16 {
		t.Fatalf("summary = %d ops / %d clients, want >0 ops / 16", s.Ops, s.Clients)
	}
	if s.AccountedPct < 95 || s.AccountedPct > 100.5 {
		t.Errorf("accounted = %.2f%% of wall, want ~100 (>= 95)", s.AccountedPct)
	}
	var total float64
	for _, c := range s.Components {
		total += c.Seconds
	}
	if total < 0.95*s.WallSeconds || total > 1.005*s.WallSeconds {
		t.Errorf("components sum %.2fs vs wall %.2fs", total, s.WallSeconds)
	}
	// Disk consistency: the span view of arm time must agree with the
	// resource gauge. Every blocking disk access on the SNFS path is
	// spanned, so the two are equal up to rounding; the gauge is the
	// ceiling (spans never invent arm time the disk didn't spend).
	if s.DiskBusySeconds <= 0 {
		t.Fatal("disk busy gauge not filled in")
	}
	ratio := s.DiskArmSeconds / s.DiskBusySeconds
	if ratio < 0.9 || ratio > 1.001 {
		t.Errorf("span disk-arm %.3fs vs busy gauge %.3fs (ratio %.3f), want within [0.9, 1.001]",
			s.DiskArmSeconds, s.DiskBusySeconds, ratio)
	}
	if len(s.SlowOps) == 0 {
		t.Error("no slow ops captured")
	}
	for _, so := range s.SlowOps {
		if so.DurUS <= 0 || len(so.Spans) == 0 {
			t.Errorf("degenerate slow op: %+v", so)
		}
	}
	var buf strings.Builder
	s.Render(&buf)
	if !strings.Contains(buf.String(), "disk reconciliation") {
		t.Errorf("render missing reconciliation line:\n%s", buf.String())
	}
}

// TestScaleSpansOff: with Params.Spans unset nothing is collected — the
// paper-fidelity configuration stays untouched.
func TestScaleSpansOff(t *testing.T) {
	pt, err := RunScale(SNFS, 2, Default())
	if err != nil {
		t.Fatal(err)
	}
	if pt.Spans != nil {
		t.Fatalf("spans off but summary present: %+v", pt.Spans)
	}
}

// TestAndrewSpanBreakdown: the Andrew benchmark under span tracing also
// accounts cleanly, including the background (daemon/write-behind) work.
func TestAndrewSpanBreakdown(t *testing.T) {
	pm := Default()
	pm.Spans = true
	run, err := RunAndrew(SNFS, true, pm)
	if err != nil {
		t.Fatal(err)
	}
	s := run.Spans
	if s == nil {
		t.Fatal("Params.Spans armed but AndrewRun.Spans is nil")
	}
	if s.Ops == 0 {
		t.Fatal("no operations recorded")
	}
	if s.AccountedPct < 95 || s.AccountedPct > 100.5 {
		t.Errorf("accounted = %.2f%%, want ~100", s.AccountedPct)
	}
	if s.DiskBusySeconds <= 0 {
		t.Fatal("disk busy gauge not filled in")
	}
}

// syscallRoots runs Andrew with every span tree captured and returns its
// syscall roots, failing unless the capture holds all of them.
func syscallRoots(t *testing.T, pr Proto, tmpRemote bool) []span.SlowOp {
	t.Helper()
	pm := Default()
	pm.Spans, pm.SpanTopK = true, 1<<14
	run, err := RunAndrew(pr, tmpRemote, pm)
	if err != nil {
		t.Fatal(err)
	}
	var roots []span.SlowOp
	for _, so := range run.Spans.SlowOps {
		if so.Kind == "syscall" {
			roots = append(roots, so)
		}
	}
	if int64(len(roots)) != run.Spans.Ops || len(run.Spans.SlowOps) == pm.SpanTopK {
		t.Fatalf("captured %d syscall roots of %d (%d trees): raise the capture", len(roots), run.Spans.Ops, len(run.Spans.SlowOps))
	}
	return roots
}

// distinctOps fails unless every root with an op ID has its own.
func distinctOps(t *testing.T, roots []span.SlowOp) {
	t.Helper()
	seen := map[uint64]span.SlowOp{}
	for _, so := range roots {
		if prev, dup := seen[so.Op]; dup && so.Op != 0 {
			t.Errorf("op %d keys two roots: %s on %s and %s on %s", so.Op, prev.Name, prev.Host, so.Name, so.Host)
		}
		seen[so.Op] = so
	}
}

// TestAndrewSyscallRootsCarryDistinctOps: with /tmp remote, every syscall
// of an Andrew run mints its op where its root span opens, so no two
// roots share one — and slow ops, exemplars and /spans/<op> name the
// right tree.
func TestAndrewSyscallRootsCarryDistinctOps(t *testing.T) {
	for _, pr := range []Proto{NFS, SNFS} {
		roots := syscallRoots(t, pr, true)
		for _, so := range roots {
			if so.Op == 0 || so.Host != "client" {
				t.Fatalf("%v: root %s on %s carries op %d, want a minted op on client", pr, so.Name, so.Host, so.Op)
			}
		}
		distinctOps(t, roots)
	}
}

// TestLocalSyscallsRootOnLocal: the local mount roots its own syscalls,
// on host local and keyed by no op (a local syscall mints none), in a
// world with /tmp local under either protocol and in the Local one.
func TestLocalSyscallsRootOnLocal(t *testing.T) {
	for _, c := range []struct {
		pr     Proto
		remote bool // whether the world has a client host besides local
	}{{NFS, true}, {SNFS, true}, {Local, false}} {
		var local, remote int
		roots := syscallRoots(t, c.pr, false)
		for _, so := range roots {
			switch so.Host {
			case "local":
				local++
				if so.Op != 0 {
					t.Errorf("%v: local root %s carries op %d, want 0", c.pr, so.Name, so.Op)
				}
			case "client":
				remote++
			default:
				t.Errorf("%v: root %s on host %q", c.pr, so.Name, so.Host)
			}
		}
		if local == 0 || (remote > 0) != c.remote {
			t.Errorf("%v: %d roots on local and %d on client", c.pr, local, remote)
		}
		distinctOps(t, roots)
	}
}
