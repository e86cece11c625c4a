package harness

import (
	"strings"
	"testing"
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
