package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"spritelynfs/internal/client"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/tsdb"
	"spritelynfs/internal/vfs"
)

// TestViolationTriggersFlightDump injects the same stale read as
// TestAuditDetectsInjectedStaleRead, but with the server's ring armed:
// the audit violation must automatically dump the black box, and the dump
// must carry the offending syscall's op ID so the crash report is
// self-contained.
func TestViolationTriggersFlightDump(t *testing.T) {
	pm := fastParams()
	pm.Audit = true
	pm.FlightCapacity = 512
	var box bytes.Buffer
	pm.FlightSink = &box
	w := Build(SNFS, true, pm)
	if w.srv.Tracer == nil {
		t.Fatal("FlightCapacity set but the server has no ring")
	}
	rogue, _ := w.AddNFSClient("rogue", client.NFSOptions{})
	rogueNS := &vfs.Namespace{}
	rogueNS.Mount("/", w.Auditor.WrapFS(rogue))
	err := w.Run(func(p *sim.Proc) error {
		if err := w.NS.WriteFile(p, "/data/victim", 16*1024, 8192); err != nil {
			return err
		}
		if _, err := w.NS.ReadFile(p, "/data/victim", make([]byte, 8192)); err != nil {
			return err
		}
		f, err := rogueNS.Open(p, "/data/victim", vfs.WriteOnly, 0)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(p, 0, bytes.Repeat([]byte("R"), 8192)); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		_, err = rogueNS.Open(p, "/data/victim", vfs.WriteOnly, 0)
		if err != nil {
			return err
		}
		_, err = w.NS.ReadFile(p, "/data/victim", make([]byte, 8192))
		return err
	})
	if err == nil {
		t.Fatal("Run returned nil; want the audit violation error")
	}
	vs := w.Auditor.Violations()
	if len(vs) == 0 {
		t.Fatal("stale read not detected")
	}
	dump := box.String()
	if !strings.Contains(dump, "flight recorder dump") {
		t.Fatalf("violation did not dump the flight recorder; sink: %q", dump)
	}
	if !strings.Contains(dump, "audit violation") {
		t.Errorf("dump trigger does not name the audit violation: %q", dump)
	}
	if want := fmt.Sprintf("op=%d", vs[0].Op); !strings.Contains(dump, want) {
		t.Errorf("dump missing the offending op ID %s", want)
	}
	// The box must hold protocol history, not just the trigger line: the
	// RPCs and state transitions that led up to the violation.
	if !strings.Contains(dump, "rpc-serve") {
		t.Error("dump has no served calls")
	}
	if !strings.Contains(dump, "state") {
		t.Error("dump has no state-transition events")
	}
	// One violation, one dump: a second violation in the same run must not
	// append another (the first box is the one that matters).
	if n := strings.Count(dump, "flight recorder dump"); n != 1 {
		t.Errorf("want exactly one dump, got %d", n)
	}
}

// TestScaleTimelineTracksRun arms the sim-time sampler on a scale point
// and checks the timeline carries the series the experiments are read
// through: per-window RPC service rates and the disk- and CPU-busy
// fractions, with activity visible while the workload runs.
func TestScaleTimelineTracksRun(t *testing.T) {
	pm := fastParams()
	pm.SampleInterval = 200 * sim.Millisecond
	pt, err := RunScale(SNFS, 2, pm)
	if err != nil {
		t.Fatalf("scale point: %v", err)
	}
	tl := pt.Timeline
	if tl == nil {
		t.Fatal("SampleInterval set but point has no timeline")
	}
	names := seriesNames(tl)
	if len(names) == 0 {
		t.Fatal("timeline is empty")
	}
	if pts := seriesPoints(tl, `snfs_server_disk_busy_seconds{host="server"}:rate`); len(pts) == 0 {
		t.Errorf("no disk-busy rate series; have %v", names)
	}
	cpu := seriesPoints(tl, `snfs_server_cpu_busy_seconds{host="server"}:rate`)
	if len(cpu) == 0 {
		t.Fatalf("no cpu-busy rate series; have %v", names)
	}
	busy := false
	for _, p := range cpu {
		if p.V > 0 {
			busy = true
			break
		}
	}
	if !busy {
		t.Error("cpu-busy rate never rose above zero during the run")
	}
	served := false
	for _, n := range names {
		if strings.HasPrefix(n, "snfs_rpc_serve_us") && strings.HasSuffix(n, ":rate") {
			for _, p := range seriesPoints(tl, n) {
				if p.V > 0 {
					served = true
					break
				}
			}
		}
	}
	if !served {
		t.Error("no RPC service rate series shows traffic")
	}
}

// TestClusterTimelinePrefixesShards checks the federation sampler keeps
// the shards apart: every shard's registry lands in the shared timeline
// under its own shard<i>/ prefix.
func TestClusterTimelinePrefixesShards(t *testing.T) {
	pm := fastParams()
	pm.SampleInterval = 200 * sim.Millisecond
	pt, err := RunClusterScale(2, 2, pm)
	if err != nil {
		t.Fatalf("cluster scale point: %v", err)
	}
	if pt.Timeline == nil {
		t.Fatal("SampleInterval set but cluster point has no timeline")
	}
	for shard := 0; shard < 2; shard++ {
		prefix := fmt.Sprintf("shard%d/", shard)
		found := false
		for _, n := range seriesNames(pt.Timeline) {
			if strings.HasPrefix(n, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no series for %s in %v", prefix, seriesNames(pt.Timeline))
		}
	}
}

// seriesNames and seriesPoints read a timeline the way its consumers do,
// through Dump.
func seriesNames(tl *tsdb.Timeline) []string {
	var out []string
	for _, s := range tl.Dump().Series {
		out = append(out, s.Name)
	}
	return out
}

func seriesPoints(tl *tsdb.Timeline, name string) []tsdb.Point {
	for _, s := range tl.Dump().Series {
		if s.Name == name {
			return s.Points
		}
	}
	return nil
}
