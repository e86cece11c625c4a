package harness

import (
	"bytes"
	"fmt"
	"math"
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
// self-contained. With a world ring attached after the build
// (EnableTrace), the dump must read that ring, the one the server then
// holds, not the detached ring it was built with.
func TestViolationTriggersFlightDump(t *testing.T) {
	for _, worldRing := range []bool{false, true} {
		t.Run(fmt.Sprintf("EnableTrace=%v", worldRing), func(t *testing.T) {
			pm := fastParams()
			pm.Audit = true
			pm.FlightCapacity = 512
			var box bytes.Buffer
			pm.FlightSink = &box
			w := Build(SNFS, true, pm)
			if w.srv.Tracer == nil {
				t.Fatal("FlightCapacity set but the server has no ring")
			}
			if worldRing {
				w.EnableTrace(4096)
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
			header, events, _ := strings.Cut(dump, "\n")
			if !strings.Contains(header, "flight recorder dump") {
				t.Fatalf("violation did not dump the flight recorder; sink: %q", dump)
			}
			if !strings.Contains(header, "audit violation") {
				t.Errorf("dump trigger does not name the audit violation: %q", header)
			}
			if want := fmt.Sprintf("op=%d", vs[0].Op); !strings.Contains(header, want) {
				t.Errorf("dump trigger missing the offending op ID %s", want)
			}
			// The box must hold protocol history, not just the trigger line:
			// the RPCs served and the offending file's state transitions,
			// up to the open the stale read was made under.
			if !strings.Contains(events, "rpc-serve") {
				t.Errorf("dump has no served calls:\n%s", dump)
			}
			fh := vs[0].Handle.String()
			history := false
			for _, line := range strings.Split(events, "\n") {
				history = history || strings.Contains(line, " state ") && strings.Contains(line, fh)
			}
			if !history {
				t.Errorf("dump has no state transition of %s:\n%s", fh, dump)
			}
			// One violation, one dump: a second violation in the same run
			// must not append another (the first box is the one that matters).
			if n := strings.Count(dump, "flight recorder dump"); n != 1 {
				t.Errorf("want exactly one dump, got %d", n)
			}
		})
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

// TestScaleTimelineClosesLastWindow: the sampler's windows cover the
// whole run, the last, partial one included, even where the interval does
// not divide the run. The CPU-busy rate times the window widths adds up
// to the server's busy time.
func TestScaleTimelineClosesLastWindow(t *testing.T) {
	pm := fastParams()
	pm.SampleInterval = 300 * sim.Millisecond
	pt, err := RunScale(SNFS, 2, pm)
	if err != nil {
		t.Fatalf("scale point: %v", err)
	}
	if pt.Elapsed%pm.SampleInterval == 0 {
		t.Fatalf("the interval divides the %v run; pick another", pt.Elapsed)
	}
	cpu := seriesPoints(pt.Timeline, `snfs_server_cpu_busy_seconds{host="server"}:rate`)
	if len(cpu) == 0 {
		t.Fatal("no cpu-busy rate series")
	}
	if end := sim.Time(pt.Elapsed); cpu[len(cpu)-1].T != end {
		t.Errorf("last point at %v, want the run's end %v", cpu[len(cpu)-1].T, end)
	}
	busy := pt.ServerCPU * pt.Elapsed.Seconds()
	if got := windowSum(cpu, 0); math.Abs(got-busy) > 1e-6 {
		t.Errorf("cpu-busy windows sum to %.6f s, server busy %.6f s", got, busy)
	}
}

// TestBusyRateCountsServiceDone: a burst queues 3.5 windows' worth of CPU
// work at once. The busy-seconds rate counts service as it happens, so no
// window reads above 1.0, and the windows add up to the CPU's busy time.
func TestBusyRateCountsServiceDone(t *testing.T) {
	w := Build(NFS, true, fastParams())
	tl := w.StartSampler(w.EnableMetrics(), 100*sim.Millisecond).Timeline()
	cpu := w.srv.Base.CPU()
	err := w.Run(func(p *sim.Proc) error {
		p.Sleep(150 * sim.Millisecond)
		for i := 0; i < 35; i++ {
			cpu.UseAsync(10*sim.Millisecond, nil)
		}
		p.Sleep(sim.Second)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := seriesPoints(tl, `snfs_server_cpu_busy_seconds{host="server"}:rate`)
	for _, pt := range pts {
		if pt.V > 1+1e-9 {
			t.Errorf("window ending %v: cpu-busy rate %.3f, above 1", pt.T, pt.V)
		}
	}
	if got, want := windowSum(pts, 0), cpu.BusyTime().Seconds(); math.Abs(got-want) > 1e-9 {
		t.Errorf("cpu-busy windows sum to %.6f s, busy time %.6f s", got, want)
	}
}

// windowSum adds up a rate series' windows, each point's rate times the
// width of the window it closes, the first opening at from.
func windowSum(pts []tsdb.Point, from sim.Time) float64 {
	sum := 0.0
	for _, pt := range pts {
		sum += pt.V * pt.T.Sub(from).Seconds()
		from = pt.T
	}
	return sum
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
