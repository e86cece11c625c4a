package harness

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"spritelynfs/internal/metrics"
	"spritelynfs/internal/sim"
)

// TestFleetServesOps: every client of a small SNFS fleet writes and
// reads back its own file through its own stack, with delayed writes
// flushed by the shared sweep rather than per-client daemons.
func TestFleetServesOps(t *testing.T) {
	pm := Default()
	f := BuildFleet(SNFS, pm, FleetOptions{Clients: 8, SyncInterval: 5 * sim.Second})
	err := f.W.Run(func(p *sim.Proc) error {
		for i, fc := range f.Clients {
			path := fmt.Sprintf("/data/f%d", i)
			if err := fc.NS.WriteFile(p, path, 16*1024, 8*1024); err != nil {
				return fmt.Errorf("client %d write: %w", i, err)
			}
		}
		// Let the staggered sweep flush everyone's delayed writes.
		p.Sleep(10 * sim.Second)
		for i, fc := range f.Clients {
			path := fmt.Sprintf("/data/f%d", i)
			n, err := fc.NS.ReadFile(p, path, 8*1024)
			if err != nil {
				return fmt.Errorf("client %d read: %w", i, err)
			}
			if n != 16*1024 {
				return fmt.Errorf("client %d read %d bytes, want %d", i, n, 16*1024)
			}
		}
		f.SyncAllClients(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.CallsSent == 0 || s.DirtyBlocks != 0 {
		t.Errorf("fleet stats after settle: %+v", s)
	}
}

// TestFleetCrossClientConsistency: SNFS fleet clients see each other's
// writes — the write-shared detection and callback path works through
// endpoints served from the shared executor.
func TestFleetCrossClientConsistency(t *testing.T) {
	pm := Default()
	f := BuildFleet(SNFS, pm, FleetOptions{Clients: 2})
	err := f.W.Run(func(p *sim.Proc) error {
		a, b := f.Client(0).NS, f.Client(1).NS
		if err := a.WriteFile(p, "/data/shared", 8*1024, 8*1024); err != nil {
			return err
		}
		n, err := b.ReadFile(p, "/data/shared", 8*1024)
		if err != nil {
			return err
		}
		if n != 8*1024 {
			return fmt.Errorf("reader saw %d bytes, want %d", n, 8*1024)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFleetGoroutineFootprint pins the property the fleet exists for: a
// thousand idle client stacks park no goroutines. Only the shared
// server/world machinery and the executor's high-water mark of
// concurrently blocked operations cost threads.
func TestFleetGoroutineFootprint(t *testing.T) {
	before := runtime.NumGoroutine()
	pm := Default()
	f := BuildFleet(SNFS, pm, FleetOptions{Clients: 1000})
	// Run a trickle of work so the executor spawns what it needs.
	err := f.W.Run(func(p *sim.Proc) error {
		for i := 0; i < 10; i++ {
			if err := f.Client(i*100).NS.WriteFile(p, fmt.Sprintf("/data/g%d", i), 4096, 4096); err != nil {
				return err
			}
		}
		f.SyncAllClients(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	// A per-goroutine design would hold ≥5 goroutines per client
	// (dispatcher + 4 workers), ≥5000 here. The fleet's whole footprint
	// — server stack, world client, executor pool — stays around a few
	// dozen regardless of N. (Run() has already torn the kernel down,
	// so this measures leaks; Spawned() measures the live peak.)
	if grew := after - before; grew > 100 {
		t.Errorf("goroutine count grew by %d across a 1000-client fleet run", grew)
	}
	if sp := f.Exec.Spawned(); sp > 50 {
		t.Errorf("executor spawned %d workers for a sequential trickle", sp)
	}
}

// TestEndpointsParkNoProcess: an RPC endpoint owns no process until a
// call arrives, so a world's goroutine count does not depend on the size
// of its server pool and attaching a thousand idle clients adds none.
func TestEndpointsParkNoProcess(t *testing.T) {
	// Let processes still unwinding from an earlier test's kernel exit
	// before counting.
	for n := -1; n != runtime.NumGoroutine(); {
		n = runtime.NumGoroutine()
		time.Sleep(5 * time.Millisecond)
	}
	build := func(workers int) (*World, int) {
		before := runtime.NumGoroutine()
		pm := Default()
		pm.ServerWorkers = workers
		w := Build(SNFS, true, pm)
		return w, runtime.NumGoroutine() - before
	}
	small, smallCost := build(4)
	big, bigCost := build(64)
	if smallCost != bigCost {
		t.Errorf("world costs %d goroutines with 4 server threads, %d with 64", smallCost, bigCost)
	}
	before := runtime.NumGoroutine()
	NewFleet(big, FleetOptions{Proto: SNFS, Clients: 1000})
	if grew := runtime.NumGoroutine() - before; grew != 0 {
		t.Errorf("1000 idle fleet clients parked %d goroutines", grew)
	}
	for _, w := range []*World{small, big} {
		w.K.Stop()
		w.K.Run() // unwind the worlds' daemons
	}
}

// TestFleetTimelineBudget: a sampled fleet run stays inside the
// harness sampler's series budget with room to spare, and drops
// nothing — the timeline footprint, like the registry's, is constant
// in client count.
func TestFleetTimelineBudget(t *testing.T) {
	pm := Default()
	f := BuildFleet(SNFS, pm, FleetOptions{Clients: 256})
	r := metrics.New()
	f.EnableMetrics(r)
	smp := f.W.StartSampler(r, 500*sim.Millisecond, 64)
	err := f.W.Run(func(p *sim.Proc) error {
		for i := 0; i < 32; i++ {
			if err := f.Client(i*8).NS.WriteFile(p, fmt.Sprintf("/data/t%d", i), 4096, 4096); err != nil {
				return err
			}
			p.Sleep(250 * sim.Millisecond)
		}
		f.SyncAllClients(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := smp.Timeline()
	if n := len(tl.Names()); n == 0 || n > SamplerSeriesBudget/2 {
		t.Errorf("fleet timeline holds %d series, want 1..%d", n, SamplerSeriesBudget/2)
	}
	if d := tl.DroppedSeries(); d != 0 {
		t.Errorf("sampler dropped %d series inside the budget", d)
	}
}

// TestFleetMetricsCardinality: the fleet's registry footprint is
// constant in N — the same series count at 4 clients and at 256.
func TestFleetMetricsCardinality(t *testing.T) {
	count := func(n int) int {
		pm := Default()
		f := BuildFleet(SNFS, pm, FleetOptions{Clients: n})
		r := metrics.New()
		f.EnableMetrics(r)
		snap := r.Snapshot()
		return len(snap.Gauges) + len(snap.Hists)
	}
	small, big := count(4), count(256)
	if small != big {
		t.Errorf("series count scales with fleet size: %d at N=4, %d at N=256", small, big)
	}
}
