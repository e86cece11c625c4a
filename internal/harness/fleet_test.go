package harness

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/trace"
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
			n, err := fc.NS.ReadFile(p, path, make([]byte, 8*1024))
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
		n, err := b.ReadFile(p, "/data/shared", make([]byte, 8*1024))
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
	NewFleet(big, FleetOptions{Clients: 1000})
	if grew := runtime.NumGoroutine() - before; grew != 0 {
		t.Errorf("1000 idle fleet clients parked %d goroutines", grew)
	}
	for _, w := range []*World{small, big} {
		w.K.Stop()
		w.K.Run() // unwind the worlds' daemons
	}
}

// TestSyncSweepWriteInstants pins the virtual instant at which the server
// serves each delayed WRITE of a four-client SNFS fleet whose sweep runs
// every 5 s: client i's grid is i·1.25 s + k·5 s from the build, moved
// on by the time each pass that writes takes. It covers a block dirtied
// before its client's first grid instant, one dirtied while its client's
// pass is writing back, a client clean until long after its first grid
// instant, and a second write after a pass shifted the grid. The instants
// were recorded from the sweep that passed every client at every grid
// instant, dirty or not.
func TestSyncSweepWriteInstants(t *testing.T) {
	f := BuildFleet(SNFS, Default(), FleetOptions{Clients: 4, SyncInterval: 5 * sim.Second})
	tr := f.W.EnableTrace(1 << 12)
	var errs []error
	write := func(c int, at sim.Time, path string, size int) {
		f.W.K.GoAt(at, "writer", func(p *sim.Proc) {
			if err := f.Client(c).NS.WriteFile(p, path, size, 8*1024); err != nil {
				errs = append(errs, fmt.Errorf("client %d %s: %w", c, path, err))
			}
		})
	}
	err := f.W.Run(func(p *sim.Proc) error {
		write(0, sim.Time(1*sim.Second), "/data/a", 8*1024)
		write(1, sim.Time(2*sim.Second), "/data/b", 16*1024)
		write(1, sim.Time(6250*sim.Millisecond+sim.Millisecond), "/data/c", 8*1024)
		write(2, sim.Time(20100*sim.Millisecond), "/data/d", 8*1024)
		write(0, sim.Time(31*sim.Second), "/data/e", 8*1024)
		p.Sleep(45 * sim.Second)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range errs {
		t.Error(err)
	}
	var got []string
	for _, e := range tr.Filter(trace.RPCServe) {
		if strings.Contains(e.Detail, " write ") {
			got = append(got, fmt.Sprintf("%d %s", int64(e.At), strings.Fields(e.Detail)[1]))
		}
	}
	want := []string{
		"5008601 c0000",  // dirtied at 1 s, first grid instant 5 s
		"6258601 c0001",  // /data/b, first grid instant 6.25 s
		"6360432 c0001",  // its second block; the pass ends at 6.434031 s
		"11434031 c0001", // /data/c, dirtied during that pass
		"22508601 c0002", // clean until 20.1 s; grid 2.5 s + k·5 s
		"35082200 c0000", // the 5 s pass ended at 5.0822 s
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("delayed WRITEs served at\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
