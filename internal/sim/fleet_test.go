package sim_test

import (
	"fmt"
	"testing"

	"spritelynfs/internal/harness"
	"spritelynfs/internal/sim"
)

// TestFleetLanesDoNotGrowWithClients holds the lanes' ceiling: a world has
// a lane per resource and per constant delay, and neither grows with its
// client count, so the scan of the non-empty lanes that every event pays
// costs a 1,000-client fleet what it costs a 4-client one. Four clients
// write a file each, every client reads one of them back (the first reads
// call the writers back, under SNFS), and the run outlasts two periods of
// the sync sweep. The work is sequential, so no call times out at either
// size: a retransmission would open the lane of its doubled timeout.
func TestFleetLanesDoNotGrowWithClients(t *testing.T) {
	for _, pr := range []harness.Proto{harness.SNFS, harness.NFS} {
		lanes := func(clients int) int {
			f := harness.BuildFleet(pr, harness.Default(), harness.FleetOptions{Clients: clients, SyncInterval: 5 * sim.Second})
			err := f.W.Run(func(p *sim.Proc) error {
				for i, fc := range f.Clients[:4] {
					if err := fc.NS.WriteFile(p, fmt.Sprintf("/data/f%d", i), 16<<10, 8<<10); err != nil {
						return err
					}
				}
				buf := make([]byte, 8<<10)
				for i, fc := range f.Clients {
					if _, err := fc.NS.ReadFile(p, fmt.Sprintf("/data/f%d", i%4), buf); err != nil {
						return err
					}
				}
				p.Sleep(12 * sim.Second)
				return nil
			})
			if err != nil {
				t.Fatalf("%v fleet of %d: %v", pr, clients, err)
			}
			if r := f.Stats().Retransmits; r != 0 {
				t.Fatalf("%v fleet of %d: %d retransmissions: the run did not go as written", pr, clients, r)
			}
			return sim.LanesOpened(f.W.K)
		}
		small, large := lanes(4), lanes(1000)
		if small != large {
			t.Errorf("%v: %d lanes at 4 clients, %d at 1,000", pr, small, large)
		}
		t.Logf("%v: %d lanes at 4 and at 1,000 clients", pr, small)
	}
}
