package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// fleetOutputs are the files an instrumented run writes beside its
// tables: the audit journal, the event ring's dump, the span summary and
// the sampled metric timeline.
type fleetOutputs struct {
	journal, ring, spans, timeline []byte
}

// deathFleet runs a small audited SNFS fleet with every instrument armed
// in which two clients die holding files open and dirty: the others then
// open those files for writing, the server's callbacks to the dead owners
// go unanswered, and it declares them dead (client-dead in the journal,
// ClientDead's walk over the state table).
func deathFleet(t *testing.T) fleetOutputs {
	var journal bytes.Buffer
	pm := Default()
	pm.Audit, pm.AuditSink, pm.Spans = true, &journal, true
	f := BuildFleet(SNFS, pm, FleetOptions{Clients: 6, SyncInterval: 5 * sim.Second})
	tr := f.W.EnableTrace(1 << 12)
	smp := f.W.StartSampler(f.W.EnableMetrics(), 500*sim.Millisecond)
	const files, dead = 3, 2
	data := bytes.Repeat([]byte("determinism "), 400)
	name := func(owner, j int) string { return fmt.Sprintf("/data/c%d-%d", owner, j) }
	err := f.W.Run(func(p *sim.Proc) error {
		for i, fc := range f.Clients {
			for j := 0; j < files; j++ {
				file, err := fc.NS.Open(p, name(i, j), vfs.ReadWrite|vfs.Create, 0o644)
				if err != nil {
					return err
				}
				if _, err := file.WriteAt(p, 0, data); err != nil {
					return err
				}
				if i >= dead {
					if err := file.Close(p); err != nil {
						return err
					}
				}
			}
		}
		for _, fc := range f.Clients[:dead] {
			fc.Base.Endpoint().Stop() // the host dies with its files open
		}
		for i, fc := range f.Clients[dead:] {
			for owner := 0; owner < dead; owner++ {
				file, err := fc.NS.Open(p, name(owner, i%files), vfs.ReadWrite, 0)
				if err != nil {
					return err
				}
				if _, err := file.WriteAt(p, 0, data[:100]); err != nil {
					return err
				}
				if err := file.Close(p); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var o fleetOutputs
	o.journal = journal.Bytes()
	var ring, timeline bytes.Buffer
	tr.Dump(&ring)
	o.ring = ring.Bytes()
	if o.spans, err = json.Marshal(f.W.spanSummary(0, len(f.Clients))); err != nil {
		t.Fatal(err)
	}
	if err := smp.Timeline().WriteJSON(&timeline); err != nil {
		t.Fatal(err)
	}
	o.timeline = timeline.Bytes()
	return o
}

// TestFleetOutputsAreAFunctionOfTheSeed: two runs of one audited fleet
// with client deaths, in one process, write the same bytes to every
// output, not only the same tables.
func TestFleetOutputsAreAFunctionOfTheSeed(t *testing.T) {
	a, b := deathFleet(t), deathFleet(t)
	if n := bytes.Count(a.journal, []byte(`"client-dead"`)); n == 0 {
		t.Fatal("no client died")
	}
	for _, out := range []struct {
		name string
		a, b []byte
	}{
		{"audit journal", a.journal, b.journal},
		{"ring dump", a.ring, b.ring},
		{"span summary", a.spans, b.spans},
		{"timeline", a.timeline, b.timeline},
	} {
		if len(out.a) == 0 {
			t.Errorf("the %s is empty", out.name)
		}
		if !bytes.Equal(out.a, out.b) {
			t.Errorf("the %s differs between two runs of one seed (%d and %d bytes)", out.name, len(out.a), len(out.b))
		}
	}
}
