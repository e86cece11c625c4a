package client_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/client"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/vfs"
)

// Replay tests: a scenario run twice from one seed must leave identical
// server-side traces. Loops that walk a Go map and talk to the network per
// entry break that — map order differs from run to run, and the order the
// RPCs go out in moves the simulated clock.

// replaysIdentically runs scenario several times and compares the traces
// it returns (several, because a short map has few iteration orders and
// two runs can agree by luck).
func replaysIdentically(t *testing.T, scenario func() string) {
	t.Helper()
	first := scenario()
	for i := 1; i < 6; i++ {
		if again := scenario(); again != first {
			t.Fatalf("run %d diverged from run 0 under the same seed:\n--- run 0\n%s\n--- run %d\n%s", i, first, i, again)
		}
	}
}

// TestRecoveryReplaysIdentically: the keepalive notices a reboot and
// re-registers twelve open, dirty files — one REOPEN each. The server's
// audit journal names the file of every "recover" transition.
func TestRecoveryReplaysIdentically(t *testing.T) {
	replaysIdentically(t, func() string {
		w := newWorld(7, true, 4, server.SNFSOptions{GraceDur: sim.Second})
		var journal bytes.Buffer
		w.snfs.Attach(trace.Instruments{Auditor: audit.New(w.k, &journal)})
		c := w.addSNFS("client", client.SNFSOptions{KeepaliveInterval: 500 * sim.Millisecond})
		run(t, w.k, func(p *sim.Proc) {
			for i := 0; i < 12; i++ {
				f, err := c.Open(p, fmt.Sprintf("f%d", i), vfs.WriteOnly|vfs.Create, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close(p)
				if _, err := f.WriteAt(p, 0, fill(4096, byte('a'+i))); err != nil {
					t.Fatal(err)
				}
			}
			p.Sleep(sim.Second) // the keepalive learns the first epoch
			w.snfs.Crash()
			p.Sleep(2 * sim.Second)
			w.snfs.Reboot()
			p.Sleep(3 * sim.Second) // epoch change seen, recovery runs
		})
		if n := strings.Count(journal.String(), `"event":"recover"`); n != 12 {
			t.Fatalf("%d files recovered, want 12", n)
		}
		return journal.String()
	})
}

// TestRFSInvalidationReplaysIdentically: three readers cache each of
// eight files, then a fourth client writes them — three blocking
// invalidate callbacks per write.
func TestRFSInvalidationReplaysIdentically(t *testing.T) {
	replaysIdentically(t, func() string {
		w, srv := newRFSWorld(7)
		tr := trace.New(w.k.Now, 0)
		srv.Attach(trace.Instruments{Tracer: tr})
		writer := w.addRFS("writer")
		readers := []*client.RFSClient{w.addRFS("readerA"), w.addRFS("readerB"), w.addRFS("readerC")}
		run(t, w.k, func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("f%d", i)
				writeThrough(t, p, writer, name, fill(4096, '1'))
				for _, r := range readers {
					readBack(t, p, r, name, 4096)
				}
				writeThrough(t, p, writer, name, fill(4096, '2'))
			}
		})
		if n := len(tr.Filter(trace.Callback)); n < 24 {
			t.Fatalf("%d invalidate callbacks, want at least 24", n)
		}
		var buf bytes.Buffer
		tr.Dump(&buf)
		return buf.String()
	})
}
