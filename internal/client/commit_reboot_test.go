package client_test

import (
	"bytes"
	"testing"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/client"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/vfs"
)

// counters arms b's gauges on a registry of its own and returns a reader
// of its commit-pipeline counters by name.
func counters(b *client.Base) func(name string) int64 {
	reg := metrics.New()
	b.Attach(trace.Instruments{Metrics: reg})
	host := string(b.Endpoint().Addr())
	return func(name string) int64 {
		return int64(reg.Snapshot().Gauges[metrics.Label(name, "host", host)])
	}
}

// TestNFSCommitAfterRebootRedrive exercises the full unstable-WRITE /
// COMMIT crash story on the vanilla NFS pipeline: the biods push blocks
// unstable, the server reboots (losing its buffered copies and bumping
// the write verifier), and the COMMIT at close detects the mismatch and
// redrives every block as a stable write. The audit write ledger proves
// no committed block was lost and no stale data was served.
func TestNFSCommitAfterRebootRedrive(t *testing.T) {
	w := newWorld(1, false, 4, server.SNFSOptions{})
	auditor := audit.New(w.k, nil)

	wep, wcfg := w.clientConfig("writer")
	wcfg.UnstableWrites = true
	writer := client.NewNFS(w.k, wep, wcfg, client.NFSOptions{})
	wfs := auditor.WrapFS(writer)
	count := counters(writer.Base)

	rep, rcfg := w.clientConfig("reader")
	reader := client.NewNFS(w.k, rep, rcfg, client.NFSOptions{})
	rfs := auditor.WrapFS(reader)

	want := fill(6*4096, 'u')
	run(t, w.k, func(p *sim.Proc) {
		f, err := wfs.Open(p, "f.dat", vfs.WriteOnly|vfs.Create|vfs.Truncate, 0o644)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := f.WriteAt(p, 0, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Let the biods drain: all six blocks are now acked unstable,
		// buffered in server memory only.
		p.Sleep(sim.Second)
		if n := w.media.DirtyBlocks(); n == 0 {
			t.Fatal("precondition: unstable writes left no dirty server blocks")
		}

		// The server dies before the client commits. Its buffered
		// copies are gone and the write verifier changes.
		w.nfs.Crash()
		w.nfs.Reboot()

		// Close sends the COMMIT, sees the new verifier, and redrives
		// the whole file with stable writes.
		if err := f.Close(p); err != nil {
			t.Fatalf("close after reboot: %v", err)
		}
		if got := count("snfs_client_redrive_blocks_total"); got != 6 {
			t.Errorf("redrove %d blocks, want 6", got)
		}
		if got := count("snfs_client_commits_total"); got != 1 {
			t.Errorf("commits sent %d, want 1", got)
		}
		if n := w.media.DirtyBlocks(); n != 0 {
			t.Errorf("%d dirty server blocks after redrive; stable writes must reach the disk", n)
		}

		// A second client must observe exactly the committed bytes.
		got := readBack(t, p, rfs, "f.dat", len(want))
		if !bytes.Equal(got, want) {
			t.Error("reader saw wrong data after commit redrive")
		}
	})
	if err := auditor.Err(); err != nil {
		t.Errorf("audit ledger: %v", err)
	}
}

// TestNFSCommitNoRebootNoRedrive is the control: without a crash the
// COMMIT verifier matches and nothing is redriven.
func TestNFSCommitNoRebootNoRedrive(t *testing.T) {
	w := newWorld(1, false, 4, server.SNFSOptions{})
	wep, wcfg := w.clientConfig("writer")
	wcfg.UnstableWrites = true
	writer := client.NewNFS(w.k, wep, wcfg, client.NFSOptions{})
	count := counters(writer.Base)

	want := fill(6*4096, 'v')
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, writer, "f.dat", want)
		if got := count("snfs_client_redrive_blocks_total"); got != 0 {
			t.Errorf("redrove %d blocks with no crash", got)
		}
		if got := count("snfs_client_commits_total"); got == 0 {
			t.Error("no COMMIT sent on close")
		}
		if n := w.media.DirtyBlocks(); n != 0 {
			t.Errorf("%d dirty server blocks survive COMMIT", n)
		}
	})
}

// TestSNFSCommitAfterRebootRedrive crashes the server in the middle of an
// SNFS sync pass: some unstable writes are acked by the dying incarnation,
// the COMMIT fails, and the keepalive-triggered recovery must notice the
// verifier change and redrive them. Client B then reads the file through
// the recovered server; the audit ledger confirms it saw no stale or lost
// data.
func TestSNFSCommitAfterRebootRedrive(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{GraceDur: sim.Second})
	auditor := audit.New(w.k, nil)
	w.snfs.Attach(trace.Instruments{Auditor: auditor})

	aep, acfg := w.clientConfig("clientA")
	acfg.UnstableWrites = true
	a := client.NewSNFS(w.k, aep, acfg, client.SNFSOptions{KeepaliveInterval: 500 * sim.Millisecond})
	afs := auditor.WrapFS(a)
	count := counters(a.Base)

	b := w.addSNFS("clientB", client.SNFSOptions{})
	bfs := auditor.WrapFS(b)

	want := fill(6*4096, 'w')
	run(t, w.k, func(p *sim.Proc) {
		writeThrough(t, p, afs, "f.dat", want)
		// Keepalive learns the first epoch; dirty blocks stay delayed.
		p.Sleep(sim.Second)

		// Crash mid-sync: by ~12 ms into the pass a few unstable
		// writes are acked but the COMMIT has not gone out.
		syncStart := p.Now()
		w.k.Go("killer", func(kp *sim.Proc) {
			kp.Sleep(syncStart.Add(12 * sim.Millisecond).Sub(kp.Now()))
			w.snfs.Crash()
			kp.Sleep(2 * sim.Second)
			w.snfs.Reboot()
		})
		a.SyncAll(p) // interrupted: acked-unstable data is now orphaned

		// Keepalive notices the new epoch and recovers: COMMIT sees
		// the changed verifier and redrives the orphaned blocks.
		p.Sleep(5 * sim.Second)
		if got := count("snfs_client_redrive_blocks_total"); got == 0 {
			t.Error("no blocks redriven after mid-sync crash")
		}
		a.SyncAll(p) // flush anything still delayed from the failed pass

		got := readBack(t, p, bfs, "f.dat", len(want))
		if !bytes.Equal(got, want) {
			t.Error("B read wrong data after commit recovery")
		}
	})
	if err := auditor.Err(); err != nil {
		t.Errorf("audit ledger: %v", err)
	}
}
