package harness

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/client"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// TestAuditCleanAcrossSharingAndCrash arms the auditor over a workload that
// exercises the protocol hard — delayed writes, write-back callbacks, write
// sharing, server crash and recovery — and requires zero violations: the
// protocol keeps its promises, and the auditor has no false positives.
func TestAuditCleanAcrossSharingAndCrash(t *testing.T) {
	pm := fastParams()
	pm.Audit = true
	var journal bytes.Buffer
	pm.AuditSink = &journal
	pm.SNFS.KeepaliveInterval = 300 * sim.Millisecond
	w := Build(SNFS, true, pm)
	_, readerNS := w.AddSNFSClient("reader", pm.SNFS)
	err := w.Run(func(p *sim.Proc) error {
		// Delayed write, then a second client's read forces the
		// write-back callback.
		if err := w.NS.WriteFile(p, "/data/shared", 32*1024, 8192); err != nil {
			return err
		}
		if _, err := readerNS.ReadFile(p, "/data/shared", make([]byte, 8192)); err != nil {
			return err
		}
		// Write sharing: both clients hold the file, one writes.
		rf, err := readerNS.Open(p, "/data/shared", vfs.ReadOnly, 0)
		if err != nil {
			return err
		}
		wf, err := w.NS.Open(p, "/data/shared", vfs.ReadWrite, 0)
		if err != nil {
			return err
		}
		if _, err := wf.WriteAt(p, 0, bytes.Repeat([]byte("w"), 8192)); err != nil {
			return err
		}
		if _, err := rf.ReadAt(p, 0, 8192); err != nil {
			return err
		}
		if err := rf.Close(p); err != nil {
			return err
		}
		if err := wf.Close(p); err != nil {
			return err
		}
		p.Sleep(sim.Second)

		// Crash and recover; pre-crash data must read back cleanly.
		w.SNFSSrv.Crash()
		p.Sleep(500 * sim.Millisecond)
		w.SNFSSrv.Reboot()
		p.Sleep(4 * sim.Second)
		if _, err := w.NS.ReadFile(p, "/data/shared", make([]byte, 8192)); err != nil {
			return err
		}
		return w.NS.WriteFile(p, "/data/post", 16*1024, 8192)
	})
	if err != nil {
		t.Fatalf("audited run failed: %v", err)
	}
	if w.Auditor.Events() == 0 {
		t.Fatal("auditor witnessed no events")
	}
	if vs := w.Auditor.Violations(); len(vs) != 0 {
		t.Fatalf("violations in a clean run: %v", vs)
	}
	if !strings.Contains(journal.String(), `"event":"server-reboot"`) {
		t.Error("journal missing the server-reboot record")
	}
	if !strings.Contains(journal.String(), `"event":"callback"`) {
		t.Error("journal missing callback records")
	}
}

// TestAuditDetectsInjectedStaleRead injects the failure the protocol
// prevents: a plain NFS client (invisible to the open/close protocol on a
// non-hybrid server) rewrites a file another client has cached. The cached
// read returns superseded bytes, and the auditor must pin the stale read to
// the reading syscall's op ID.
func TestAuditDetectsInjectedStaleRead(t *testing.T) {
	pm := fastParams()
	pm.Audit = true
	w := Build(SNFS, true, pm)
	rogue, _ := w.AddNFSClient("rogue", client.NFSOptions{})
	rogueNS := &vfs.Namespace{}
	rogueNS.Mount("/", w.Auditor.WrapFS(rogue))
	err := w.Run(func(p *sim.Proc) error {
		// The SNFS client writes and re-reads the file: contents cached,
		// caching granted (it is the last writer).
		if err := w.NS.WriteFile(p, "/data/victim", 16*1024, 8192); err != nil {
			return err
		}
		if _, err := w.NS.ReadFile(p, "/data/victim", make([]byte, 8192)); err != nil {
			return err
		}
		// The rogue rewrites the file behind the protocol's back.
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
		// The SNFS client's cached copy is now stale, and nothing told it.
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
	for _, v := range vs {
		if v.Invariant != audit.InvStaleRead {
			t.Errorf("unexpected invariant %s: %s", v.Invariant, v)
		}
		if v.Op == 0 {
			t.Errorf("violation lacks a causal op ID: %s", v)
		}
	}
}

// TestAuditedExperimentStaysClean runs a full experiment (the write-sharing
// scenario, callbacks and all) with -audit semantics: Params.Audit alone
// must not change results or introduce violations.
func TestAuditedExperimentStaysClean(t *testing.T) {
	pm := fastParams()
	pm.Audit = true
	if _, _, err := WriteShareExperiment(pm); err != nil {
		t.Fatalf("audited write-share experiment: %v", err)
	}
	if _, err := RunAndrew(SNFS, true, pm); err != nil {
		t.Fatalf("audited Andrew benchmark: %v", err)
	}
}

// TestJournalWritesCarryTheirOps: an SNFS client opens a file, writes it
// three times and closes it under the auditor. Each write's journal event
// carries the op its syscall minted: three distinct ops, none the open's.
func TestJournalWritesCarryTheirOps(t *testing.T) {
	pm := fastParams()
	pm.Audit = true
	var journal bytes.Buffer
	pm.AuditSink = &journal
	w := Build(SNFS, true, pm)
	var openOp uint64
	var minted []uint64
	err := w.Run(func(p *sim.Proc) error {
		f, err := w.NS.Open(p, "/data/f", vfs.ReadWrite|vfs.Create, 0o644)
		if err != nil {
			return err
		}
		openOp = p.Op()
		for i := int64(0); i < 3; i++ {
			if _, err := f.WriteAt(p, i*8192, bytes.Repeat([]byte("w"), 8192)); err != nil {
				return err
			}
			minted = append(minted, p.Op())
		}
		return f.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	var opens, writes []uint64
	for _, line := range strings.Split(strings.TrimSpace(journal.String()), "\n") {
		var r struct {
			Op    uint64 `json:"op"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		switch r.Event {
		case "open":
			opens = append(opens, r.Op)
		case "write":
			writes = append(writes, r.Op)
		}
	}
	if len(opens) != 1 || opens[0] != openOp {
		t.Errorf("journal opens carry ops %v, want the open's %d", opens, openOp)
	}
	if !slices.Equal(writes, minted) {
		t.Errorf("journal writes carry ops %v, want the ops their syscalls minted %v (the open's is %d)", writes, minted, openOp)
	}
	if len(minted) != 3 || minted[0] == openOp || minted[0] == minted[1] || minted[1] == minted[2] {
		t.Errorf("the writes minted ops %v after the open's %d, want three fresh ones", minted, openOp)
	}
}

// TestAuditCleanWhenCalledBackWriterCloses: a client writes a file and
// closes it (CLOSED-DIRTY), reopens it for write (ONE-WRITER), and a second
// client's read calls the writer back into WRITE-SHARED. The write-back
// returns the writer's dirty blocks, so when the writer finally closes the
// file is CLOSED, not CLOSED-DIRTY — an edge Table 4-1 does not have.
func TestAuditCleanWhenCalledBackWriterCloses(t *testing.T) {
	pm := fastParams()
	pm.Audit = true
	w := Build(SNFS, true, pm)
	_, readerNS := w.AddSNFSClient("reader", pm.SNFS)
	err := w.Run(func(p *sim.Proc) error {
		if err := w.NS.WriteFile(p, "/data/f", 16*1024, 8192); err != nil {
			return err
		}
		wf, err := w.NS.Open(p, "/data/f", vfs.ReadWrite, 0)
		if err != nil {
			return err
		}
		if _, err := wf.WriteAt(p, 0, bytes.Repeat([]byte("w"), 8192)); err != nil {
			return err
		}
		if _, err := readerNS.ReadFile(p, "/data/f", make([]byte, 8192)); err != nil {
			return err
		}
		return wf.Close(p)
	})
	if err != nil {
		t.Fatalf("audited run failed: %v", err)
	}
}
