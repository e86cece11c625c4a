package harness

import (
	"testing"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/workload"
)

// Failure injection: the protocols must survive message loss and server
// crashes, not just the happy path.

// TestSortSurvivesMessageLoss runs the full sort benchmark with every
// 23rd network message dropped; retransmission and the duplicate-request
// cache must carry it to a correct completion.
func TestSortSurvivesMessageLoss(t *testing.T) {
	for _, pr := range []Proto{NFS, SNFS} {
		pm := fastParams()
		pm.Net.DropEvery = 23
		// Shorter per-attempt timeout keeps retransmission cheap in
		// simulated time.
		size := pm.SortSizes[0]
		r, err := RunSort(pr, size, true, pm)
		if err != nil {
			t.Fatalf("%s sort under loss: %v", pr, err)
		}
		if r.Result.Elapsed <= 0 {
			t.Errorf("%s: no elapsed time recorded", pr)
		}
		// The output must be complete (RunSort stats the output file
		// internally via the workload test; here we check volume).
		if r.Result.TempBytes < int64(size) {
			t.Errorf("%s: temp volume %d below input %d", pr, r.Result.TempBytes, size)
		}
	}
}

// TestAndrewSurvivesMessageLoss runs a small Andrew benchmark under loss.
func TestAndrewSurvivesMessageLoss(t *testing.T) {
	pm := fastParams()
	pm.Net.DropEvery = 31
	for _, pr := range []Proto{NFS, SNFS} {
		if _, err := RunAndrew(pr, true, pm); err != nil {
			t.Fatalf("%s Andrew under loss: %v", pr, err)
		}
	}
}

// TestAndrewSurvivesProbabilisticLossAndDup runs an audited Andrew smoke
// on SNFS with statistical loss AND duplication injected: retransmission
// recovers the lost messages, the duplicate-request cache absorbs the
// replayed ones, and the auditor certifies zero protocol violations —
// the fault injection is fully masked.
func TestAndrewSurvivesProbabilisticLossAndDup(t *testing.T) {
	pm := fastParams()
	pm.Net.LossProb = 0.01
	pm.Net.DupProb = 0.01
	pm.Audit = true
	w := Build(SNFS, true, pm)
	err := w.Run(func(p *sim.Proc) error {
		if err := workload.SetupAndrew(p, w.NS, pm.Andrew); err != nil {
			return err
		}
		_, err := workload.RunAndrew(p, w.NS, pm.Andrew)
		return err
	})
	if err != nil {
		t.Fatalf("audited Andrew under loss+dup: %v", err)
	}
	if net := w.Net.Stats(); net.Dropped == 0 || net.Duplicated == 0 {
		t.Fatalf("fault injection inert: %+v", net)
	}
	if rt := w.SNFSCli.Endpoint().Stats().Retransmits; rt == 0 {
		t.Error("loss was injected but the client never retransmitted")
	}
	srv := w.SNFSSrv.Endpoint().Stats()
	if srv.DupHits+srv.DupInProgress == 0 {
		t.Error("duplicates were injected but the server's dup cache never fired")
	}
}

// TestLossDoesNotDuplicateNonIdempotentOps checks that retransmitted
// creates/removes are absorbed by the duplicate-request cache: the
// namespace ends up exactly as a loss-free run leaves it.
func TestLossDoesNotDuplicateNonIdempotentOps(t *testing.T) {
	pm := fastParams()
	pm.Net.DropEvery = 7 // aggressive loss
	w := Build(SNFS, true, pm)
	err := w.Run(func(p *sim.Proc) error {
		for i := 0; i < 10; i++ {
			if err := workload.TempFileChurn(p, w.NS, "/usr/tmp", 3, 8192, 8192); err != nil {
				return err
			}
		}
		// Everything was deleted; the directory must be empty.
		ents, err := w.NS.Readdir(p, "/usr/tmp")
		if err != nil {
			return err
		}
		if len(ents) != 0 {
			t.Errorf("leftover entries after churn under loss: %v", ents)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServerCrashDuringWorkload crashes the SNFS server mid-workload;
// after reboot and recovery the client finishes and the data is intact.
func TestServerCrashDuringWorkload(t *testing.T) {
	pm := fastParams()
	pm.SNFS.KeepaliveInterval = 300 * sim.Millisecond
	w := Build(SNFS, true, pm)
	err := w.Run(func(p *sim.Proc) error {
		// Establish state: a file with dirty blocks, plus keepalive
		// warm-up.
		if err := w.NS.WriteFile(p, "/data/pre.dat", 32*1024, 8192); err != nil {
			return err
		}
		p.Sleep(sim.Second)

		w.SNFSSrv.Crash()
		p.Sleep(500 * sim.Millisecond)
		w.SNFSSrv.Reboot()
		// Keepalive detects the epoch change and re-registers; the
		// grace period passes.
		p.Sleep(4 * sim.Second)

		// New work must succeed (opens retried through grace).
		if err := w.NS.WriteFile(p, "/data/post.dat", 16*1024, 8192); err != nil {
			return err
		}
		n, err := w.NS.ReadFile(p, "/data/pre.dat", make([]byte, 8192))
		if err != nil {
			return err
		}
		if n != 32*1024 {
			t.Errorf("pre-crash file truncated to %d", n)
		}
		// The recovered state still protects consistency: a second
		// client reading pre.dat forces A's write-back.
		_, readerNS := w.AddSNFSClient("late-reader", pm.SNFS)
		rn, err := readerNS.ReadFile(p, "/data/pre.dat", make([]byte, 8192))
		if err != nil {
			return err
		}
		if rn != 32*1024 {
			t.Errorf("reader saw %d bytes of pre-crash file", rn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClientCrashDuringSharing kills a client that holds dirty blocks;
// the opener is warned once and the system keeps going.
func TestClientCrashDuringSharing(t *testing.T) {
	pm := fastParams()
	w := Build(SNFS, true, pm)
	dirtyCli, dirtyNS := w.AddSNFSClient("doomed", pm.SNFS)
	err := w.Run(func(p *sim.Proc) error {
		if err := dirtyNS.WriteFile(p, "/data/f", 16*1024, 8192); err != nil {
			return err
		}
		dirtyCli.Endpoint().Stop() // crash with dirty blocks
		// The surviving client's open gets the §3.2 warning but works.
		n, err := w.NS.ReadFile(p, "/data/f", make([]byte, 8192))
		if err != nil {
			return err
		}
		// The dirty data is lost; only what reached the server (size
		// updates from create) is visible.
		_ = n
		if w.SNFSCli.Inconsistencies != 1 {
			t.Errorf("inconsistency warnings = %d, want 1", w.SNFSCli.Inconsistencies)
		}
		// Subsequent use is normal.
		if err := w.NS.WriteFile(p, "/data/f", 8192, 8192); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
