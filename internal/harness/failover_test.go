package harness

import (
	"bytes"
	"strings"
	"testing"

	"spritelynfs/internal/sim"
)

// failoverParams arms the full verification plane: audit, backups, a
// fast viewservice, and a view log.
func failoverParams(viewLog *bytes.Buffer) Params {
	pm := Default()
	pm.Audit = true
	pm.Backups = true
	pm.ViewInterval = 100 * sim.Millisecond
	pm.ViewDeadPings = 5
	pm.ViewLog = viewLog
	return pm
}

// TestClusterFailoverKillPrimary is the acceptance scenario: a 3-shard
// cluster with backups, one Andrew per client, shard 0's primary killed
// mid-run. The workload must complete with zero audit violations, the
// backup must have been promoted, and the clients must have healed onto
// it with no manual intervention.
func TestClusterFailoverKillPrimary(t *testing.T) {
	var viewLog bytes.Buffer
	pm := failoverParams(&viewLog)
	pt, err := RunClusterFailover(3, 3, 0, "primary", 30*sim.Second, pm)
	if err != nil {
		t.Fatalf("kill-primary run failed: %v", err)
	}
	if pt.PromotedView < 2 {
		t.Fatalf("shard 0 never left view 1 (view %d)", pt.PromotedView)
	}
	if pt.DetectTime <= 0 {
		t.Fatal("backup was never promoted")
	}
	// Detection is bounded by the dead-ping window (500 ms) plus a few
	// intervals of slack.
	if pt.DetectTime > 2*sim.Second {
		t.Errorf("detection took %v, want under 2 s", pt.DetectTime)
	}
	if pt.HealTime <= 0 {
		t.Fatal("no client operation ever reached the new primary")
	}
	if pt.HealTime > 30*sim.Second {
		t.Errorf("heal took %v, want well under the RPC retry budget", pt.HealTime)
	}
	if !strings.Contains(viewLog.String(), "reason=primary-dead") {
		t.Errorf("view log records no primary-dead transition:\n%s", viewLog.String())
	}
}

// TestClusterFailoverKillBackup kills the standby instead: the workload
// must be entirely unaffected, and the viewservice must publish a
// backup-less view so the primary stops streaming.
func TestClusterFailoverKillBackup(t *testing.T) {
	var viewLog bytes.Buffer
	pm := failoverParams(&viewLog)
	pt, err := RunClusterFailover(3, 3, 0, "backup", 30*sim.Second, pm)
	if err != nil {
		t.Fatalf("kill-backup run failed: %v", err)
	}
	if pt.ViewChanges < 1 {
		t.Fatal("viewservice never published the backup-less view")
	}
	if !strings.Contains(viewLog.String(), "reason=backup-dead") {
		t.Errorf("view log records no backup-dead transition:\n%s", viewLog.String())
	}
	if pt.DetectTime != 0 {
		t.Errorf("a promotion happened (%v) though only the backup died", pt.DetectTime)
	}
}

// TestClusterFailoverNoBackupControl is the control: with Backups off,
// killing a primary mid-run degrades exactly as a §2.4 crash without
// reboot — the workload on that shard cannot complete.
func TestClusterFailoverNoBackupControl(t *testing.T) {
	pm := Default()
	pm.Audit = true
	_, err := RunClusterFailover(3, 3, 0, "primary", 30*sim.Second, pm)
	if err == nil {
		t.Fatal("workload completed though its shard's only server was dead")
	}
}

// TestClusterFailoverUnstableWrites is the kill-primary scenario with the
// unstable WRITE + COMMIT pipeline armed on every router client and write
// gathering on every replica: the replication stream now carries COMMIT
// records, the promoted backup's store must hold what the dead primary
// acknowledged, and the auditor is the judge.
func TestClusterFailoverUnstableWrites(t *testing.T) {
	var viewLog bytes.Buffer
	pm := failoverParams(&viewLog)
	pm.UnstableWrites = true
	pt, err := RunClusterFailover(3, 3, 0, "primary", 30*sim.Second, pm)
	if err != nil {
		t.Fatalf("kill-primary run with unstable writes failed: %v", err)
	}
	if pt.PromotedView < 2 || pt.HealTime <= 0 {
		t.Errorf("no takeover: view %d, heal %v", pt.PromotedView, pt.HealTime)
	}
}
