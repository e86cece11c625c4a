package harness

import (
	"fmt"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/workload"
)

// The failover experiment extends §2.4's crash-recovery story to
// replicated shards: instead of every client blocking on a rebooting
// server, the shard's backup — fed the state-table transitions over the
// replication stream — takes over within a few viewservice intervals,
// and the clients heal through retransmission rerouting and the
// map-refetch machinery with no manual intervention. The measurement is
// the heal time: crash to the first client operation served by the new
// primary.

// FailoverPoint reports one kill-mid-Andrew run.
type FailoverPoint struct {
	Clients int
	Shards  int
	// KillAt is when the target was killed (sim time from start).
	KillAt sim.Duration
	// Elapsed is the slowest client's total Andrew time.
	Elapsed sim.Duration
	// PromotedView is the view number under which the backup took over
	// (0 when no promotion happened).
	PromotedView uint64
	// DetectTime is crash -> backup promotion (the viewservice's
	// dead-ping window plus the ack round).
	DetectTime sim.Duration
	// HealTime is crash -> first client RPC served by the new primary:
	// the outage as the workload experienced it.
	HealTime sim.Duration
	// Redirects counts NOTHOME bounces healed across all routers.
	Redirects int64
	// ViewChanges is the killed shard's view-transition count.
	ViewChanges uint64
}

// RunClusterFailover runs one Andrew benchmark per client across an
// nshards federation (client i works under /u<i>, assigned to shard
// i%nshards), kills the named replica of killShard at killAt, and
// reports completion plus the failover timings. target is "primary",
// "backup", or "" (kill nothing — the baseline). Backups come from
// pm.Backups: with them off and target "primary" the run degrades
// exactly as a §2.4 crash without reboot — the workload does not
// complete, which the control test asserts. With pm.FlightCapacity and
// pm.FlightSink set, the killed shard's ring is dumped there at the end,
// so the promotion and heal records can be read after the run.
func RunClusterFailover(nclients, nshards, killShard int, target string, killAt sim.Duration, pm Params) (FailoverPoint, error) {
	assign, dirs := clusterAssignments(nclients, nshards)
	w, err := BuildCluster(nshards, assign, pm)
	if err != nil {
		return FailoverPoint{}, err
	}
	pt := FailoverPoint{Clients: nclients, Shards: nshards, KillAt: killAt}
	for i := 0; i < nclients; i++ {
		w.AddRouter(simnet.Addr(fmt.Sprintf("client%d", i)))
	}
	sh := w.Cluster.Shards()[killShard]

	var crashedAt sim.Time
	err = w.Run(func(p *sim.Proc) error {
		if target != "" {
			w.K.Go("killer", func(kp *sim.Proc) {
				kp.Sleep(killAt)
				switch target {
				case "primary":
					sh.Base.Crash()
				case "backup":
					if sh.Backup != nil {
						sh.Backup.Base.Crash()
					}
				}
				crashedAt = kp.Now()
			})
		}
		elapsed := make([]sim.Duration, nclients)
		err := w.RunEach(p, nclients, "andrew-client", func(cp *sim.Proc, i int) error {
			start := cp.Now()
			err := andrewIn(cp, w.NSs[i], dirs[i], pm)
			elapsed[i] = cp.Now().Sub(start)
			return err
		})
		for _, e := range elapsed {
			if e > pt.Elapsed {
				pt.Elapsed = e
			}
		}
		return err
	})
	pt.Redirects = w.Redirects()
	if pm.FlightSink != nil {
		sh.Tracer.DumpTriggered(pm.FlightSink, "failover")
	}
	if vs := w.Cluster.ViewService(); vs != nil {
		pt.ViewChanges = vs.Changes(sh.ID)
		pt.PromotedView = vs.View(sh.ID).Num
	}
	if sh.Backup != nil && crashedAt > 0 {
		if at, ok := sh.Backup.SNFS.Promoted(); ok {
			pt.DetectTime = at.Sub(crashedAt)
		}
		if at, ok := sh.Backup.SNFS.HealedAt(); ok {
			pt.HealTime = at.Sub(crashedAt)
		}
	}
	return pt, err
}

// andrewIn runs a full Andrew benchmark rooted at dir (setup + timed
// phases), the per-client unit of the failover experiment.
func andrewIn(p *sim.Proc, ns *vfs.Namespace, dir string, pm Params) error {
	cfg := pm.Andrew
	cfg.SrcDir = dir + "/src"
	cfg.DstDir = dir + "/target"
	cfg.TmpDir = dir + "/tmp"
	if err := ns.Mkdir(p, dir, 0o755); err != nil {
		return err
	}
	if err := ns.Mkdir(p, cfg.TmpDir, 0o755); err != nil {
		return err
	}
	if err := workload.SetupAndrew(p, ns, cfg); err != nil {
		return err
	}
	_, err := workload.RunAndrew(p, ns, cfg)
	return err
}
