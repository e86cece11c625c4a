package view

import (
	"strings"
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
)

// fakeStore is a MapStore recording SetPrimary calls.
type fakeStore struct {
	m    proto.ShardMap
	sets []string
}

func (f *fakeStore) Map() proto.ShardMap { return f.m }
func (f *fakeStore) SetPrimary(shard uint32, addr string) {
	f.m.Servers[shard] = addr
	f.m.Version++
	f.sets = append(f.sets, addr)
}

// replica is one simulated shard server for the tests: a pinger with
// switchable liveness and replication status.
type replica struct {
	crashed bool
	synced  bool
	lag     uint32
}

// testbed assembles a one-shard viewservice with a primary and backup
// pinging it, returning everything the scenarios flip.
func testbed(t *testing.T, log *strings.Builder) (*sim.Kernel, *Service, *fakeStore, *replica, *replica) {
	t.Helper()
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{})
	store := &fakeStore{m: proto.ShardMap{Version: 1, Servers: []string{"primary"}}}
	svc := NewService(k, rpc.NewEndpoint(k, net, "viewsvc", rpc.Options{Workers: 2}), store,
		Config{Interval: 100 * sim.Millisecond, Log: log})
	svc.Register(0, "primary", "backup")
	pr, bk := &replica{synced: true}, &replica{synced: true}
	for _, m := range []struct {
		addr simnet.Addr
		r    *replica
	}{{"primary", pr}, {"backup", bk}} {
		m := m
		StartPinger(k, rpc.NewEndpoint(k, net, m.addr, rpc.Options{Workers: 1}), PingerConfig{
			Shard: 0, Self: m.addr, Service: "viewsvc",
			Interval: 100 * sim.Millisecond,
			Crashed:  func() bool { return m.r.crashed },
			Status:   func() (bool, uint32) { return m.r.synced, m.r.lag },
		})
	}
	return k, svc, store, pr, bk
}

// run drives the testbed for d of simulated time.
func run(k *sim.Kernel, d sim.Duration) {
	k.Go("test-driver", func(p *sim.Proc) {
		defer k.Stop()
		p.Sleep(d)
	})
	k.Run()
}

// TestPromotionOnPrimaryDeath is the happy path: the primary acks view
// 1, crashes, and within the dead-ping window the synced backup is
// promoted under view 2 with the map rewritten first.
func TestPromotionOnPrimaryDeath(t *testing.T) {
	var log strings.Builder
	k, svc, store, pr, _ := testbed(t, &log)
	k.Go("killer", func(p *sim.Proc) {
		p.Sleep(1 * sim.Second) // plenty of pings: view 1 is acked
		pr.crashed = true
	})
	run(k, 3*sim.Second)
	v := svc.View(0)
	if v.Num != 2 || v.Primary != "backup" || v.Backup != "" {
		t.Fatalf("view after primary death = %+v, want {2 backup \"\"}", v)
	}
	if len(store.sets) != 1 || store.sets[0] != "backup" {
		t.Fatalf("SetPrimary calls = %v, want exactly [backup]", store.sets)
	}
	if svc.Changes(0) != 1 {
		t.Fatalf("view changes = %d, want 1", svc.Changes(0))
	}
	if !strings.Contains(log.String(), "reason=primary-dead") {
		t.Fatalf("log missing primary-dead transition:\n%s", log.String())
	}
	// The new primary acks view 2 on its next ping.
	if !strings.Contains(log.String(), "view=2 primary=backup backup= reason=acked") {
		t.Fatalf("view 2 never acked by the promoted backup:\n%s", log.String())
	}
}

// TestNoPromotionWithoutAck is the split-brain rule: a primary that
// dies before ever acknowledging the current view is never succeeded —
// for all the service knows it is merely partitioned and still serving.
func TestNoPromotionWithoutAck(t *testing.T) {
	var log strings.Builder
	k, svc, store, pr, _ := testbed(t, &log)
	pr.crashed = true // never pings, so view 1 is never acked
	run(k, 5*sim.Second)
	if v := svc.View(0); v.Num != 1 || v.Primary != "primary" {
		t.Fatalf("unacked view was succeeded: %+v", v)
	}
	if len(store.sets) != 0 {
		t.Fatalf("map rewritten without a view change: %v", store.sets)
	}
}

// TestNoPromotionOfUnsyncedBackup: a backup whose pings report a
// replication gap is never promoted; once it reports synced again the
// promotion goes through.
func TestNoPromotionOfUnsyncedBackup(t *testing.T) {
	var log strings.Builder
	k, svc, _, pr, bk := testbed(t, &log)
	bk.synced = false
	k.Go("script", func(p *sim.Proc) {
		p.Sleep(1 * sim.Second)
		pr.crashed = true
		p.Sleep(2 * sim.Second) // well past the dead-ping window
		if v := svc.View(0); v.Num != 1 {
			t.Errorf("unsynced backup was promoted: %+v", v)
		}
		bk.synced = true
	})
	run(k, 5*sim.Second)
	if v := svc.View(0); v.Num != 2 || v.Primary != "backup" {
		t.Fatalf("synced backup not promoted after recovery: %+v", v)
	}
}

// TestBackupDeathPublishesBackuplessView: losing the backup bumps the
// view (so the primary stops streaming) without touching the map.
func TestBackupDeathPublishesBackuplessView(t *testing.T) {
	var log strings.Builder
	k, svc, store, _, bk := testbed(t, &log)
	k.Go("killer", func(p *sim.Proc) {
		p.Sleep(1 * sim.Second)
		bk.crashed = true
	})
	run(k, 3*sim.Second)
	v := svc.View(0)
	if v.Num != 2 || v.Primary != "primary" || v.Backup != "" {
		t.Fatalf("view after backup death = %+v, want {2 primary \"\"}", v)
	}
	if len(store.sets) != 0 {
		t.Fatalf("backup death rewrote the map: %v", store.sets)
	}
	if !strings.Contains(log.String(), "reason=backup-dead") {
		t.Fatalf("log missing backup-dead transition:\n%s", log.String())
	}
}

// TestViewsReportsReplicationStatus: the Get surface carries the
// primary's last-reported replication health.
func TestViewsReportsReplicationStatus(t *testing.T) {
	k, svc, _, pr, _ := testbed(t, &strings.Builder{})
	pr.synced, pr.lag = false, 7
	run(k, 1*sim.Second)
	vs := svc.Views()
	if len(vs) != 1 {
		t.Fatalf("Views() = %v, want one row", vs)
	}
	if vs[0].Synced || vs[0].Lag != 7 {
		t.Fatalf("row = %+v, want synced=false lag=7", vs[0])
	}
}
