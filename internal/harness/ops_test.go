package harness

import (
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/workload"
)

// TestOpCountsAgreeAcrossTheWire holds the two count sites to each other
// on a lossless network: every call a client's endpoint counts as sent, the
// server counts once as served in account, procedure by procedure, and
// every callback the server's endpoint counts as sent, a client serves.
func TestOpCountsAgreeAcrossTheWire(t *testing.T) {
	pm := fastParams()
	// agree compares the NFS procedures' counts of the clients, summed,
	// with the server's.
	agree := func(label string, srv *stats.Ops, clients ...*stats.Ops) {
		for proc := uint32(0); proc < 64; proc++ {
			info, ok := proto.LookupProc(proto.ProgNFS, proc)
			if !ok {
				continue
			}
			var sent int64
			for _, c := range clients {
				sent += c.Get(info.Name)
			}
			if served := srv.Get(info.Name); sent != served {
				t.Errorf("%s %s: clients sent %d, server served %d", label, info.Name, sent, served)
			}
		}
	}
	for _, pr := range []Proto{NFS, SNFS, RFS} {
		w := Build(pr, true, pm)
		err := w.Run(func(p *sim.Proc) error {
			if err := workload.SetupAndrew(p, w.NS, pm.Andrew); err != nil {
				return err
			}
			if _, err := workload.RunAndrew(p, w.NS, pm.Andrew); err != nil {
				return err
			}
			w.NS.SyncAll(p)
			p.Sleep(40 * sim.Second)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", pr, err)
		}
		if w.ClientOps().Total() == 0 {
			t.Fatalf("%s: no calls counted", pr)
		}
		agree(pr.String(), w.serverOps(), w.ClientOps())
	}

	// Two SNFS clients take turns writing one file: each open for write
	// calls back the other, which holds it closed and dirty.
	w := Build(SNFS, true, pm)
	other, otherNS := w.AddSNFSClient("other", pm.SNFS)
	err := w.Run(func(p *sim.Proc) error {
		for _, ns := range []*vfs.Namespace{w.NS, otherNS, w.NS} {
			if err := ns.WriteFile(p, "/data/shared", 8192, 8192); err != nil {
				return err
			}
		}
		w.NS.SyncAll(p)
		otherNS.SyncAll(p)
		p.Sleep(40 * sim.Second)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := w.serverOps()
	served := w.SNFSCli.CallbacksServed + other.CallbacksServed
	if srv.Get("callback") != served || w.SNFSCli.CallbacksServed == 0 || other.CallbacksServed == 0 {
		t.Errorf("server sent %d callbacks; the clients served %d and %d",
			srv.Get("callback"), w.SNFSCli.CallbacksServed, other.CallbacksServed)
	}
	agree("two SNFS clients", srv, w.ClientOps(), other.Ops())
}
