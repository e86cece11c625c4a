package harness

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/xdr"
)

// TestReplicatedDupRecordIsItsReply: the replication stream carries each
// non-idempotent call's reply image to the backup's duplicate cache, so a
// retransmission that reaches the backup is answered with the reply the
// primary sent. The stream is cut while the primary serves a CREATE and
// then more GETATTRs than its duplicate cache holds, so the batch that
// finally lands is encoded after the CREATE reply's head went back to the
// primary's free list (scribbled, under -tags frozencheck): the record
// must be a copy of its own, not the head, which the next CREATE's reply
// reuses.
func TestReplicatedDupRecordIsItsReply(t *testing.T) {
	pm := Default()
	pm.Backups = true
	assign, _ := clusterAssignments(1, 1)
	w, err := BuildCluster(1, assign, pm)
	if err != nil {
		t.Fatal(err)
	}
	sh := w.Cluster.Shards()[0]
	type key struct {
		from simnet.Addr
		xid  uint32
	}
	replies := map[key][]byte{}
	// The probe is a bare port standing for a client: it keeps a copy of
	// every reply and lets the delivered head go at once.
	w.Net.Listen("probe").SetHandler(func(m simnet.Message) {
		replies[key{m.From, binary.BigEndian.Uint32(m.Payload)}] = slices.Concat(m.Payload, m.Tail)
		if m.Owner != nil {
			m.Owner.Release()
		}
	})
	call := func(to simnet.Addr, xid, proc uint32, args func(xdr.Codec)) {
		enc := xdr.NewEncoder()
		enc.Uint32(xid)
		enc.Uint32(0) // a call
		enc.Uint32(proto.ProgNFS)
		enc.Uint32(proto.VersNFS)
		enc.Uint32(proc)
		enc.Uint64(0)
		args(enc.Codec())
		w.Net.Send("probe", to, enc.Bytes())
	}
	root := sh.Base.RootHandle()
	create := (&proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644}).XDR
	const calls = 140 // more than the primary's duplicate cache holds
	err = w.Run(func(p *sim.Proc) error {
		p.Sleep(sim.Second)
		w.Net.Cut(sh.Addr, sh.Backup.Addr)
		call(sh.Addr, 1, proto.ProcCreate, create)
		for xid := uint32(2); xid <= calls; xid++ {
			p.Sleep(20 * sim.Millisecond)
			call(sh.Addr, xid, proto.ProcGetattr, (&proto.HandleArgs{Handle: root}).XDR)
		}
		p.Sleep(20 * sim.Millisecond)
		// A reply the size of the first one's, built in its head if
		// that went back to the free list.
		call(sh.Addr, calls+1, proto.ProcCreate, (&proto.CreateArgs{Dir: root, Name: "g", Mode: 0o644}).XDR)
		p.Sleep(20 * sim.Millisecond)
		w.Net.Heal(sh.Addr, sh.Backup.Addr)
		p.Sleep(5 * sim.Second)                           // the stream's retried batch lands
		call(sh.Backup.Addr, 1, proto.ProcCreate, create) // a retransmission of the CREATE
		p.Sleep(100 * sim.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	first := replies[key{sh.Addr, 1}]
	if len(first) == 0 || len(replies) < calls {
		t.Fatalf("%d replies, the first %d bytes", len(replies), len(first))
	}
	if hits := sh.Backup.Base.Endpoint().Stats().DupHits; hits != 1 {
		t.Errorf("backup answered %d retransmissions from its duplicate cache, want 1", hits)
	}
	if replay := replies[key{sh.Backup.Addr, 1}]; !bytes.Equal(replay, first) {
		t.Errorf("the backup replayed %x, want the primary's reply %x", replay, first)
	}
}
