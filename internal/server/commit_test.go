package server

import (
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
)

// createFile makes one file under root and returns its handle.
func createFile(t *testing.T, r *rig, p *sim.Proc, name string) proto.Handle {
	t.Helper()
	body := r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: r.root(), Name: name, Mode: 0o644})
	cr := decodeAs[proto.HandleReply](body)
	if cr.Status != proto.OK {
		t.Fatalf("create %s: %v", name, cr.Status)
	}
	return cr.Handle
}

func TestUnstableWriteDefersDisk(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		h := createFile(t, r, p, "f")
		disk := r.nfs.media.Disk()
		before := disk.Stats().Writes

		// Six adjacent unstable blocks: no disk activity at WRITE time.
		for i := 0; i < 6; i++ {
			body := r.call(t, p, proto.ProcWrite, &proto.WriteArgs{
				Handle: h, Offset: int64(i) * 4096, Data: make([]byte, 4096), Unstable: true,
			})
			wr := decodeAs[proto.WriteReply](body)
			if wr.Status != proto.OK {
				t.Fatalf("unstable write %d: %v", i, wr.Status)
			}
			if wr.Committed {
				t.Fatalf("unstable write %d reported committed", i)
			}
			if wr.Verifier != r.nfs.incarnation {
				t.Fatalf("write verifier %d, want %d", wr.Verifier, r.nfs.incarnation)
			}
		}
		if got := disk.Stats().Writes; got != before {
			t.Fatalf("unstable writes issued %d disk ops", got-before)
		}

		// COMMIT gathers all six blocks into one arm operation.
		body := r.call(t, p, proto.ProcCommit, &proto.CommitArgs{Handle: h})
		cr := decodeAs[proto.CommitReply](body)
		if cr.Status != proto.OK || cr.Verifier != r.nfs.incarnation {
			t.Fatalf("commit: %+v", cr)
		}
		if got := disk.Stats().Writes - before; got != 1 {
			t.Errorf("commit issued %d disk ops, want 1 (gathered)", got)
		}
		st := r.nfs.media.Sched().Stats()
		if st.Requests != 6 || st.Merged != 5 || st.Ops != 1 {
			t.Errorf("scheduler stats %+v", st)
		}
	})
}

// crashAndReboot drives the one life cycle every server has, Base.Crash
// and Base.Reboot, on r: a crash drops the uncommitted blocks, a crashed
// server answers no call, and a reboot moves the WRITE/COMMIT verifier by
// one — for SNFS, ServerInfo's epoch with it, to the same number.
func crashAndReboot(t *testing.T, r *rig) {
	t.Helper()
	b := r.base()
	r.run(t, func(p *sim.Proc) {
		h := createFile(t, r, p, "f")
		body := r.call(t, p, proto.ProcWrite, &proto.WriteArgs{
			Handle: h, Offset: 0, Data: make([]byte, 4096), Unstable: true,
		})
		v0 := decodeAs[proto.WriteReply](body).Verifier
		if b.media.DirtyBlocks() == 0 {
			t.Fatal("unstable write left no dirty block")
		}

		b.Crash()
		if b.media.DirtyBlocks() != 0 {
			t.Error("crash did not drop uncommitted blocks")
		}
		if err := r.cli.CallXDREx(p, "server", proto.ProgNFS, proto.VersNFS, proto.ProcNull,
			nil, nil, 100*sim.Millisecond, 1); err == nil {
			t.Error("a crashed server answered a call")
		}

		b.Reboot()
		body = r.call(t, p, proto.ProcCommit, &proto.CommitArgs{Handle: h})
		cr := decodeAs[proto.CommitReply](body)
		if cr.Status != proto.OK || cr.Verifier != v0+1 {
			t.Errorf("commit after reboot: %+v, want verifier %d", cr, v0+1)
		}
		if r.snfs != nil {
			body = r.call(t, p, proto.ProcServerInfo, nil)
			if e := decodeAs[proto.ServerInfoReply](body).Epoch; e != cr.Verifier {
				t.Errorf("epoch %d after reboot, want the verifier %d", e, cr.Verifier)
			}
		}
	})
}

func TestCommitVerifierChangesAcrossReboot(t *testing.T) {
	crashAndReboot(t, newRig(false, SNFSOptions{}))
}

func TestSNFSRebootBumpsWriteVerifier(t *testing.T) {
	crashAndReboot(t, newRig(true, SNFSOptions{}))
}

func TestRFSCrashAndReboot(t *testing.T) {
	crashAndReboot(t, newRFSRig())
}
