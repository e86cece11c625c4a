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
			if wr.Verifier != r.nfs.verifier {
				t.Fatalf("write verifier %d, want %d", wr.Verifier, r.nfs.verifier)
			}
		}
		if got := disk.Stats().Writes; got != before {
			t.Fatalf("unstable writes issued %d disk ops", got-before)
		}

		// COMMIT gathers all six blocks into one arm operation.
		body := r.call(t, p, proto.ProcCommit, &proto.CommitArgs{Handle: h})
		cr := decodeAs[proto.CommitReply](body)
		if cr.Status != proto.OK || cr.Verifier != r.nfs.verifier {
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

func TestCommitVerifierChangesAcrossReboot(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		h := createFile(t, r, p, "f")
		body := r.call(t, p, proto.ProcWrite, &proto.WriteArgs{
			Handle: h, Offset: 0, Data: make([]byte, 4096), Unstable: true,
		})
		wr := decodeAs[proto.WriteReply](body)
		v0 := wr.Verifier

		dirtyBefore := r.nfs.media.DirtyBlocks()
		if dirtyBefore == 0 {
			t.Fatal("unstable write left no dirty block")
		}
		r.nfs.Crash()
		if r.nfs.media.DirtyBlocks() != 0 {
			t.Error("crash did not drop uncommitted blocks")
		}
		r.nfs.Reboot()

		body = r.call(t, p, proto.ProcCommit, &proto.CommitArgs{Handle: h})
		cr := decodeAs[proto.CommitReply](body)
		if cr.Status != proto.OK {
			t.Fatalf("commit after reboot: %v", cr.Status)
		}
		if cr.Verifier == v0 {
			t.Errorf("verifier unchanged across reboot (%d): clients cannot detect the loss", v0)
		}
	})
}

func TestSNFSRebootBumpsWriteVerifier(t *testing.T) {
	r := newRig(true, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		v0 := r.snfs.verifier
		r.snfs.Crash()
		r.snfs.Reboot()
		if got := r.snfs.verifier; got != v0+1 {
			t.Errorf("verifier %d after reboot, want %d", got, v0+1)
		}
	})
}
