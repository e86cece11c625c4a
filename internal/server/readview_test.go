package server

import (
	"bytes"
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
)

// A READ's reply data is a view of the file (DESIGN.md §14). These tests
// race a WRITE from a second client against a READ at the two places the
// view could go stale — the read's disk wait, and serveHybrid's lock wait
// — and require the reply to carry the bytes of the read instant.

// raceWrite sends a stable WRITE of data from the endpoint and returns the
// instant the server applied it (the reply's mtime).
func raceWrite(t *testing.T, p *sim.Proc, from *rpc.Endpoint, h proto.Handle, data []byte) sim.Time {
	t.Helper()
	body, err := from.Call(p, "server", proto.ProgNFS, proto.VersNFS, proto.ProcWrite,
		proto.Marshal(&proto.WriteArgs{Handle: h, Data: data}))
	if err != nil {
		t.Fatalf("racing write: %v", err)
	}
	wr := decodeAs[proto.WriteReply](body)
	if wr.Status != proto.OK {
		t.Fatalf("racing write: %v", wr.Status)
	}
	return sim.Time(wr.Attr.Mtime)
}

// TestReadReplyKeepsBytesOfItsDiskWait: the READ misses the server's
// buffer cache and parks on a 30 ms disk; a WRITE from a second client
// lands during the wait. The reply carries the old bytes, and the file the
// new ones.
func TestReadReplyKeepsBytesOfItsDiskWait(t *testing.T) {
	r := newRigWith(Config{FSID: 1}, 30*sim.Millisecond, false, SNFSOptions{})
	writer := rpc.NewEndpoint(r.k, r.net, "writer", rpc.Options{Workers: 2})
	old, fresh := bytes.Repeat([]byte{'o'}, 4096), bytes.Repeat([]byte{'n'}, 4096)
	st := r.nfs.media.Store()
	a, _ := st.Create(st.Root(), "f", 0o644)
	st.WriteAt(a.Ino, 0, old) // in the store, not the buffer cache: the READ misses
	h := r.nfs.toHandle(a)
	var wrote sim.Time
	r.run(t, func(p *sim.Proc) {
		r.k.Go("writer", func(wp *sim.Proc) {
			// The READ arrives at 1 ms and reads the file after its 3 ms
			// of CPU; the WRITE queues for the CPU behind it.
			wp.Sleep(2 * sim.Millisecond)
			wrote = raceWrite(t, wp, writer, h, fresh)
		})
		body := r.call(t, p, proto.ProcRead, &proto.ReadArgs{Handle: h, Count: 4096})
		replied := p.Now().Add(-sim.Millisecond) // when the reply left the server
		p.Sleep(sim.Second)
		if wrote == 0 || wrote >= replied {
			t.Fatalf("the WRITE (applied at %v) did not land before the READ replied at %v", wrote, replied)
		}
		if rr := decodeAs[proto.ReadReply](body); rr.Status != proto.OK || !bytes.Equal(rr.Data, old) {
			t.Errorf("READ reply (status %v) carries bytes a WRITE wrote during its disk wait", rr.Status)
		}
		if now, _ := st.ReadAt(a.Ino, 0, 4096); !bytes.Equal(now, fresh) {
			t.Error("the file lost the WRITE that landed during the READ")
		}
		if n := r.nfs.media.Disk().Stats().Reads; n != 1 {
			t.Errorf("%d disk reads, want the READ's 1", n)
		}
	})
}

// TestHybridReadReplyKeepsItsReadInstant: under §6.1's hybrid server, a
// plain NFS READ reads the file and then waits for the file's lock to
// close its implicit open. A participating SNFS client's WRITE, which
// takes no lock, lands during that wait. The reply still carries the
// bytes of the read instant.
func TestHybridReadReplyKeepsItsReadInstant(t *testing.T) {
	r := newRig(true, SNFSOptions{Hybrid: true})
	writer := rpc.NewEndpoint(r.k, r.net, "writer", rpc.Options{Workers: 2})
	old, fresh := bytes.Repeat([]byte{'o'}, 4096), bytes.Repeat([]byte{'n'}, 4096)
	r.run(t, func(p *sim.Proc) {
		body := r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: r.root(), Name: "f", Mode: 0o644})
		h := decodeAs[proto.HandleReply](body).Handle
		r.call(t, p, proto.ProcWrite, &proto.WriteArgs{Handle: h, Data: old}) // resident: the READ has no disk wait
		// The writer holds an open, so its WRITEs bypass the hybrid path.
		if _, err := writer.Call(p, "server", proto.ProgNFS, proto.VersNFS, proto.ProcOpen,
			proto.Marshal(&proto.OpenArgs{Handle: h})); err != nil {
			t.Fatal(err)
		}
		var reply []byte
		r.k.Go("reader", func(rp *sim.Proc) {
			reply = r.call(t, rp, proto.ProcRead, &proto.ReadArgs{Handle: h, Count: 4096})
		})
		// The READ arrives 1 ms in, opens under the lock and spends 3 ms
		// on the CPU before it reads: take the lock while it computes.
		p.Sleep(2 * sim.Millisecond)
		lk := r.snfs.lockFor(h)
		lk.Lock(p)
		wrote := raceWrite(t, p, writer, h, fresh)
		if reply != nil {
			t.Fatal("the READ replied before the lock was released")
		}
		lk.Unlock()
		p.Sleep(sim.Second)
		if reply == nil || wrote == 0 {
			t.Fatal("no READ reply")
		}
		if rr := decodeAs[proto.ReadReply](reply); rr.Status != proto.OK || !bytes.Equal(rr.Data, old) {
			t.Errorf("hybrid READ reply (status %v) carries bytes written while it waited for the lock", rr.Status)
		}
		if now, _ := r.snfs.media.Store().ReadAt(h.Ino, 0, 4096); !bytes.Equal(now, fresh) {
			t.Error("the file lost the WRITE that landed during the READ's lock wait")
		}
	})
}
