package server

import (
	"bytes"
	"testing"

	"spritelynfs/internal/core"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/xdr"
)

// rig is a server plus a raw RPC caller (no client-side caching), for
// exercising the service procedures directly.
type rig struct {
	k    *sim.Kernel
	net  *simnet.Network
	cli  *rpc.Endpoint
	nfs  *NFSServer
	snfs *SNFSServer
}

func newRig(useSNFS bool, opts SNFSOptions) *rig {
	return newRigWith(Config{FSID: 1}, useSNFS, opts)
}

func newRigWith(cfg Config, useSNFS bool, opts SNFSOptions) *rig {
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{PropDelay: sim.Millisecond})
	sep := rpc.NewEndpoint(k, net, "server", rpc.Options{Workers: 4})
	st := localfs.NewStore(k.Now, 4096)
	media := localfs.NewMedia(st, disk.New(k, "d", disk.Params{AccessTime: sim.Millisecond}), 1, 1<<20)
	r := &rig{k: k, net: net}
	if useSNFS {
		r.snfs = NewSNFS(k, sep, media, cfg, opts)
	} else {
		r.nfs = NewNFS(k, sep, media, cfg)
	}
	r.cli = rpc.NewEndpoint(k, net, "cli", rpc.Options{Workers: 2})
	return r
}

func (r *rig) root() proto.Handle {
	if r.nfs != nil {
		return r.nfs.RootHandle()
	}
	return r.snfs.RootHandle()
}

func (r *rig) call(t *testing.T, p *sim.Proc, procNum uint32, m proto.Message) []byte {
	t.Helper()
	var args []byte
	if m != nil {
		args = proto.Marshal(m)
	}
	body, err := r.cli.Call(p, "server", proto.ProgNFS, proto.VersNFS, procNum, args)
	if err != nil {
		t.Fatalf("%s: %v", proto.ProcName(proto.ProgNFS, procNum), err)
	}
	return body
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.k.Go("test", func(p *sim.Proc) {
		defer r.k.Stop()
		fn(p)
	})
	r.k.Run()
}

func TestNFSServerFileLifecycle(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		// create
		body := r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644})
		cr := proto.DecodeHandleReply(xdr.NewDecoder(body))
		if cr.Status != proto.OK {
			t.Fatalf("create: %v", cr.Status)
		}
		// write
		data := []byte("persistent bytes")
		body = r.call(t, p, proto.ProcWrite, &proto.WriteArgs{Handle: cr.Handle, Offset: 0, Data: data})
		wr := proto.DecodeWriteReply(xdr.NewDecoder(body))
		if wr.Status != proto.OK || wr.Attr.Size != int64(len(data)) {
			t.Fatalf("write: %+v", wr)
		}
		if !wr.Committed || wr.Verifier == 0 {
			t.Fatalf("stable write reply not committed or missing verifier: %+v", wr)
		}
		// lookup
		body = r.call(t, p, proto.ProcLookup, &proto.DirOpArgs{Dir: root, Name: "f"})
		lr := proto.DecodeHandleReply(xdr.NewDecoder(body))
		if lr.Status != proto.OK || lr.Handle != cr.Handle {
			t.Fatalf("lookup: %+v", lr)
		}
		// read
		body = r.call(t, p, proto.ProcRead, &proto.ReadArgs{Handle: cr.Handle, Offset: 0, Count: 100})
		rr := proto.DecodeReadReply(xdr.NewDecoder(body))
		if rr.Status != proto.OK || !bytes.Equal(rr.Data, data) {
			t.Fatalf("read: %+v", rr)
		}
		// getattr
		body = r.call(t, p, proto.ProcGetattr, &proto.HandleArgs{Handle: cr.Handle})
		ga := proto.DecodeAttrReply(xdr.NewDecoder(body))
		if ga.Status != proto.OK || ga.Attr.Size != int64(len(data)) {
			t.Fatalf("getattr: %+v", ga)
		}
		// remove
		body = r.call(t, p, proto.ProcRemove, &proto.DirOpArgs{Dir: root, Name: "f"})
		if st := proto.DecodeStatusReply(xdr.NewDecoder(body)).Status; st != proto.OK {
			t.Fatalf("remove: %v", st)
		}
		// stale after remove
		body = r.call(t, p, proto.ProcGetattr, &proto.HandleArgs{Handle: cr.Handle})
		if st := proto.DecodeAttrReply(xdr.NewDecoder(body)).Status; st != proto.ErrStale {
			t.Errorf("getattr after remove: %v, want ESTALE", st)
		}
	})
}

func TestNFSServerWriteIsSynchronousWithDisk(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		body := r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644})
		cr := proto.DecodeHandleReply(xdr.NewDecoder(body))
		before := r.nfs.Media().Disk().Stats().Writes
		r.call(t, p, proto.ProcWrite, &proto.WriteArgs{Handle: cr.Handle, Offset: 0, Data: make([]byte, 8192)})
		after := r.nfs.Media().Disk().Stats().Writes
		if after <= before {
			t.Error("write RPC completed without a disk write")
		}
	})
}

func TestNFSServerRejectsSpritelyProcedures(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		args := proto.Marshal(&proto.OpenArgs{Handle: r.root()})
		_, err := r.cli.Call(p, "server", proto.ProgNFS, proto.VersNFS, proto.ProcOpen, args)
		if err != rpc.ErrProcUnavail {
			t.Errorf("open on NFS server: %v, want PROC_UNAVAIL", err)
		}
	})
}

func TestServerStaleHandles(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		bad := proto.Handle{FSID: 1, Ino: 999, Gen: 1}
		body := r.call(t, p, proto.ProcGetattr, &proto.HandleArgs{Handle: bad})
		if st := proto.DecodeAttrReply(xdr.NewDecoder(body)).Status; st != proto.ErrStale {
			t.Errorf("bogus ino: %v", st)
		}
		wrongGen := r.root()
		wrongGen.Gen += 7
		body = r.call(t, p, proto.ProcGetattr, &proto.HandleArgs{Handle: wrongGen})
		if st := proto.DecodeAttrReply(xdr.NewDecoder(body)).Status; st != proto.ErrStale {
			t.Errorf("wrong generation: %v", st)
		}
		wrongFS := r.root()
		wrongFS.FSID = 42
		body = r.call(t, p, proto.ProcGetattr, &proto.HandleArgs{Handle: wrongFS})
		if st := proto.DecodeAttrReply(xdr.NewDecoder(body)).Status; st != proto.ErrStale {
			t.Errorf("wrong fsid: %v", st)
		}
	})
}

func TestServerGarbageArgs(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		_, err := r.cli.Call(p, "server", proto.ProgNFS, proto.VersNFS, proto.ProcRead, []byte{1, 2})
		if err != rpc.ErrGarbage {
			t.Errorf("truncated args: %v, want GARBAGE_ARGS", err)
		}
	})
}

func TestSNFSServerOpenCloseStateTable(t *testing.T) {
	r := newRig(true, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		body := r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644})
		cr := proto.DecodeHandleReply(xdr.NewDecoder(body))

		body = r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle, WriteMode: true})
		or := proto.DecodeOpenReply(xdr.NewDecoder(body))
		if or.Status != proto.OK || !or.CacheEnabled || or.Version == 0 {
			t.Fatalf("open: %+v", or)
		}
		if got := r.snfs.Table().State(cr.Handle); got != core.StateOneWriter {
			t.Errorf("state %v, want ONE-WRITER", got)
		}
		body = r.call(t, p, proto.ProcClose, &proto.CloseArgs{Handle: cr.Handle, WriteMode: true})
		if st := proto.DecodeStatusReply(xdr.NewDecoder(body)).Status; st != proto.OK {
			t.Fatalf("close: %v", st)
		}
		if got := r.snfs.Table().State(cr.Handle); got != core.StateClosedDirty {
			t.Errorf("state %v, want CLOSED-DIRTY", got)
		}
	})
}

func TestSNFSServerRemoveDropsStateEntry(t *testing.T) {
	r := newRig(true, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		body := r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644})
		cr := proto.DecodeHandleReply(xdr.NewDecoder(body))
		r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle, WriteMode: true})
		r.call(t, p, proto.ProcClose, &proto.CloseArgs{Handle: cr.Handle, WriteMode: true})
		if r.snfs.Table().Len() != 1 {
			t.Fatalf("table len %d", r.snfs.Table().Len())
		}
		r.call(t, p, proto.ProcRemove, &proto.DirOpArgs{Dir: root, Name: "f"})
		if r.snfs.Table().Len() != 0 {
			t.Errorf("state entry survived remove")
		}
	})
}

func TestSNFSServerRenameOverDropsVictimEntry(t *testing.T) {
	r := newRig(true, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		a := proto.DecodeHandleReply(xdr.NewDecoder(
			r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "a", Mode: 0o644})))
		b := proto.DecodeHandleReply(xdr.NewDecoder(
			r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "b", Mode: 0o644})))
		// Open/close b so it has a state entry.
		r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: b.Handle, WriteMode: true})
		r.call(t, p, proto.ProcClose, &proto.CloseArgs{Handle: b.Handle, WriteMode: true})
		// Rename a over b: b's entry must be dropped.
		r.call(t, p, proto.ProcRename, &proto.RenameArgs{
			SrcDir: root, SrcName: "a", DstDir: root, DstName: "b",
		})
		if r.snfs.Table().State(b.Handle) != core.StateClosed || r.snfs.Table().Len() != 0 {
			t.Errorf("victim entry survived rename-over (len %d)", r.snfs.Table().Len())
		}
		_ = a
	})
}

func TestSNFSServerGracePeriodRejectsOpens(t *testing.T) {
	r := newRig(true, SNFSOptions{GraceDur: 5 * sim.Second})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		body := r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644})
		cr := proto.DecodeHandleReply(xdr.NewDecoder(body))
		r.snfs.Crash()
		r.snfs.Reboot()
		if !r.snfs.InGrace() {
			t.Fatal("not in grace after reboot")
		}
		body = r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle})
		if st := proto.DecodeOpenReply(xdr.NewDecoder(body)).Status; st != proto.ErrGrace {
			t.Errorf("open during grace: %v, want EGRACE", st)
		}
		// Reopens ARE accepted during grace.
		body = r.call(t, p, proto.ProcReopen, &proto.ReopenArgs{Handle: cr.Handle, Readers: 1, Version: 3})
		if st := proto.DecodeOpenReply(xdr.NewDecoder(body)).Status; st != proto.OK {
			t.Errorf("reopen during grace: %v", st)
		}
		p.Sleep(6 * sim.Second)
		body = r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle})
		if st := proto.DecodeOpenReply(xdr.NewDecoder(body)).Status; st != proto.OK {
			t.Errorf("open after grace: %v", st)
		}
	})
}

func TestSNFSServerEpochAdvancesAcrossReboot(t *testing.T) {
	r := newRig(true, SNFSOptions{GraceDur: sim.Second})
	r.run(t, func(p *sim.Proc) {
		body := r.call(t, p, proto.ProcServerInfo, nil)
		e1 := proto.DecodeServerInfoReply(xdr.NewDecoder(body)).Epoch
		r.snfs.Crash()
		r.snfs.Reboot()
		body = r.call(t, p, proto.ProcServerInfo, nil)
		info := proto.DecodeServerInfoReply(xdr.NewDecoder(body))
		if info.Epoch != e1+1 {
			t.Errorf("epoch %d after reboot, want %d", info.Epoch, e1+1)
		}
		if !info.InGrace {
			t.Error("not reporting grace period")
		}
	})
}

func TestMountRoot(t *testing.T) {
	r := newRig(true, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		body := r.call(t, p, proto.ProcMountRoot, nil)
		mr := proto.DecodeHandleReply(xdr.NewDecoder(body))
		if mr.Status != proto.OK || mr.Handle != r.root() || !mr.Attr.IsDir() {
			t.Errorf("mountroot: %+v", mr)
		}
	})
}

func TestServerSeriesRecording(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	ser := r.nfs.EnableSeries(sim.Second)
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		body := r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644})
		cr := proto.DecodeHandleReply(xdr.NewDecoder(body))
		for i := 0; i < 5; i++ {
			r.call(t, p, proto.ProcWrite, &proto.WriteArgs{Handle: cr.Handle, Offset: 0, Data: make([]byte, 4096)})
			r.call(t, p, proto.ProcRead, &proto.ReadArgs{Handle: cr.Handle, Offset: 0, Count: 4096})
		}
	})
	calls, reads, writes := 0.0, 0.0, 0.0
	for _, v := range ser.Calls.Values() {
		calls += v
	}
	for _, v := range ser.Reads.Values() {
		reads += v
	}
	for _, v := range ser.Writes.Values() {
		writes += v
	}
	if calls != 11 || reads != 5 || writes != 5 {
		t.Errorf("series calls=%v reads=%v writes=%v, want 11/5/5", calls, reads, writes)
	}
	cpuBusy := 0.0
	for _, v := range ser.CPU.Values() {
		cpuBusy += v
	}
	if cpuBusy <= 0 {
		t.Error("no CPU busy time recorded")
	}
}

func TestSetattrTruncate(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		cr := proto.DecodeHandleReply(xdr.NewDecoder(
			r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644})))
		r.call(t, p, proto.ProcWrite, &proto.WriteArgs{Handle: cr.Handle, Offset: 0, Data: make([]byte, 10000)})
		body := r.call(t, p, proto.ProcSetattr, &proto.SetattrArgs{Handle: cr.Handle, SetSize: true, Size: 100})
		sr := proto.DecodeAttrReply(xdr.NewDecoder(body))
		if sr.Status != proto.OK || sr.Attr.Size != 100 {
			t.Errorf("setattr: %+v", sr)
		}
	})
}

func TestReaddirAndStatfs(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		for _, name := range []string{"x", "y"} {
			r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: name, Mode: 0o644})
		}
		body := r.call(t, p, proto.ProcReaddir, &proto.HandleArgs{Handle: root})
		dr := proto.DecodeReaddirReply(xdr.NewDecoder(body))
		if dr.Status != proto.OK || len(dr.Entries) != 2 {
			t.Errorf("readdir: %+v", dr)
		}
		body = r.call(t, p, proto.ProcStatfs, &proto.HandleArgs{Handle: root})
		sf := proto.DecodeStatfsReply(xdr.NewDecoder(body))
		if sf.Status != proto.OK || sf.BlockSize != 4096 {
			t.Errorf("statfs: %+v", sf)
		}
	})
}

func TestSNFSDumpState(t *testing.T) {
	r := newRig(true, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		cr := proto.DecodeHandleReply(xdr.NewDecoder(
			r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644})))
		r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle, WriteMode: true})
		body := r.call(t, p, proto.ProcDumpState, nil)
		dr := proto.DecodeDumpStateReply(xdr.NewDecoder(body))
		if dr.Status != proto.OK || dr.Epoch != 1 {
			t.Fatalf("dump: %+v", dr)
		}
		if len(dr.Entries) != 1 {
			t.Fatalf("%d entries", len(dr.Entries))
		}
		e := dr.Entries[0]
		if e.Handle != cr.Handle || e.StateName != "ONE-WRITER" || len(e.Clients) != 1 {
			t.Errorf("entry %+v", e)
		}
		if e.Clients[0].Client != "cli" || e.Clients[0].Writers != 1 || !e.Clients[0].Caching {
			t.Errorf("client %+v", e.Clients[0])
		}
	})
}

func TestSNFSReclaimIdle(t *testing.T) {
	r := newRig(true, SNFSOptions{TableLimit: 3})
	// The rig's "cli" endpoint serves no callback program; register one.
	r.cli.Register(proto.ProgCallback, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, rpc.Status) {
		return proto.Marshal(&proto.StatusReply{Status: proto.OK}), rpc.StatusOK
	})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		// Two files written and closed: CLOSED-DIRTY entries.
		for _, name := range []string{"a", "b"} {
			cr := proto.DecodeHandleReply(xdr.NewDecoder(
				r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: name, Mode: 0o644})))
			r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle, WriteMode: true})
			r.call(t, p, proto.ProcClose, &proto.CloseArgs{Handle: cr.Handle, WriteMode: true})
		}
		if !r.snfs.Table().NeedsReclaim(1) {
			t.Fatalf("table len %d not near limit", r.snfs.Table().Len())
		}
		var n int
		done := make(chan struct{})
		r.k.Go("reclaimer", func(rp *sim.Proc) {
			n = r.snfs.ReclaimIdle(rp, 2)
			close(done)
		})
		p.Sleep(5 * sim.Second)
		if n != 2 {
			t.Errorf("reclaimed %d entries, want 2", n)
		}
		if r.snfs.Table().LastWriter(proto.Handle{}) != "" {
			t.Error("unexpected last writer on zero handle")
		}
	})
}

func TestRFSServerDirect(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{PropDelay: sim.Millisecond})
	sep := rpc.NewEndpoint(k, net, "server", rpc.Options{Workers: 4})
	st := localfs.NewStore(k.Now, 4096)
	media := localfs.NewMedia(st, disk.New(k, "d", disk.Params{AccessTime: sim.Millisecond}), 1, 1<<20)
	srv := NewRFS(k, sep, media, Config{FSID: 1})
	cli := rpc.NewEndpoint(k, net, "cli", rpc.Options{Workers: 2})
	cli.Register(proto.ProgCallback, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, rpc.Status) {
		return proto.Marshal(&proto.StatusReply{Status: proto.OK}), rpc.StatusOK
	})
	call := func(p *sim.Proc, procNum uint32, m proto.Message) []byte {
		var args []byte
		if m != nil {
			args = proto.Marshal(m)
		}
		body, err := cli.Call(p, "server", proto.ProgNFS, proto.VersNFS, procNum, args)
		if err != nil {
			t.Fatalf("%s: %v", proto.ProcName(proto.ProgNFS, procNum), err)
		}
		return body
	}
	k.Go("test", func(p *sim.Proc) {
		defer k.Stop()
		root := srv.RootHandle()
		cr := proto.DecodeHandleReply(xdr.NewDecoder(
			call(p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644})))
		or := proto.DecodeOpenReply(xdr.NewDecoder(
			call(p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle, WriteMode: false})))
		if or.Status != proto.OK || !or.CacheEnabled {
			t.Fatalf("rfs open: %+v (readers always cache under RFS)", or)
		}
		v1 := or.Version
		// A write-mode open bumps the version.
		or2 := proto.DecodeOpenReply(xdr.NewDecoder(
			call(p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle, WriteMode: true})))
		if or2.Version <= v1 || or2.PrevVersion != v1 {
			t.Errorf("version not bumped: %d -> %+v", v1, or2)
		}
		if srv.Readers(cr.Handle) != 1 {
			t.Errorf("readers %d", srv.Readers(cr.Handle))
		}
		call(p, proto.ProcClose, &proto.CloseArgs{Handle: cr.Handle})
		call(p, proto.ProcClose, &proto.CloseArgs{Handle: cr.Handle, WriteMode: true})
		if srv.TableLen() != 1 {
			t.Errorf("entry dropped on close (cache outlives close)")
		}
		// Removal clears the entry.
		call(p, proto.ProcRemove, &proto.DirOpArgs{Dir: root, Name: "f"})
		if srv.TableLen() != 0 {
			t.Errorf("entry survived remove")
		}
	})
	k.Run()
}
