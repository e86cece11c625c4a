package server

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/core"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/trace"
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
	rfs  *RFSServer
}

func newRig(useSNFS bool, opts SNFSOptions) *rig {
	return newRigWith(Config{FSID: 1}, sim.Millisecond, useSNFS, opts)
}

// newRigWith is newRig with a stated server Config and disk access time.
func newRigWith(cfg Config, diskAccess sim.Duration, useSNFS bool, opts SNFSOptions) *rig {
	return newRigServing(diskAccess, func(r *rig, ep *rpc.Endpoint, media *localfs.Media) {
		if useSNFS {
			r.snfs = NewSNFS(r.k, ep, media, cfg, opts)
		} else {
			r.nfs = NewNFS(r.k, ep, media, cfg)
		}
	})
}

// newRFSRig is newRig with an RFS server.
func newRFSRig() *rig {
	return newRigServing(sim.Millisecond, func(r *rig, ep *rpc.Endpoint, media *localfs.Media) {
		r.rfs = NewRFS(r.k, ep, media, Config{FSID: 1})
	})
}

// newRigServing builds the rig around the server that serve starts on the
// server endpoint.
func newRigServing(diskAccess sim.Duration, serve func(r *rig, ep *rpc.Endpoint, media *localfs.Media)) *rig {
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{PropDelay: sim.Millisecond})
	sep := rpc.NewEndpoint(k, net, "server", rpc.Options{Workers: 4})
	st := localfs.NewStore(k.Now, 4096)
	media := localfs.NewMedia(st, disk.New(k, "d", disk.Params{AccessTime: diskAccess}), 1, 1<<20)
	r := &rig{k: k, net: net}
	serve(r, sep, media)
	r.cli = rpc.NewEndpoint(k, net, "cli", rpc.Options{Workers: 2})
	return r
}

// base returns the machinery of whichever server the rig runs.
func (r *rig) base() *Base {
	switch {
	case r.nfs != nil:
		return r.nfs.Base
	case r.snfs != nil:
		return r.snfs.Base
	}
	return r.rfs.Base
}

func (r *rig) root() proto.Handle { return r.base().RootHandle() }

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
		cr := decodeAs[proto.HandleReply](body)
		if cr.Status != proto.OK {
			t.Fatalf("create: %v", cr.Status)
		}
		// write
		data := []byte("persistent bytes")
		body = r.call(t, p, proto.ProcWrite, &proto.WriteArgs{Handle: cr.Handle, Offset: 0, Data: data})
		wr := decodeAs[proto.WriteReply](body)
		if wr.Status != proto.OK || wr.Attr.Size != int64(len(data)) {
			t.Fatalf("write: %+v", wr)
		}
		if !wr.Committed || wr.Verifier == 0 {
			t.Fatalf("stable write reply not committed or missing verifier: %+v", wr)
		}
		// lookup
		body = r.call(t, p, proto.ProcLookup, &proto.DirOpArgs{Dir: root, Name: "f"})
		lr := decodeAs[proto.HandleReply](body)
		if lr.Status != proto.OK || lr.Handle != cr.Handle {
			t.Fatalf("lookup: %+v", lr)
		}
		// read
		body = r.call(t, p, proto.ProcRead, &proto.ReadArgs{Handle: cr.Handle, Offset: 0, Count: 100})
		rr := decodeAs[proto.ReadReply](body)
		if rr.Status != proto.OK || !bytes.Equal(rr.Data, data) {
			t.Fatalf("read: %+v", rr)
		}
		// getattr
		body = r.call(t, p, proto.ProcGetattr, &proto.HandleArgs{Handle: cr.Handle})
		ga := decodeAs[proto.AttrReply](body)
		if ga.Status != proto.OK || ga.Attr.Size != int64(len(data)) {
			t.Fatalf("getattr: %+v", ga)
		}
		// remove
		body = r.call(t, p, proto.ProcRemove, &proto.DirOpArgs{Dir: root, Name: "f"})
		if st := decodeAs[proto.StatusReply](body).Status; st != proto.OK {
			t.Fatalf("remove: %v", st)
		}
		// stale after remove
		body = r.call(t, p, proto.ProcGetattr, &proto.HandleArgs{Handle: cr.Handle})
		if st := decodeAs[proto.AttrReply](body).Status; st != proto.ErrStale {
			t.Errorf("getattr after remove: %v, want ESTALE", st)
		}
	})
}

func TestNFSServerWriteIsSynchronousWithDisk(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		body := r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644})
		cr := decodeAs[proto.HandleReply](body)
		before := r.nfs.media.Disk().Stats().Writes
		r.call(t, p, proto.ProcWrite, &proto.WriteArgs{Handle: cr.Handle, Offset: 0, Data: make([]byte, 8192)})
		after := r.nfs.media.Disk().Stats().Writes
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
		if st := decodeAs[proto.AttrReply](body).Status; st != proto.ErrStale {
			t.Errorf("bogus ino: %v", st)
		}
		wrongGen := r.root()
		wrongGen.Gen += 7
		body = r.call(t, p, proto.ProcGetattr, &proto.HandleArgs{Handle: wrongGen})
		if st := decodeAs[proto.AttrReply](body).Status; st != proto.ErrStale {
			t.Errorf("wrong generation: %v", st)
		}
		wrongFS := r.root()
		wrongFS.FSID = 42
		body = r.call(t, p, proto.ProcGetattr, &proto.HandleArgs{Handle: wrongFS})
		if st := decodeAs[proto.AttrReply](body).Status; st != proto.ErrStale {
			t.Errorf("wrong fsid: %v", st)
		}
	})
}

// TestServerGarbageArgs: a call whose arguments do not decode is answered
// GARBAGE_ARGS, by every handler, and changes no server state. Cut short
// after its handle, a CLOSE used to be served as a read-mode close; a
// truncated replication batch applied a half-decoded record; and an
// oversized LOOKUPPATH was walked from the zero handle. A procedure a
// server does not implement, or a number no procedure has, is answered
// PROC_UNAVAIL free of charge: that answer is how a hybrid client detects
// a plain server (§6.1), and it costs the server no CPU and counts no op.
func TestServerGarbageArgs(t *testing.T) {
	noArgs := procsOf(proto.ProcNull, proto.ProcServerInfo, proto.ProcMountRoot, proto.ProcDumpState,
		proto.ProcMetrics, proto.ProcAudit, proto.ProcShardMap)
	for _, c := range []struct {
		name   string
		rig    func() *rig
		serves procSet
	}{
		{"nfs", func() *rig { return newRig(false, SNFSOptions{}) }, commonProcs},
		{"snfs", func() *rig { return newRig(true, SNFSOptions{}) }, snfsProcs},
		{"rfs", newRFSRig, rfsProcs},
	} {
		r := c.rig()
		r.run(t, func(p *sim.Proc) {
			garbage := func(what string, proc uint32, args []byte) {
				t.Helper()
				if _, err := r.cli.Call(p, "server", proto.ProgNFS, proto.VersNFS, proc, args); err != rpc.ErrGarbage {
					t.Errorf("%s %s: %v, want GARBAGE_ARGS", c.name, what, err)
				}
			}
			for proc := uint32(0); proc < 64; proc++ {
				name := proto.ProcName(proto.ProgNFS, proc)
				if c.serves.has(proc) {
					if !noArgs.has(proc) {
						garbage(name+" on a 2-byte body", proc, []byte{1, 2})
					}
					continue
				}
				ops, busy := r.base().Ops().Total(), r.base().CPU().BusyTime()
				if _, err := r.cli.Call(p, "server", proto.ProgNFS, proto.VersNFS, proc, []byte{1, 2}); err != rpc.ErrProcUnavail {
					t.Errorf("%s %s: %v, want PROC_UNAVAIL", c.name, name, err)
				}
				if r.base().Ops().Total() != ops || r.base().CPU().BusyTime() != busy {
					t.Errorf("%s %s: refusing it counted an op or charged CPU", c.name, name)
				}
			}
			tooLong := &proto.LookupPathArgs{Dir: r.root(), Names: make([]string, 1<<12+1)}
			garbage("LOOKUPPATH of 4,097 names", proto.ProcLookupPath, proto.Marshal(tooLong))
			if r.snfs == nil {
				return
			}

			cr := decodeAs[proto.HandleReply](r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: r.root(), Name: "f", Mode: 0o644}))
			r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle, WriteMode: true})
			handleOnly := proto.Marshal(&proto.HandleArgs{Handle: cr.Handle})
			for _, proc := range []uint32{proto.ProcOpen, proto.ProcClose, proto.ProcReopen} {
				garbage(proto.ProcName(proto.ProgNFS, proc)+" cut short after its handle", proc, handleOnly)
			}
			if got := r.snfs.Table().State(cr.Handle); got != core.StateOneWriter {
				t.Errorf("state after the garbage calls: %v, want ONE-WRITER", got)
			}

			// A backup applies the stream; the map names another primary.
			r.snfs.SetShardMap(proto.ShardMap{Version: 1, Servers: []string{"primary"}}, 0)
			batch := proto.Marshal(&proto.ReplStreamArgs{Shard: 0, Epoch: 1, Verifier: 1,
				Records: []proto.ReplRecord{{Seq: 1, Kind: proto.ReplWrite, Ino: cr.Handle.Ino, Length: 8192}}})
			garbage("ReplStream batch cut short", proto.ProcReplStream, batch[:len(batch)-12])
			huge := proto.Marshal(&proto.ReplStreamArgs{Shard: 0, Epoch: 1, Verifier: 1})
			binary.BigEndian.PutUint32(huge[len(huge)-4:], 1<<20+1)
			garbage("ReplStream batch of 1<<20+1 records", proto.ProcReplStream, huge)
			garbage("ReplSync cut short", proto.ProcReplSync, []byte{0, 0, 0, 0})
			if r.snfs.replApplied != 0 {
				t.Errorf("garbage batches advanced the backup to seq %d", r.snfs.replApplied)
			}
		})
	}
}

func TestSNFSServerOpenCloseStateTable(t *testing.T) {
	r := newRig(true, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		body := r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644})
		cr := decodeAs[proto.HandleReply](body)

		body = r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle, WriteMode: true})
		or := decodeAs[proto.OpenReply](body)
		if or.Status != proto.OK || !or.CacheEnabled || or.Version == 0 {
			t.Fatalf("open: %+v", or)
		}
		if got := r.snfs.Table().State(cr.Handle); got != core.StateOneWriter {
			t.Errorf("state %v, want ONE-WRITER", got)
		}
		body = r.call(t, p, proto.ProcClose, &proto.CloseArgs{Handle: cr.Handle, WriteMode: true})
		if st := decodeAs[proto.StatusReply](body).Status; st != proto.OK {
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
		cr := decodeAs[proto.HandleReply](body)
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

// TestSNFSServerRemoveAfterRebootDropsStateEntry: a removal drops the
// entry from the table of the incarnation that serves it. reset replaces
// the table, so a removal hook bound to the first incarnation's table
// would leave the entry behind.
func TestSNFSServerRemoveAfterRebootDropsStateEntry(t *testing.T) {
	r := newRig(true, SNFSOptions{GraceDur: sim.Second})
	r.run(t, func(p *sim.Proc) {
		r.snfs.Crash()
		r.snfs.Reboot()
		p.Sleep(2 * sim.Second)
		root := r.root()
		cr := decodeAs[proto.HandleReply](
			r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644}))
		if st := decodeAs[proto.OpenReply](
			r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle, WriteMode: true})).Status; st != proto.OK {
			t.Fatalf("open after grace: %v", st)
		}
		r.call(t, p, proto.ProcClose, &proto.CloseArgs{Handle: cr.Handle, WriteMode: true})
		r.call(t, p, proto.ProcRemove, &proto.DirOpArgs{Dir: root, Name: "f"})
		for _, e := range r.snfs.Table().Snapshot() {
			if e.Handle == cr.Handle {
				t.Errorf("entry for the removed file survived in the new table: %+v", e)
			}
		}
	})
}

func TestSNFSServerRenameOverDropsVictimEntry(t *testing.T) {
	r := newRig(true, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		a := decodeAs[proto.HandleReply](
			r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "a", Mode: 0o644}))
		b := decodeAs[proto.HandleReply](
			r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "b", Mode: 0o644}))
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
		cr := decodeAs[proto.HandleReply](body)
		r.snfs.Crash()
		r.snfs.Reboot()
		if !r.snfs.InGrace() {
			t.Fatal("not in grace after reboot")
		}
		body = r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle})
		if st := decodeAs[proto.OpenReply](body).Status; st != proto.ErrGrace {
			t.Errorf("open during grace: %v, want EGRACE", st)
		}
		// Reopens ARE accepted during grace.
		body = r.call(t, p, proto.ProcReopen, &proto.ReopenArgs{Handle: cr.Handle, Readers: 1, Version: 3})
		if st := decodeAs[proto.OpenReply](body).Status; st != proto.OK {
			t.Errorf("reopen during grace: %v", st)
		}
		p.Sleep(6 * sim.Second)
		body = r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle})
		if st := decodeAs[proto.OpenReply](body).Status; st != proto.OK {
			t.Errorf("open after grace: %v", st)
		}
	})
}

func TestSNFSServerEpochAdvancesAcrossReboot(t *testing.T) {
	r := newRig(true, SNFSOptions{GraceDur: sim.Second})
	r.run(t, func(p *sim.Proc) {
		body := r.call(t, p, proto.ProcServerInfo, nil)
		e1 := decodeAs[proto.ServerInfoReply](body).Epoch
		r.snfs.Crash()
		r.snfs.Reboot()
		body = r.call(t, p, proto.ProcServerInfo, nil)
		info := decodeAs[proto.ServerInfoReply](body)
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
		mr := decodeAs[proto.HandleReply](body)
		if mr.Status != proto.OK || mr.Handle != r.root() || !mr.Attr.IsDir() {
			t.Errorf("mountroot: %+v", mr)
		}
	})
}

// TestServerCallsTotalGauges: the server exports what it served, one
// snfs_server_calls_total gauge per procedure, counted as Ops counts it.
func TestServerCallsTotalGauges(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	reg := metrics.New()
	r.nfs.Attach(trace.Instruments{Metrics: reg})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		body := r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644})
		cr := decodeAs[proto.HandleReply](body)
		for i := 0; i < 5; i++ {
			r.call(t, p, proto.ProcWrite, &proto.WriteArgs{Handle: cr.Handle, Offset: 0, Data: make([]byte, 4096)})
			r.call(t, p, proto.ProcRead, &proto.ReadArgs{Handle: cr.Handle, Offset: 0, Count: 4096})
		}
	})
	gauges := reg.Snapshot().Gauges
	calls := 0.0
	for name, v := range gauges {
		if strings.HasPrefix(name, "snfs_server_calls_total{") {
			calls += v
		}
	}
	reads := gauges[`snfs_server_calls_total{host="server",proc="read"}`]
	writes := gauges[`snfs_server_calls_total{host="server",proc="write"}`]
	if calls != 11 || reads != 5 || writes != 5 {
		t.Errorf("calls_total calls=%v reads=%v writes=%v, want 11/5/5", calls, reads, writes)
	}
	if int64(calls) != r.nfs.Ops().Total() {
		t.Errorf("calls_total sums to %v, Ops to %d", calls, r.nfs.Ops().Total())
	}
	if gauges[`snfs_server_cpu_busy_seconds{host="server"}`] <= 0 {
		t.Error("no CPU busy time recorded")
	}
}

func TestSetattrTruncate(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		cr := decodeAs[proto.HandleReply](
			r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644}))
		r.call(t, p, proto.ProcWrite, &proto.WriteArgs{Handle: cr.Handle, Offset: 0, Data: make([]byte, 10000)})
		body := r.call(t, p, proto.ProcSetattr, &proto.SetattrArgs{Handle: cr.Handle, SetSize: true, Size: 100})
		sr := decodeAs[proto.AttrReply](body)
		if sr.Status != proto.OK || sr.Attr.Size != 100 {
			t.Errorf("setattr: %+v", sr)
		}
	})
}

// TestSetattrMode drives SETATTR's mode arm: the reply and a later
// GETATTR carry the new mode and a ctime moved to the instant of the
// change, and neither the size nor the mtime moves.
func TestSetattrMode(t *testing.T) {
	r := newRig(false, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		cr := decodeAs[proto.HandleReply](
			r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: r.root(), Name: "f", Mode: 0o644}))
		r.call(t, p, proto.ProcWrite, &proto.WriteArgs{Handle: cr.Handle, Offset: 0, Data: make([]byte, 100)})
		before := decodeAs[proto.AttrReply](r.call(t, p, proto.ProcGetattr, &proto.HandleArgs{Handle: cr.Handle})).Attr
		p.Sleep(sim.Second)
		changed := int64(p.Now())
		sr := decodeAs[proto.AttrReply](
			r.call(t, p, proto.ProcSetattr, &proto.SetattrArgs{Handle: cr.Handle, SetMode: true, Mode: 0o600}))
		if sr.Status != proto.OK || sr.Attr.Mode != 0o600 {
			t.Fatalf("setattr: %+v", sr)
		}
		ga := decodeAs[proto.AttrReply](r.call(t, p, proto.ProcGetattr, &proto.HandleArgs{Handle: cr.Handle}))
		a := ga.Attr
		if ga.Status != proto.OK || a.Mode != 0o600 {
			t.Fatalf("getattr after setattr: status %v mode %o, want OK 600", ga.Status, a.Mode)
		}
		if a.Ctime <= before.Ctime || a.Ctime < changed {
			t.Errorf("ctime %d, want moved past %d to the change at %d or later", a.Ctime, before.Ctime, changed)
		}
		if a.Size != 100 || a.Mtime != before.Mtime {
			t.Errorf("size %d mtime %d, want 100 and %d unchanged", a.Size, a.Mtime, before.Mtime)
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
		dr := decodeAs[proto.ReaddirReply](body)
		if dr.Status != proto.OK || len(dr.Entries) != 2 {
			t.Errorf("readdir: %+v", dr)
		}
		body = r.call(t, p, proto.ProcStatfs, &proto.HandleArgs{Handle: root})
		sf := decodeAs[proto.StatfsReply](body)
		if sf.Status != proto.OK || sf.BlockSize != 4096 {
			t.Errorf("statfs: %+v", sf)
		}
	})
}

func TestSNFSDumpState(t *testing.T) {
	r := newRig(true, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		cr := decodeAs[proto.HandleReply](
			r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644}))
		r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle, WriteMode: true})
		body := r.call(t, p, proto.ProcDumpState, nil)
		dr := decodeAs[proto.DumpStateReply](body)
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

// TestSNFSReclaimsOnFullTable: an open that finds every entry taken by a
// CLOSED-DIRTY file reclaims them with write-back callbacks (§4.3.1) and
// is then granted.
func TestSNFSReclaimsOnFullTable(t *testing.T) {
	r := newRig(true, SNFSOptions{TableLimit: 2})
	// The rig's "cli" endpoint serves no callback program; register one.
	callbacks := 0
	r.cli.Register(proto.ProgCallback, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, rpc.Status) {
		if a := decodeAs[proto.CallbackArgs](args); a.WriteBack {
			callbacks++
		}
		return proto.Marshal(&proto.StatusReply{Status: proto.OK}), rpc.StatusOK
	})
	r.run(t, func(p *sim.Proc) {
		root := r.root()
		var hs []proto.Handle
		for _, name := range []string{"a", "b", "c"} {
			cr := decodeAs[proto.HandleReply](
				r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: name, Mode: 0o644}))
			hs = append(hs, cr.Handle)
		}
		// Two files written and closed fill the table with CLOSED-DIRTY
		// entries.
		for _, h := range hs[:2] {
			r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: h, WriteMode: true})
			r.call(t, p, proto.ProcClose, &proto.CloseArgs{Handle: h, WriteMode: true})
		}
		if got := r.snfs.Table().Len(); got != 2 {
			t.Fatalf("table len %d, want 2 (full)", got)
		}
		or := decodeAs[proto.OpenReply](
			r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: hs[2]}))
		if or.Status != proto.OK {
			t.Fatalf("open on a full table: %v, want OK after reclaim", or.Status)
		}
		if callbacks != 2 {
			t.Errorf("%d write-back callbacks, want one per CLOSED-DIRTY entry", callbacks)
		}
		if st := r.snfs.Table().State(hs[0]); st != core.StateClosed {
			t.Errorf("reclaimed entry in %v, want CLOSED (or gone)", st)
		}
	})
}

// TestSNFSCallbackGauges: the callback gauges read their one source.
// While a callback is in its client's handler, one callback permit is in
// use and the outstanding gauge reads 1; once answered it reads 0, and the
// issued total is the endpoint's sent callback count, Ops' "callback".
func TestSNFSCallbackGauges(t *testing.T) {
	r := newRig(true, SNFSOptions{})
	reg := metrics.New()
	r.snfs.Attach(trace.Instruments{Metrics: reg})
	gauge := func(name string) float64 { return reg.Snapshot().Gauges[name] }
	during := -1.0
	r.cli.Register(proto.ProgCallback, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, rpc.Status) {
		p.Sleep(10 * sim.Millisecond)
		during = gauge("snfs_server_callbacks_outstanding")
		return proto.Marshal(&proto.StatusReply{Status: proto.OK}), rpc.StatusOK
	})
	other := rpc.NewEndpoint(r.k, r.net, "cli2", rpc.Options{Workers: 2})
	r.run(t, func(p *sim.Proc) {
		h := createFile(t, r, p, "f")
		r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: h, WriteMode: true})
		// A second client's open write-shares the file: "cli" is called
		// back to write back and stop caching.
		if _, err := other.Call(p, "server", proto.ProgNFS, proto.VersNFS, proto.ProcOpen,
			proto.Marshal(&proto.OpenArgs{Handle: h})); err != nil {
			t.Fatal(err)
		}
	})
	if during != 1 {
		t.Errorf("outstanding during the callback = %v, want 1", during)
	}
	if got := gauge("snfs_server_callbacks_outstanding"); got != 0 {
		t.Errorf("outstanding after the callback = %v, want 0", got)
	}
	issued, sent := gauge("snfs_server_callbacks_issued_total"), r.snfs.Ops().Get("callback")
	if sent != 1 || issued != float64(sent) {
		t.Errorf("callbacks issued %v, sent %d: want 1 and 1", issued, sent)
	}
}

// TestSNFSDeadCallbackTargetIsDeclaredDead: a client that does not answer
// the callback of a truncating create, or of Expel, is declared dead —
// its opens on other files go with it. The rig's "cli" endpoint serves no
// callback program, so every callback to it fails.
func TestSNFSDeadCallbackTargetIsDeclaredDead(t *testing.T) {
	r := newRig(true, SNFSOptions{})
	other := rpc.NewEndpoint(r.k, r.net, "cli2", rpc.Options{Workers: 2})
	r.run(t, func(p *sim.Proc) {
		for _, c := range []struct {
			name   string
			called func(h proto.Handle) // the act that calls "cli" back on h
		}{
			{"truncating create", func(proto.Handle) {
				if _, err := other.Call(p, "server", proto.ProgNFS, proto.VersNFS, proto.ProcCreate,
					proto.Marshal(&proto.CreateArgs{Dir: r.root(), Name: "truncating create", Mode: 0o644})); err != nil {
					t.Fatal(err)
				}
			}},
			{"expel", func(h proto.Handle) { r.snfs.Expel(p, h) }},
		} {
			h := createFile(t, r, p, c.name)
			held := createFile(t, r, p, c.name+" held")
			for _, f := range []proto.Handle{h, held} {
				r.call(t, p, proto.ProcOpen, &proto.OpenArgs{Handle: f, WriteMode: true})
			}
			c.called(h)
			if r.snfs.Table().HasClient(held, "cli") {
				t.Errorf("%s: the client that failed its callback still holds an open", c.name)
			}
		}
	})
}

func TestRFSTableEviction(t *testing.T) {
	rt := newRFSTable(2)
	h := func(i uint64) proto.Handle { return proto.Handle{FSID: 1, Ino: i, Gen: 1} }
	e1 := rt.get(h(1))
	e1.stamp = 1
	e2 := rt.get(h(2))
	e2.stamp = 2
	// Both closed (no opens): the third evicts the oldest.
	rt.get(h(3))
	if _, ok := rt.entries[h(1)]; ok {
		t.Error("oldest closed entry not evicted")
	}
	if len(rt.entries) != 2 {
		t.Errorf("table size %d", len(rt.entries))
	}
	// Open entries are not evicted.
	rt2 := newRFSTable(1)
	e := rt2.get(h(1))
	e.opens[core.ClientID("A")] = 1
	rt2.get(h(2))
	if _, ok := rt2.entries[h(1)]; !ok {
		t.Error("open entry evicted")
	}
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
		cr := decodeAs[proto.HandleReply](
			call(p, proto.ProcCreate, &proto.CreateArgs{Dir: root, Name: "f", Mode: 0o644}))
		or := decodeAs[proto.OpenReply](
			call(p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle, WriteMode: false}))
		if or.Status != proto.OK || !or.CacheEnabled {
			t.Fatalf("rfs open: %+v (readers always cache under RFS)", or)
		}
		v1 := or.Version
		// A write-mode open bumps the version.
		or2 := decodeAs[proto.OpenReply](
			call(p, proto.ProcOpen, &proto.OpenArgs{Handle: cr.Handle, WriteMode: true}))
		if or2.Version <= v1 || or2.PrevVersion != v1 {
			t.Errorf("version not bumped: %d -> %+v", v1, or2)
		}
		if len(srv.tab.entries[cr.Handle].cached) != 1 {
			t.Errorf("readers %d", len(srv.tab.entries[cr.Handle].cached))
		}
		call(p, proto.ProcClose, &proto.CloseArgs{Handle: cr.Handle})
		call(p, proto.ProcClose, &proto.CloseArgs{Handle: cr.Handle, WriteMode: true})
		if len(srv.tab.entries) != 1 {
			t.Errorf("entry dropped on close (cache outlives close)")
		}
		// Removal clears the entry.
		call(p, proto.ProcRemove, &proto.DirOpArgs{Dir: root, Name: "f"})
		if len(srv.tab.entries) != 0 {
			t.Errorf("entry survived remove")
		}
	})
	k.Run()
}

// decodeAs decodes body as a T.
func decodeAs[T any, P interface {
	*T
	proto.Message
}](body []byte) T {
	var m T
	P(&m).XDR(xdr.NewDecoder(body).Codec())
	return m
}

// TestTransitionsObservedOnlyWhenConsumed: the SNFS server's state table
// reports its transitions (and builds each one's list of caching clients)
// only while the auditor, the replication stream or the event ring is
// attached; a reboot's fresh table keeps the arrangement.
func TestTransitionsObservedOnlyWhenConsumed(t *testing.T) {
	for _, attach := range []struct {
		name string
		do   func(s *SNFSServer)
	}{
		{"auditor", func(s *SNFSServer) { s.Attach(trace.Instruments{Auditor: audit.New(s.k, nil)}) }},
		{"tracer", func(s *SNFSServer) { s.Attach(trace.Instruments{Tracer: trace.New(s.k.Now, 16)}) }},
		{"replication", func(s *SNFSServer) { s.StartReplication("backup", nil) }},
	} {
		r := newRig(true, SNFSOptions{})
		if r.snfs.table.Observer != nil {
			t.Fatal("a server with nothing attached observes its state table")
		}
		attach.do(r.snfs)
		if r.snfs.table.Observer == nil {
			t.Errorf("%s attached, the state table unobserved", attach.name)
		}
		r.snfs.Crash()
		r.snfs.Reboot()
		if r.snfs.table.Observer == nil {
			t.Errorf("%s attached, the rebooted state table unobserved", attach.name)
		}
	}
}
