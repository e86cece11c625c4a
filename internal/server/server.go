// Package server implements the file servers: the stateless NFS server
// (synchronous writes, no per-client state, trivial restart) and the
// Spritely NFS server (the NFS file operations plus the state-table
// manager driving open/close/callback consistency, entry reclamation,
// hybrid NFS coexistence, and crash recovery).
//
// Both servers translate RPC requests into operations on a localfs
// store/media pair — the role the Ultrix GFS + local file system played
// under the paper's NFS service code (§4.1) — and charge a simulated
// server CPU for every call, which is what the utilization plots of
// Figures 5-1/5-2 measure.
package server

import (
	"strings"

	"spritelynfs/internal/localfs"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/tsdb"
	"spritelynfs/internal/xdr"
)

// Config holds server cost and sizing parameters. The two CPU costs are
// one model: a Config that states neither gets the 1989 server's (2 ms
// per RPC plus 250 µs per KB moved), a Config that states either is
// taken as written, so a zero beside a stated cost means free — which
// is how the live daemon says its CPU time is the host's, not a model's.
type Config struct {
	// FSID is the exported file system's identifier in handles.
	FSID uint32
	// CPUPerOp is the base CPU cost of servicing one RPC.
	CPUPerOp sim.Duration
	// CPUPerKB is the additional CPU cost per kilobyte of file data
	// moved (reads and writes).
	CPUPerKB sim.Duration
}

func (c *Config) fill() {
	if c.CPUPerOp == 0 && c.CPUPerKB == 0 {
		c.CPUPerOp = 2 * sim.Millisecond
		c.CPUPerKB = 250 * sim.Microsecond
	}
}

// Series is the set of per-server time series behind Figures 5-1/5-2.
type Series struct {
	Calls  *stats.TimeSeries // all RPC arrivals
	Reads  *stats.TimeSeries // read arrivals
	Writes *stats.TimeSeries // write arrivals
	CPU    *stats.TimeSeries // CPU busy-time per bucket (seconds)
}

// Base is the machinery shared by the NFS and SNFS servers.
type Base struct {
	k     *sim.Kernel
	ep    *rpc.Endpoint
	media *localfs.Media
	cpu   *sim.Resource
	cfg   Config
	ops   *stats.Ops
	ser   *Series
	// onRemoved, when set, observes file removals (the SNFS server
	// drops the file's state entry).
	onRemoved func(proto.Handle)
	tracer    *trace.Tracer
	metrics   *metrics.Registry
	// flight is the black-box recorder: recent RPC/state/callback events
	// kept in a bounded ring for post-mortem dumps. Nil (off) by default.
	flight *tsdb.FlightRecorder
	// spans, when set, splits each handler's CPU charge into queue-wait
	// and execution spans of the serving call's trace. Nil (off) by
	// default.
	spans *span.Recorder
	// shardMap and shardID make the server a member of a sharded
	// cluster: namespace operations at the export root that name an
	// entry owned by another shard are refused with ErrNotHome.
	shardMap proto.ShardMap
	shardID  uint32
	// repl, when set, streams transitions/writes/commits/dup entries to
	// this shard's backup (see repl.go). Nil on standalone servers,
	// backups, and primaries without a backup.
	repl *Replicator

	// verifier is the write verifier returned on WRITE and COMMIT: it
	// changes exactly when the server reboots (it is the crash epoch),
	// so a client holding unstable-write acks from a previous
	// incarnation sees the mismatch at COMMIT and redrives the data.
	verifier uint64
	// unstable-pipeline counters.
	unstableWrites  int64
	commits         int64
	committedBlocks int64
}

// SetShardMap declares this server shard `id` of a cluster partitioned
// by m. The server then answers ProcShardMap with m and refuses
// root-level namespace operations on names homed elsewhere (ErrNotHome),
// so a client with a stale map can never silently operate on the wrong
// shard. Maps are only replaced by newer versions.
func (b *Base) SetShardMap(m proto.ShardMap, id uint32) {
	if !b.shardMap.IsZero() && m.Version <= b.shardMap.Version {
		return
	}
	b.shardMap = m
	b.shardID = id
}

// SetTracer attaches a trace recorder to the server (and, for SNFS, to
// its state table via EnableTrace on the harness world).
func (b *Base) SetTracer(t *trace.Tracer) { b.tracer = t }

// Tracer returns the attached tracer (possibly nil; nil is recordable).
func (b *Base) Tracer() *trace.Tracer { return b.tracer }

// SetFlight attaches a flight recorder: every served RPC, state-table
// transition, callback, and crash/reboot leaves a record in its ring.
func (b *Base) SetFlight(r *tsdb.FlightRecorder) { b.flight = r }

// SetSpans attaches a span recorder: each handler's CPU charge splits
// into cpu-queue/cpu spans of the serving call's trace (the RPC endpoint
// and disk carry their own recorder attachments).
func (b *Base) SetSpans(r *span.Recorder) { b.spans = r }

// Flight returns the attached flight recorder (possibly nil; nil is
// recordable).
func (b *Base) Flight() *tsdb.FlightRecorder { return b.flight }

// recordServe notes one incoming RPC in the flight recorder. The detail
// is formatted only when a recorder is attached.
func (b *Base) recordServe(p *sim.Proc, from simnet.Addr, proc uint32) {
	if b.flight == nil {
		return
	}
	b.flight.Record(string(b.ep.Addr()), "rpc", p.Op(),
		proto.ProcName(proto.ProgNFS, proc)+" from "+string(from))
}

func newBase(k *sim.Kernel, ep *rpc.Endpoint, media *localfs.Media, cfg Config) *Base {
	cfg.fill()
	return &Base{
		k:        k,
		ep:       ep,
		media:    media,
		cpu:      sim.NewResource(k, string(ep.Addr())+"/cpu"),
		cfg:      cfg,
		ops:      stats.NewOps(),
		verifier: 1,
	}
}

// Verifier returns the current write verifier (the crash epoch).
func (b *Base) Verifier() uint64 { return b.verifier }

// EnableMetrics attaches a metrics registry: the endpoint records
// per-procedure serve latency, and the server exports CPU busy time and
// disk utilization gauges. The SNFS server adds state-table gauges on top
// (see SNFSServer.EnableMetrics).
func (b *Base) EnableMetrics(r *metrics.Registry) {
	b.metrics = r
	b.ep.SetMetrics(r)
	host := string(b.ep.Addr())
	r.GaugeFunc(metrics.Label("snfs_server_cpu_busy_seconds", "host", host),
		func() float64 { return b.cpu.BusyTime().Seconds() })
	r.GaugeFunc(metrics.Label("snfs_server_cpu_utilization", "host", host),
		func() float64 { return b.cpu.Utilization() })
	r.GaugeFunc(metrics.Label("snfs_server_disk_utilization", "host", host),
		func() float64 { return b.media.Disk().Utilization() })
	// Cumulative arm busy time: the tsdb sampler differentiates a
	// _seconds gauge into a windowed rate, which for this one reads
	// directly as disk-busy fraction over the window.
	r.GaugeFunc(metrics.Label("snfs_server_disk_busy_seconds", "host", host),
		func() float64 { return b.media.Disk().BusyTime().Seconds() })
	r.GaugeFunc(metrics.Label("snfs_server_disk_queue_delay_seconds", "host", host),
		func() float64 {
			ds := b.media.Disk().Stats()
			return (ds.QueueDelay + ds.QueueDelayAsync).Seconds()
		})
	// Write-gathering pipeline: how many block writes each arm operation
	// carries (1.0 = no gathering), plus the raw unstable/commit counts.
	r.GaugeFunc(metrics.Label("snfs_server_disk_gather_ratio", "host", host),
		func() float64 { return b.media.Sched().Stats().GatherRatio() })
	r.GaugeFunc(metrics.Label("snfs_server_disk_gather_merged_total", "host", host),
		func() float64 { return float64(b.media.Sched().Stats().Merged) })
	r.GaugeFunc(metrics.Label("snfs_server_disk_gather_ops_total", "host", host),
		func() float64 { return float64(b.media.Sched().Stats().Ops) })
	r.GaugeFunc(metrics.Label("snfs_server_unstable_writes_total", "host", host),
		func() float64 { return float64(b.unstableWrites) })
	r.GaugeFunc(metrics.Label("snfs_server_commits_total", "host", host),
		func() float64 { return float64(b.commits) })
	r.GaugeFunc(metrics.Label("snfs_server_committed_blocks_total", "host", host),
		func() float64 { return float64(b.committedBlocks) })
	r.Help("snfs_server_cpu_busy_seconds", "Cumulative server CPU busy time in seconds.")
	r.Help("snfs_server_cpu_utilization", "Server CPU busy fraction since start.")
	r.Help("snfs_server_disk_utilization", "Server disk arm busy fraction since start.")
	r.Help("snfs_server_disk_busy_seconds", "Cumulative server disk arm busy time in seconds.")
	r.Help("snfs_server_disk_queue_delay_seconds", "Cumulative time requests spent queued for the disk arm.")
	r.Help("snfs_server_disk_gather_ratio", "Block writes carried per arm operation (1.0 = no gathering).")
	r.Help("snfs_server_unstable_writes_total", "WRITE calls acknowledged unstable (not yet durable).")
	r.Help("snfs_server_commits_total", "COMMIT calls served.")
	r.Help("snfs_server_committed_blocks_total", "Blocks made durable by COMMIT.")
}

// Ops returns the server-side operation counters.
func (b *Base) Ops() *stats.Ops { return b.ops }

// CPU returns the server CPU resource (for utilization).
func (b *Base) CPU() *sim.Resource { return b.cpu }

// Media returns the backing media layer.
func (b *Base) Media() *localfs.Media { return b.media }

// Endpoint returns the server's RPC endpoint.
func (b *Base) Endpoint() *rpc.Endpoint { return b.ep }

// EnableSeries starts recording the Figure 5-1/5-2 time series with the
// given bucket width.
func (b *Base) EnableSeries(bucket sim.Duration) *Series {
	b.ser = &Series{
		Calls:  stats.NewTimeSeries(bucket),
		Reads:  stats.NewTimeSeries(bucket),
		Writes: stats.NewTimeSeries(bucket),
		CPU:    stats.NewTimeSeries(bucket),
	}
	b.cpu.OnBusy = func(start, end sim.Time) {
		b.ser.CPU.AddInterval(start, end)
	}
	return b.ser
}

// account records one serviced call for stats and series.
func (b *Base) account(proc uint32) {
	name := proto.ProcName(proto.ProgNFS, proc)
	b.ops.Inc(name)
	if b.ser != nil {
		now := b.k.Now()
		b.ser.Calls.Add(now, 1)
		switch proc {
		case proto.ProcRead:
			b.ser.Reads.Add(now, 1)
		case proto.ProcWrite:
			b.ser.Writes.Add(now, 1)
		}
	}
}

// chargeCPU occupies the server CPU for the call's compute cost.
func (b *Base) chargeCPU(p *sim.Proc, dataBytes int) {
	cost := b.cfg.CPUPerOp + sim.Duration(int64(b.cfg.CPUPerKB)*int64(dataBytes)/1024)
	t0 := b.k.Now()
	qd := b.cpu.Use(p, cost)
	if b.spans != nil {
		host := string(b.ep.Addr())
		b.spans.Add(p, host, span.CPUQueue, "cpu", t0, t0.Add(qd))
		b.spans.Add(p, host, span.CPU, "cpu", t0.Add(qd), b.k.Now())
	}
}

// handle validates an incoming handle against the store (stale handles
// are the NFS way of life).
func (b *Base) handle(h proto.Handle) (localfs.Attr, proto.Status) {
	if h.FSID != b.cfg.FSID {
		return localfs.Attr{}, proto.ErrStale
	}
	attr, err := b.media.Store().GetAttr(h.Ino)
	if err != nil {
		return localfs.Attr{}, proto.ErrStale
	}
	if attr.Gen != h.Gen {
		return localfs.Attr{}, proto.ErrStale
	}
	return attr, proto.OK
}

func (b *Base) fattr(a localfs.Attr) proto.Fattr {
	return proto.FattrFromAttr(a, b.media.Store().BlockSize())
}

// toHandle builds the wire handle for an attribute record.
func (b *Base) toHandle(a localfs.Attr) proto.Handle {
	return proto.Handle{FSID: b.cfg.FSID, Ino: a.Ino, Gen: a.Gen}
}

// RootHandle returns the handle of the export root (what mount would
// hand out).
func (b *Base) RootHandle() proto.Handle {
	attr, _ := b.media.Store().GetAttr(b.media.Store().Root())
	return b.toHandle(attr)
}

// dirName is one (directory handle, entry name) pair a namespace
// operation touches.
type dirName struct {
	dir  proto.Handle
	name string
}

// routeCheck is the shard route guard: when the server is part of a
// cluster, a namespace operation on the export root naming an entry
// homed on another shard is refused with ErrNotHome before it can touch
// the store. Only root-level names need checking — shard prefixes are
// single root components (proto.ShardMap), and anything deeper is
// reached through handles that exist only on the owning shard (a
// migrated subtree's old handles answer ErrStale, sending the client
// back through a guarded lookup).
func (b *Base) routeCheck(p *sim.Proc, proc uint32, args []byte) (proto.Message, bool) {
	if b.shardMap.IsZero() {
		return nil, false
	}
	d := xdr.NewDecoder(args)
	var names []dirName
	switch proc {
	case proto.ProcLookup, proto.ProcRemove, proto.ProcRmdir:
		a := proto.DecodeDirOpArgs(d)
		names = []dirName{{a.Dir, a.Name}}
	case proto.ProcCreate, proto.ProcMkdir:
		a := proto.DecodeCreateArgs(d)
		names = []dirName{{a.Dir, a.Name}}
	case proto.ProcSymlink:
		a := proto.DecodeSymlinkArgs(d)
		names = []dirName{{a.Dir, a.Name}}
	case proto.ProcLink:
		a := proto.DecodeLinkArgs(d)
		names = []dirName{{a.ToDir, a.ToName}}
	case proto.ProcRename:
		a := proto.DecodeRenameArgs(d)
		names = []dirName{{a.SrcDir, a.SrcName}, {a.DstDir, a.DstName}}
	case proto.ProcLookupPath:
		a := proto.DecodeLookupPathArgs(d)
		if len(a.Names) == 0 {
			return nil, false
		}
		// Only the first component can be a root-level name; the rest
		// resolve under handles this shard already owns.
		names = []dirName{{a.Dir, a.Names[0]}}
	default:
		return nil, false
	}
	if d.Err() != nil {
		return nil, false // the real decode path reports the garbage
	}
	root := b.media.Store().Root()
	for _, nm := range names {
		if nm.dir.FSID != b.cfg.FSID || nm.dir.Ino != root {
			continue
		}
		if b.shardMap.Owner(nm.name) != b.shardID {
			b.chargeCPU(p, 0)
			b.account(proc)
			return notHomeReply(proc), true
		}
	}
	return nil, false
}

// notHomeReply builds the proc's reply shape carrying ErrNotHome.
func notHomeReply(proc uint32) proto.Message {
	switch proc {
	case proto.ProcLookup, proto.ProcCreate, proto.ProcMkdir, proto.ProcSymlink:
		return &proto.HandleReply{Status: proto.ErrNotHome}
	case proto.ProcLookupPath:
		return &proto.LookupPathReply{Status: proto.ErrNotHome}
	case proto.ProcOpen, proto.ProcReopen:
		return &proto.OpenReply{Status: proto.ErrNotHome}
	default: // remove, rmdir, rename, link, and the status-first data procs
		return &proto.StatusReply{Status: proto.ErrNotHome}
	}
}

// isOwner reports whether the current map names this server as its
// shard's primary (standalone servers have no map and are trivially
// their own primary).
func (b *Base) isOwner() bool {
	return b.shardMap.IsZero() ||
		(int(b.shardID) < len(b.shardMap.Servers) &&
			b.shardMap.Servers[b.shardID] == string(b.ep.Addr()))
}

// ownerCheck is the demotion guard: when a newer map says another server
// owns this shard — this server is a backup, or a primary that has been
// failed over — every data-plane call is bounced with ErrNotHome so the
// caller refetches the map and heals onto the real primary. Control and
// replication procedures pass: they are how the map gets refetched and
// how the stream keeps flowing.
func (b *Base) ownerCheck(p *sim.Proc, proc uint32) (proto.Message, bool) {
	if b.isOwner() {
		return nil, false
	}
	switch proc {
	case proto.ProcNull, proto.ProcServerInfo, proto.ProcDumpState, proto.ProcAudit,
		proto.ProcMetrics, proto.ProcShardMap, proto.ProcMountRoot,
		proto.ProcReplStream, proto.ProcReplSync:
		return nil, false
	}
	b.chargeCPU(p, 0)
	b.account(proc)
	return notHomeReply(proc), true
}

// replWrite forwards one charged write to the backup, if replicating.
func (b *Base) replWrite(ino uint64, off int64, n int, unstable bool) {
	if b.repl != nil {
		b.repl.noteWrite(ino, off, n, unstable)
	}
}

// replCommit forwards one served COMMIT to the backup, if replicating.
func (b *Base) replCommit(ino uint64) {
	if b.repl != nil {
		b.repl.noteCommit(ino)
	}
}

// serveCommon executes the NFS file procedures shared by both servers.
// It reports handled=false for procedures outside the common set.
func (b *Base) serveCommon(p *sim.Proc, proc uint32, args []byte) (body proto.Message, st rpc.Status, handled bool) {
	d := xdr.NewDecoder(args)
	switch proc {
	case proto.ProcNull:
		b.chargeCPU(p, 0)
		b.account(proc)
		return nil, rpc.StatusOK, true

	case proto.ProcGetattr:
		a := proto.DecodeHandleArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		attr, st := b.handle(a.Handle)
		return &proto.AttrReply{Status: st, Attr: b.fattr(attr)}, rpc.StatusOK, true

	case proto.ProcSetattr:
		a := proto.DecodeSetattrArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		attr, st := b.handle(a.Handle)
		if st != proto.OK {
			return &proto.AttrReply{Status: st}, rpc.StatusOK, true
		}
		store := b.media.Store()
		var err error
		if a.SetSize {
			attr, err = store.Truncate(a.Handle.Ino, a.Size)
			if err == nil {
				b.media.ChargeMeta(p)
			}
		}
		if err == nil && a.SetMode {
			attr, err = store.SetMode(a.Handle.Ino, a.Mode)
		}
		return &proto.AttrReply{Status: proto.StatusFromErr(err), Attr: b.fattr(attr)}, rpc.StatusOK, true

	case proto.ProcLookup:
		a := proto.DecodeDirOpArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		if _, st := b.handle(a.Dir); st != proto.OK {
			return &proto.HandleReply{Status: st}, rpc.StatusOK, true
		}
		attr, err := b.media.Store().Lookup(a.Dir.Ino, a.Name)
		if err != nil {
			return &proto.HandleReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true
		}
		return &proto.HandleReply{
			Status: proto.OK, Handle: b.toHandle(attr), Attr: b.fattr(attr),
		}, rpc.StatusOK, true

	case proto.ProcRead:
		a := proto.DecodeReadArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, int(a.Count))
		b.account(proc)
		attr, st := b.handle(a.Handle)
		if st != proto.OK {
			return &proto.ReadReply{Status: st}, rpc.StatusOK, true
		}
		data, err := b.media.Store().ReadAt(a.Handle.Ino, a.Offset, int(a.Count))
		if err != nil {
			return &proto.ReadReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true
		}
		if len(data) > 0 {
			b.media.ChargeRead(p, a.Handle.Ino, a.Offset, len(data))
		}
		return &proto.ReadReply{Status: proto.OK, Attr: b.fattr(attr), Data: data}, rpc.StatusOK, true

	case proto.ProcWrite:
		a := proto.DecodeWriteArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, len(a.Data))
		b.account(proc)
		if _, st := b.handle(a.Handle); st != proto.OK {
			return &proto.WriteReply{Status: st}, rpc.StatusOK, true
		}
		attr, err := b.media.Store().WriteAt(a.Handle.Ino, a.Offset, a.Data)
		if err != nil {
			return &proto.WriteReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true
		}
		if a.Unstable {
			// NFSv3-style fast path: the data lands dirty in the
			// server buffer cache and the reply goes out with no disk
			// activity. Durability waits for a COMMIT (which gathers
			// the dirty blocks into merged arm operations) and is only
			// promised under the verifier carried here.
			b.unstableWrites++
			b.media.ChargeWriteUnstable(p.Now(), a.Handle.Ino, a.Offset, len(a.Data))
			b.replWrite(a.Handle.Ino, a.Offset, len(a.Data), true)
			return &proto.WriteReply{
				Status: proto.OK, Attr: b.fattr(attr), Committed: false, Verifier: b.verifier,
			}, rpc.StatusOK, true
		}
		// The defining NFS server property: data reaches stable
		// storage before the reply (§2.1).
		b.media.ChargeWriteSync(p, a.Handle.Ino, a.Offset, len(a.Data))
		b.replWrite(a.Handle.Ino, a.Offset, len(a.Data), false)
		return &proto.WriteReply{
			Status: proto.OK, Attr: b.fattr(attr), Committed: true, Verifier: b.verifier,
		}, rpc.StatusOK, true

	case proto.ProcCommit:
		a := proto.DecodeCommitArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		if _, st := b.handle(a.Handle); st != proto.OK {
			return &proto.CommitReply{Status: st}, rpc.StatusOK, true
		}
		b.commits++
		b.committedBlocks += int64(b.media.CommitFile(p, a.Handle.Ino))
		b.replCommit(a.Handle.Ino)
		return &proto.CommitReply{Status: proto.OK, Verifier: b.verifier}, rpc.StatusOK, true

	case proto.ProcCreate:
		a := proto.DecodeCreateArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		if _, st := b.handle(a.Dir); st != proto.OK {
			return &proto.HandleReply{Status: st}, rpc.StatusOK, true
		}
		attr, err := b.media.Store().Create(a.Dir.Ino, a.Name, a.Mode)
		if err != nil {
			return &proto.HandleReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true
		}
		b.media.ChargeMeta(p)
		return &proto.HandleReply{
			Status: proto.OK, Handle: b.toHandle(attr), Attr: b.fattr(attr),
		}, rpc.StatusOK, true

	case proto.ProcRemove:
		a := proto.DecodeDirOpArgs(d)
		wantAttr := proto.DecodeWantAttr(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		reply := func(st proto.Status) proto.Message {
			if wantAttr {
				return b.wccReply(st, a.Dir)
			}
			return &proto.StatusReply{Status: st}
		}
		if _, st := b.handle(a.Dir); st != proto.OK {
			return reply(st), rpc.StatusOK, true
		}
		removed, err := b.media.Store().Remove(a.Dir.Ino, a.Name)
		if err == nil {
			b.media.ChargeMeta(p)
			if removed.Nlink <= 1 {
				// The last link died: the inode is gone, pending
				// writes are moot, and any consistency state with
				// it. (A hard-linked inode lives on under its
				// other names.)
				b.media.Cancel(removed.Ino)
				b.fileRemoved(b.toHandle(removed))
			}
		}
		return reply(proto.StatusFromErr(err)), rpc.StatusOK, true

	case proto.ProcRename:
		a := proto.DecodeRenameArgs(d)
		wantAttr := proto.DecodeWantAttr(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		reply := func(st proto.Status) proto.Message {
			if wantAttr {
				return b.wccReply(st, a.SrcDir, a.DstDir)
			}
			return &proto.StatusReply{Status: st}
		}
		if _, st := b.handle(a.SrcDir); st != proto.OK {
			return reply(st), rpc.StatusOK, true
		}
		if _, st := b.handle(a.DstDir); st != proto.OK {
			return reply(st), rpc.StatusOK, true
		}
		// If the destination exists it will be replaced; its state
		// entry (SNFS) must go.
		if old, err := b.media.Store().Lookup(a.DstDir.Ino, a.DstName); err == nil {
			defer func() {
				b.fileRemoved(b.toHandle(old))
			}()
		}
		err := b.media.Store().Rename(a.SrcDir.Ino, a.SrcName, a.DstDir.Ino, a.DstName)
		if err == nil {
			b.media.ChargeMeta(p)
		}
		return reply(proto.StatusFromErr(err)), rpc.StatusOK, true

	case proto.ProcMkdir:
		a := proto.DecodeCreateArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		if _, st := b.handle(a.Dir); st != proto.OK {
			return &proto.HandleReply{Status: st}, rpc.StatusOK, true
		}
		attr, err := b.media.Store().Mkdir(a.Dir.Ino, a.Name, a.Mode)
		if err != nil {
			return &proto.HandleReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true
		}
		b.media.ChargeMeta(p)
		return &proto.HandleReply{
			Status: proto.OK, Handle: b.toHandle(attr), Attr: b.fattr(attr),
		}, rpc.StatusOK, true

	case proto.ProcRmdir:
		a := proto.DecodeDirOpArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		if _, st := b.handle(a.Dir); st != proto.OK {
			return &proto.StatusReply{Status: st}, rpc.StatusOK, true
		}
		err := b.media.Store().Rmdir(a.Dir.Ino, a.Name)
		if err == nil {
			b.media.ChargeMeta(p)
		}
		return &proto.StatusReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true

	case proto.ProcReaddir:
		a := proto.DecodeHandleArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		if _, st := b.handle(a.Handle); st != proto.OK {
			return &proto.ReaddirReply{Status: st}, rpc.StatusOK, true
		}
		ents, err := b.media.Store().Readdir(a.Handle.Ino)
		if err != nil {
			return &proto.ReaddirReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true
		}
		out := make([]proto.DirEntry, len(ents))
		for i, e := range ents {
			out[i] = proto.DirEntry{Name: e.Name, Fileid: e.Ino}
		}
		return &proto.ReaddirReply{Status: proto.OK, Entries: out}, rpc.StatusOK, true

	case proto.ProcLookupPath:
		a := proto.DecodeLookupPathArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		dattr, st := b.handle(a.Dir)
		if st != proto.OK {
			return &proto.LookupPathReply{Status: st}, rpc.StatusOK, true
		}
		// Walk as many components as the path allows, stopping early
		// at a symbolic link: expansion is the client's job (it knows
		// the link's directory for relative targets — Parent).
		store := b.media.Store()
		parent, cur, curAttr := a.Dir, a.Dir, dattr
		resolved := uint32(0)
		for _, name := range a.Names {
			next, err := store.Lookup(cur.Ino, name)
			if err != nil {
				return &proto.LookupPathReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true
			}
			parent, cur, curAttr = cur, b.toHandle(next), next
			resolved++
			if next.Type == localfs.TypeSymlink {
				break
			}
		}
		return &proto.LookupPathReply{
			Status: proto.OK, Resolved: resolved,
			Handle: cur, Parent: parent, Attr: b.fattr(curAttr),
		}, rpc.StatusOK, true

	case proto.ProcReaddirAttrs:
		a := proto.DecodeHandleArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		if _, st := b.handle(a.Handle); st != proto.OK {
			return &proto.ReaddirAttrsReply{Status: st}, rpc.StatusOK, true
		}
		ents, err := b.media.Store().Readdir(a.Handle.Ino)
		if err != nil {
			return &proto.ReaddirAttrsReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true
		}
		out := make([]proto.DirEntryAttrs, 0, len(ents))
		for _, e := range ents {
			ea, err := b.media.Store().GetAttr(e.Ino)
			if err != nil {
				continue
			}
			out = append(out, proto.DirEntryAttrs{
				Name: e.Name, Handle: b.toHandle(ea), Attr: b.fattr(ea),
			})
		}
		return &proto.ReaddirAttrsReply{Status: proto.OK, Entries: out}, rpc.StatusOK, true

	case proto.ProcReadlink:
		a := proto.DecodeHandleArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		if _, st := b.handle(a.Handle); st != proto.OK {
			return &proto.ReadlinkReply{Status: st}, rpc.StatusOK, true
		}
		target, err := b.media.Store().Readlink(a.Handle.Ino)
		if err != nil {
			return &proto.ReadlinkReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true
		}
		return &proto.ReadlinkReply{Status: proto.OK, Target: target}, rpc.StatusOK, true

	case proto.ProcLink:
		a := proto.DecodeLinkArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		if _, st := b.handle(a.From); st != proto.OK {
			return &proto.StatusReply{Status: st}, rpc.StatusOK, true
		}
		if _, st := b.handle(a.ToDir); st != proto.OK {
			return &proto.StatusReply{Status: st}, rpc.StatusOK, true
		}
		_, err := b.media.Store().Link(a.ToDir.Ino, a.ToName, a.From.Ino)
		if err == nil {
			b.media.ChargeMeta(p)
		}
		return &proto.StatusReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true

	case proto.ProcSymlink:
		a := proto.DecodeSymlinkArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		if _, st := b.handle(a.Dir); st != proto.OK {
			return &proto.HandleReply{Status: st}, rpc.StatusOK, true
		}
		attr, err := b.media.Store().Symlink(a.Dir.Ino, a.Name, a.Target)
		if err != nil {
			return &proto.HandleReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true
		}
		b.media.ChargeMeta(p)
		return &proto.HandleReply{
			Status: proto.OK, Handle: b.toHandle(attr), Attr: b.fattr(attr),
		}, rpc.StatusOK, true

	case proto.ProcMountRoot:
		b.chargeCPU(p, 0)
		b.account(proc)
		attr, err := b.media.Store().GetAttr(b.media.Store().Root())
		if err != nil {
			return &proto.HandleReply{Status: proto.StatusFromErr(err)}, rpc.StatusOK, true
		}
		return &proto.HandleReply{
			Status: proto.OK, Handle: b.toHandle(attr), Attr: b.fattr(attr),
		}, rpc.StatusOK, true

	case proto.ProcMetrics:
		b.chargeCPU(p, 0)
		b.account(proc)
		var sb strings.Builder
		b.metrics.WriteProm(&sb)
		return &proto.MetricsReply{Status: proto.OK, Text: sb.String()}, rpc.StatusOK, true

	case proto.ProcShardMap:
		b.chargeCPU(p, 0)
		b.account(proc)
		return &proto.ShardMapReply{Status: proto.OK, Map: b.shardMap}, rpc.StatusOK, true

	case proto.ProcStatfs:
		a := proto.DecodeHandleArgs(d)
		if d.Err() != nil {
			return nil, rpc.StatusGarbage, true
		}
		b.chargeCPU(p, 0)
		b.account(proc)
		if _, st := b.handle(a.Handle); st != proto.OK {
			return &proto.StatfsReply{Status: st}, rpc.StatusOK, true
		}
		st := b.media.Store()
		return &proto.StatfsReply{
			Status:    proto.OK,
			BlockSize: uint32(st.BlockSize()),
			Blocks:    1 << 20,
			BytesUsed: st.TotalBytes(),
		}, rpc.StatusOK, true
	}
	return nil, rpc.StatusProcUnavail, false
}

// wccReply builds a remove/rename/close reply carrying post-op
// attributes for the handles that still resolve (a removed inode simply
// contributes no record — the client keeps whatever view it had).
func (b *Base) wccReply(st proto.Status, hs ...proto.Handle) *proto.WccReply {
	r := &proto.WccReply{Status: st}
	for i, h := range hs {
		if i > 0 && h == hs[0] {
			continue // same-directory rename: one record is enough
		}
		if a, err := b.media.Store().GetAttr(h.Ino); err == nil && a.Gen == h.Gen {
			r.Wcc = append(r.Wcc, proto.WccData{Handle: h, Attr: b.fattr(a)})
		}
	}
	return r
}

// fileRemoved notifies the removal hook, if any.
func (b *Base) fileRemoved(h proto.Handle) {
	if b.onRemoved != nil {
		b.onRemoved(h)
	}
}

// NFSServer is the unmodified, stateless server: the common procedures
// and nothing else — the Spritely extensions come back PROC_UNAVAIL,
// which is precisely how a hybrid client detects a plain server (§6.1).
type NFSServer struct {
	*Base
	crashed bool
}

// NewNFS creates an NFS server servicing ProgNFS on ep.
func NewNFS(k *sim.Kernel, ep *rpc.Endpoint, media *localfs.Media, cfg Config) *NFSServer {
	s := &NFSServer{Base: newBase(k, ep, media, cfg)}
	ep.RegisterMsg(proto.ProgNFS, s.serve)
	return s
}

// Crash detaches the server from the network. The stateless protocol has
// no table to lose, but the buffer cache is volatile: unstable writes
// that were never committed vanish with it.
func (s *NFSServer) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	lost := s.media.DropDirty()
	s.ep.Stop()
	s.tracer.Record("server", trace.Crash, "nfs server crash (verifier %d, %d uncommitted blocks lost)", s.verifier, lost)
	s.flight.Recordf(string(s.ep.Addr()), "crash", 0,
		"nfs server crash (verifier %d, %d uncommitted blocks lost)", s.verifier, lost)
}

// Reboot restarts a crashed server under a new write verifier. Clients
// comparing the verifier across WRITE and COMMIT replies discover the
// incarnation change and redrive any unacked-unstable data (§2.4 has no
// other recovery to do — the protocol is stateless).
func (s *NFSServer) Reboot() {
	if !s.crashed {
		return
	}
	s.crashed = false
	s.verifier++
	s.ep.Restart()
	s.tracer.Record("server", trace.Crash, "nfs server reboot (verifier %d)", s.verifier)
	s.flight.Recordf(string(s.ep.Addr()), "crash", 0, "nfs server reboot (verifier %d)", s.verifier)
}

func (s *NFSServer) serve(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) (proto.Message, rpc.Status) {
	s.recordServe(p, from, proc)
	if body, rejected := s.ownerCheck(p, proc); rejected {
		return body, rpc.StatusOK
	}
	if body, rejected := s.routeCheck(p, proc, args); rejected {
		return body, rpc.StatusOK
	}
	body, st, handled := s.serveCommon(p, proc, args)
	if !handled {
		return nil, rpc.StatusProcUnavail
	}
	return body, st
}
