// Package server implements the file servers: the stateless NFS server
// (synchronous writes, no per-client state, trivial restart) and the
// Spritely NFS server (the NFS file operations plus the state-table
// manager driving open/close/callback consistency, entry reclamation,
// hybrid NFS coexistence, and crash recovery), and the RFS server of §2.5
// between them. All three crash and reboot through Base.
//
// Every server translates RPC requests into operations on a localfs
// store/media pair — the role the Ultrix GFS + local file system played
// under the paper's NFS service code (§4.1) — and charge a simulated
// server CPU for every call, which is what the utilization plots of
// Figures 5-1/5-2 measure.
package server

import (
	"fmt"
	"strings"

	"spritelynfs/internal/core"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/trace"
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

// Base is the machinery every server shares: the NFS file procedures, the
// life cycle (Crash, Reboot and the incarnation step a promotion shares
// with a reboot) and the one callback step.
type Base struct {
	k      *sim.Kernel
	ep     *rpc.Endpoint
	media  *localfs.Media
	cpu    *sim.Resource
	cfg    Config
	served stats.Ops // the calls served, by procedure (account)
	// onRemoved, when set, observes file removals (the SNFS server
	// drops the file's state entry).
	onRemoved func(proto.Handle)
	// onReset, when set, discards the protocol's volatile state as a new
	// incarnation starts (the SNFS table, lock tables and grace window;
	// the RFS open table).
	onReset func()
	// sinks are what Attach armed, each nil (off) by default: the ring
	// the server's protocol events go to (the world's trace or the
	// host's black box), the registry METRICS reports, the spans a
	// handler's CPU charge splits into, and (SNFS only) the auditor that
	// journals callbacks and is reset with every new incarnation.
	sinks trace.Instruments
	// shardMap and shardID make the server a member of a sharded
	// cluster: namespace operations at the export root that name an
	// entry owned by another shard are refused with ErrNotHome.
	shardMap proto.ShardMap
	shardID  uint32
	// repl, when set, streams transitions/writes/commits/dup entries to
	// this shard's backup (see repl.go). Nil on standalone servers,
	// backups, and primaries without a backup.
	repl *Replicator
	// The failover milestones of a backup that took over its shard (see
	// Promote), and of the first data-plane call it then served.
	promoted, healed     bool
	promotedAt, healedAt sim.Time

	// crashed is true from Crash to Reboot. incarnation numbers the
	// server's lives: it starts at 1 and advances with every reboot and
	// promotion. It is the write verifier WRITE and COMMIT return, so a
	// client holding unstable-write acks from an earlier life sees the
	// mismatch at COMMIT and redrives the data, and the epoch ServerInfo
	// reports, so an SNFS client learns to re-register its opens (§2.4).
	crashed     bool
	incarnation uint64

	// The callback step's state (see callback): the Workers-1 permits,
	// those in use being the callbacks in flight, and how many are out to
	// each client for each file, so SNFS's hybrid path never mistakes a
	// forced write-back for plain-NFS traffic (which would deadlock on the
	// entry lock held across the callback).
	cbSem      *sim.Semaphore
	inCallback map[cbKey]int
	// unstable-pipeline counters.
	unstableWrites  int64
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

// SetSpans attaches a span recorder alone.
func (b *Base) SetSpans(r *span.Recorder) { b.Attach(trace.Instruments{Spans: r}) }

// record notes one server event in the attached ring under the
// endpoint's address. Its arguments are boxed and formatted even with no
// ring, so its callers check the ring first.
func (b *Base) record(kind trace.Kind, op uint64, format string, args ...any) {
	b.sinks.Tracer.Add(trace.Event{Host: string(b.ep.Addr()), Kind: kind, Op: op, Detail: fmt.Sprintf(format, args...)})
}

func newBase(k *sim.Kernel, ep *rpc.Endpoint, media *localfs.Media, cfg Config) *Base {
	cfg.fill()
	return &Base{
		k:           k,
		ep:          ep,
		media:       media,
		cpu:         sim.NewResource(k, string(ep.Addr())+"/cpu"),
		cfg:         cfg,
		incarnation: 1,
		cbSem:       sim.NewSemaphore(k, max(1, ep.Workers()-1)),
		inCallback:  make(map[cbKey]int),
	}
}

// Epoch returns the server's incarnation number.
func (b *Base) Epoch() uint64 { return b.incarnation }

// Crashed reports whether the server is down.
func (b *Base) Crashed() bool { return b.crashed }

// Crash takes the server down, whatever its protocol: the endpoint stops
// answering, and the buffer cache dies with the machine, so unstable
// writes no COMMIT has made durable are gone (the new verifier at reboot
// is how their writers find out). The protocol's own volatile state goes
// when the next incarnation starts.
func (b *Base) Crash() {
	if b.crashed {
		return
	}
	b.crashed = true
	lost := b.media.DropDirty()
	if b.sinks.Tracer != nil {
		b.record(trace.Crash, 0, "server crash (epoch %d)", b.incarnation)
		if lost > 0 {
			b.record(trace.Crash, 0, "crash dropped %d uncommitted dirty blocks", lost)
		}
	}
	b.ep.Stop()
}

// Reboot restarts a crashed server as its next incarnation: NFS has
// nothing more to recover, an SNFS server rebuilds its table from client
// reopens during its grace window (§2.4), and RFS clients simply reopen
// (their version check refetches what changed).
func (b *Base) Reboot() {
	if !b.crashed {
		return
	}
	b.crashed = false
	b.newIncarnation(0)
	b.ep.Restart()
	if b.sinks.Tracer != nil {
		b.record(trace.Crash, 0, "server reboot (epoch %d)", b.incarnation)
	}
}

// newIncarnation starts the server's next life, numbered past its own and
// past floor (a promoted backup's is its primary's): the protocol's
// volatile state is reset, and the auditor's shadow of it.
func (b *Base) newIncarnation(floor uint64) {
	b.incarnation = max(b.incarnation, floor) + 1
	if b.onReset != nil {
		b.onReset()
	}
	b.sinks.Auditor.ServerRebooted()
}

// cbKey names one client's copy of one file.
type cbKey struct {
	h proto.Handle
	c core.ClientID
}

// callback sends one callback RPC and waits for the client's answer,
// which comes after any write-backs it forces. At most Workers-1
// callbacks are out at once, the paper's rule against deadlock: a
// callback holds a worker until the client's write-backs complete, and
// those are WRITE calls that need a free worker of their own. The retry
// budget is tight: a callback to a dead client must fail before the call
// that triggered it times out at its own client (§3.2: the caller retries
// harmlessly, but must not give up first).
func (b *Base) callback(p *sim.Proc, cb core.Callback) error {
	b.cbSem.Acquire(p)
	defer b.cbSem.Release()
	if b.sinks.Tracer != nil {
		b.record(trace.Callback, p.Op(), "-> %s %s writeback=%v invalidate=%v",
			cb.Client, cb.Handle, cb.WriteBack, cb.Invalidate)
	}
	if b.sinks.Auditor != nil {
		b.sinks.Auditor.NoteEvent(p.Op(), "callback", cb.Handle, string(cb.Client),
			fmt.Sprintf("writeback=%v invalidate=%v", cb.WriteBack, cb.Invalidate))
	}
	k := cbKey{cb.Handle, cb.Client}
	b.inCallback[k]++
	defer func() {
		b.inCallback[k]--
		if b.inCallback[k] == 0 {
			delete(b.inCallback, k)
		}
	}()
	args := proto.CallbackArgs{Handle: cb.Handle, WriteBack: cb.WriteBack, Invalidate: cb.Invalidate}
	var r proto.StatusReply
	if err := b.ep.CallXDREx(p, simnet.Addr(cb.Client), proto.ProgCallback, 1, proto.CbProcCallback, args.XDR, r.XDR,
		sim.Second, 2); err != nil {
		return err
	}
	if r.Status != proto.OK {
		return fmt.Errorf("callback to %s: %s", cb.Client, r.Status)
	}
	return nil
}

// Attach arms the server and its endpoint with the non-nil sinks of in:
// a ring records crashes, reboots, callbacks and failover milestones
// under the endpoint's address (served calls are the endpoint's to
// record); spans split each handler's CPU charge into cpu-queue/cpu spans
// of the serving call's trace; a registry gets the endpoint's
// per-procedure serve latency and the server's CPU, disk and call gauges.
// SNFSServer.Attach adds its state table's consumers.
func (b *Base) Attach(in trace.Instruments) {
	b.ep.Attach(in)
	trace.Arm(&b.sinks, in)
	r := in.Metrics
	if r == nil {
		return
	}
	host := string(b.ep.Addr())
	// The busy-seconds gauges count service up to now: a resource's
	// BusyTime already holds its queued backlog, whose rate over a window
	// in which a queue forms would read above 1.0.
	r.GaugeFunc(metrics.Label("snfs_server_cpu_busy_seconds", "host", host),
		func() float64 { return (b.cpu.BusyTime() - b.cpu.Backlog()).Seconds() })
	r.GaugeFunc(metrics.Label("snfs_server_cpu_utilization", "host", host),
		func() float64 { return b.cpu.Utilization() })
	r.GaugeFunc(metrics.Label("snfs_server_disk_utilization", "host", host),
		func() float64 { return b.media.Disk().Utilization() })
	// Cumulative arm busy time: the tsdb sampler differentiates a
	// _seconds gauge into a windowed rate, which for this one reads
	// directly as disk-busy fraction over the window.
	r.GaugeFunc(metrics.Label("snfs_server_disk_busy_seconds", "host", host),
		func() float64 {
			d := b.media.Disk()
			return (d.BusyTime() - d.Backlog()).Seconds()
		})
	// Served calls by procedure, as account counts them: their rates are
	// the call, read and write rows of Figures 5-1/5-2.
	for proc := range uint32(stats.Callback) {
		if info, ok := proto.LookupProc(proto.ProgNFS, proc); ok {
			r.GaugeFunc(metrics.Label("snfs_server_calls_total", "host", host, "proc", info.Name),
				func() float64 { return float64(b.served[proc]) })
		}
	}
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
		func() float64 { return float64(b.served[proto.ProcCommit]) })
	r.GaugeFunc(metrics.Label("snfs_server_committed_blocks_total", "host", host),
		func() float64 { return float64(b.committedBlocks) })
	r.Help("snfs_server_cpu_busy_seconds", "Cumulative server CPU busy time in seconds.")
	r.Help("snfs_server_cpu_utilization", "Server CPU busy fraction since start.")
	r.Help("snfs_server_disk_utilization", "Server disk arm busy fraction since start.")
	r.Help("snfs_server_disk_busy_seconds", "Cumulative server disk arm busy time in seconds.")
	r.Help("snfs_server_calls_total", "Calls served, by procedure.")
	r.Help("snfs_server_disk_queue_delay_seconds", "Cumulative time requests spent queued for the disk arm.")
	r.Help("snfs_server_disk_gather_ratio", "Block writes carried per arm operation (1.0 = no gathering).")
	r.Help("snfs_server_unstable_writes_total", "WRITE calls acknowledged unstable (not yet durable).")
	r.Help("snfs_server_commits_total", "COMMIT calls served.")
	r.Help("snfs_server_committed_blocks_total", "Blocks made durable by COMMIT.")
}

// Ops returns the server-side operation counters: the calls served, and
// the callbacks its endpoint sent.
func (b *Base) Ops() *stats.Ops {
	o := b.served
	o[stats.Callback] = b.ep.Sent()[stats.Callback]
	return &o
}

// CPU returns the server CPU resource (for utilization).
func (b *Base) CPU() *sim.Resource { return b.cpu }

// Endpoint returns the server's RPC endpoint.
func (b *Base) Endpoint() *rpc.Endpoint { return b.ep }

// account occupies the server CPU for one served call's compute cost,
// then counts the call: a call is counted when its CPU charge completes.
func (b *Base) account(p *sim.Proc, proc uint32, dataBytes int) {
	cost := b.cfg.CPUPerOp + sim.Duration(int64(b.cfg.CPUPerKB)*int64(dataBytes)/1024)
	t0 := b.k.Now()
	qd := b.cpu.Use(p, cost)
	if b.sinks.Spans != nil {
		host := string(b.ep.Addr())
		b.sinks.Spans.Add(p, host, span.CPUQueue, "cpu", t0, t0.Add(qd))
		b.sinks.Spans.Add(p, host, span.CPU, "cpu", t0.Add(qd), b.k.Now())
	}
	b.served.Inc(proto.ProgNFS, proc)
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

// procSet is a set of ProgNFS procedure numbers.
type procSet uint64

func procsOf(procs ...uint32) (s procSet) {
	for _, proc := range procs {
		s |= 1 << proc
	}
	return s
}

func (s procSet) has(proc uint32) bool { return proc < 64 && s&(1<<proc) != 0 }

// commonProcs are the procedures serveCommon executes: all a plain NFS
// server implements, and what every other server builds on.
var commonProcs = procsOf(proto.ProcNull, proto.ProcGetattr, proto.ProcSetattr,
	proto.ProcLookup, proto.ProcReadlink, proto.ProcRead, proto.ProcWrite,
	proto.ProcCreate, proto.ProcRemove, proto.ProcRename, proto.ProcLink,
	proto.ProcSymlink, proto.ProcMkdir, proto.ProcRmdir, proto.ProcReaddir,
	proto.ProcStatfs, proto.ProcMountRoot, proto.ProcMetrics, proto.ProcShardMap,
	proto.ProcCommit, proto.ProcLookupPath, proto.ProcReaddirAttrs)

// admit takes a call through the steps every server shares, in order: a
// procedure outside serves is refused PROC_UNAVAIL, free of charge; the
// owner guard; the one decode of the arguments into a; the route guard;
// and, for a guard's refusal or a procedure serveCommon does not execute,
// the call's CPU charge and count. done reports that the call ends here,
// answered body and st.
func (b *Base) admit(p *sim.Proc, from simnet.Addr, proc uint32, args, tail []byte, serves procSet, a *callArgs) (body rpc.Reply, st rpc.Status, done bool) {
	if !serves.has(proc) {
		return rpc.Reply{}, rpc.StatusProcUnavail, true
	}
	if body, done = b.ownerCheck(from, proc); !done {
		if st := a.decode(proc, args, tail); st != rpc.StatusOK {
			return rpc.Reply{}, st, true
		}
		body, done = b.routeCheck(proc, a)
	}
	if done || !commonProcs.has(proc) {
		b.account(p, proc, 0)
	}
	return body, rpc.StatusOK, done
}

// callArgs is a call's arguments, decoded once, in admit: the field of its
// procedure's argument type is filled, and every other field stays zero.
type callArgs struct {
	file       proto.HandleArgs // getattr, readdir, readdirattrs, readlink, statfs
	setattr    proto.SetattrArgs
	dirOp      proto.DirOpArgs // lookup, remove, rmdir
	read       proto.ReadArgs
	write      proto.WriteArgs
	commit     proto.CommitArgs
	create     proto.CreateArgs // create, mkdir
	rename     proto.RenameArgs
	path       proto.LookupPathArgs
	link       proto.LinkArgs
	symlink    proto.SymlinkArgs
	open       proto.OpenArgs
	close      proto.CloseArgs
	reopen     proto.ReopenArgs
	replStream proto.ReplStreamArgs
	replSync   proto.ReplSyncArgs
}

// decode fills a from proc's arguments, args‖tail, and answers
// GARBAGE_ARGS for arguments that do not decode. A procedure that takes
// none reads nothing. A WRITE's data is the call's tail, when it came as
// one: the client's frozen cache block, which the store keeps as the
// file's page.
func (a *callArgs) decode(proc uint32, args, tail []byte) rpc.Status {
	var d xdr.Decoder
	d.ResetTail(args, tail)
	c := d.Codec()
	switch proc {
	case proto.ProcGetattr, proto.ProcReaddir, proto.ProcReaddirAttrs, proto.ProcReadlink, proto.ProcStatfs:
		a.file.XDR(c)
	case proto.ProcSetattr:
		a.setattr.XDR(c)
	case proto.ProcLookup, proto.ProcRemove, proto.ProcRmdir:
		a.dirOp.XDR(c)
	case proto.ProcRead:
		a.read.XDR(c)
	case proto.ProcWrite:
		a.write.XDR(c)
	case proto.ProcCommit:
		a.commit.XDR(c)
	case proto.ProcCreate, proto.ProcMkdir:
		a.create.XDR(c)
	case proto.ProcRename:
		a.rename.XDR(c)
	case proto.ProcLookupPath:
		a.path.XDR(c)
	case proto.ProcLink:
		a.link.XDR(c)
	case proto.ProcSymlink:
		a.symlink.XDR(c)
	case proto.ProcOpen:
		a.open.XDR(c)
	case proto.ProcClose:
		a.close.XDR(c)
	case proto.ProcReopen:
		a.reopen.XDR(c)
	case proto.ProcReplStream:
		a.replStream.XDR(c)
	case proto.ProcReplSync:
		a.replSync.XDR(c)
	}
	if c.Err() != nil {
		return rpc.StatusGarbage
	}
	return rpc.StatusOK
}

// dirName is one (directory handle, entry name) pair a namespace
// operation touches.
type dirName struct {
	dir  proto.Handle
	name string
}

// dirNames returns the (directory, name) pairs a namespace call names:
// two for a rename, one for the other namespace procedures, none for the
// rest.
func (a *callArgs) dirNames(proc uint32) (names [2]dirName, n int) {
	switch proc {
	case proto.ProcLookup, proto.ProcRemove, proto.ProcRmdir:
		names[0] = dirName{a.dirOp.Dir, a.dirOp.Name}
	case proto.ProcCreate, proto.ProcMkdir:
		names[0] = dirName{a.create.Dir, a.create.Name}
	case proto.ProcSymlink:
		names[0] = dirName{a.symlink.Dir, a.symlink.Name}
	case proto.ProcLink:
		names[0] = dirName{a.link.ToDir, a.link.ToName}
	case proto.ProcRename:
		names = [2]dirName{{a.rename.SrcDir, a.rename.SrcName}, {a.rename.DstDir, a.rename.DstName}}
		return names, 2
	case proto.ProcLookupPath:
		if len(a.path.Names) == 0 {
			return names, 0
		}
		// Only the first component can be a root-level name; the rest
		// resolve under handles this shard already owns.
		names[0] = dirName{a.path.Dir, a.path.Names[0]}
	default:
		return names, 0
	}
	return names, 1
}

// routeCheck is the shard route guard: when the server is part of a
// cluster, a namespace operation on the export root naming an entry
// homed on another shard is refused with ErrNotHome before it can touch
// the store. Only root-level names need checking — shard prefixes are
// single root components (proto.ShardMap), and anything deeper is
// reached through handles that exist only on the owning shard (a
// migrated subtree's old handles answer ErrStale, sending the client
// back through a guarded lookup).
func (b *Base) routeCheck(proc uint32, a *callArgs) (rpc.Reply, bool) {
	if b.shardMap.IsZero() {
		return rpc.Reply{}, false
	}
	names, n := a.dirNames(proc)
	root := b.media.Store().Root()
	for _, nm := range names[:n] {
		if nm.dir.FSID != b.cfg.FSID || nm.dir.Ino != root {
			continue
		}
		if b.shardMap.Owner(nm.name) != b.shardID {
			return notHomeReply(proc), true
		}
	}
	return rpc.Reply{}, false
}

// notHomeReply encodes the proc's reply shape carrying ErrNotHome.
func notHomeReply(proc uint32) rpc.Reply {
	switch proc {
	case proto.ProcLookup, proto.ProcCreate, proto.ProcMkdir, proto.ProcSymlink:
		return rpc.Encode((&proto.HandleReply{Status: proto.ErrNotHome}).XDR)
	case proto.ProcLookupPath:
		return rpc.Encode((&proto.LookupPathReply{Status: proto.ErrNotHome}).XDR)
	case proto.ProcOpen, proto.ProcReopen:
		return rpc.Encode((&proto.OpenReply{Status: proto.ErrNotHome}).XDR)
	default: // remove, rmdir, rename, link, and the status-first data procs
		return rpc.Encode((&proto.StatusReply{Status: proto.ErrNotHome}).XDR)
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
// caller refetches the map and heals onto the real primary. Control-plane
// procedures pass: they are how the map gets refetched and how the
// replication stream keeps flowing. A data-plane call the owner serves is
// the heal stamp's.
func (b *Base) ownerCheck(from simnet.Addr, proc uint32) (rpc.Reply, bool) {
	if info, _ := proto.LookupProc(proto.ProgNFS, proc); info.Control {
		return rpc.Reply{}, false
	}
	if !b.isOwner() {
		return notHomeReply(proc), true
	}
	b.noteHealed(from, proc)
	return rpc.Reply{}, false
}

// noteHealed stamps the first data-plane call a promoted primary serves.
func (b *Base) noteHealed(from simnet.Addr, proc uint32) {
	if !b.promoted || b.healed {
		return
	}
	b.healed, b.healedAt = true, b.k.Now()
	if b.sinks.Tracer != nil {
		b.record(trace.Crash, 0, "healed: first %s from %s after promotion", proto.ProcName(proto.ProgNFS, proc), from)
	}
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

// reply is a handler's successful answer: its body encoded at once, in
// the handler's frame, through the XDR method value of a message that
// therefore stays on the stack, as in reply((&proto.AttrReply{…}).XDR).
func reply(body func(xdr.Codec)) (rpc.Reply, rpc.Status) { return rpc.Encode(body), rpc.StatusOK }

// serveCommon executes one of the NFS file procedures every server
// shares, on arguments decode accepted. Each reply is encoded where it is
// returned, so what a READ reply holds by reference is the page as read.
func (b *Base) serveCommon(p *sim.Proc, proc uint32, a *callArgs) (rpc.Reply, rpc.Status) {
	// The CPU charge scales with the data a READ or WRITE moves; every
	// other call leaves both fields zero.
	b.account(p, proc, int(a.read.Count)+len(a.write.Data))
	switch proc {
	case proto.ProcNull:
		return rpc.Reply{}, rpc.StatusOK

	case proto.ProcGetattr:
		attr, st := b.handle(a.file.Handle)
		return reply((&proto.AttrReply{Status: st, Attr: b.fattr(attr)}).XDR)

	case proto.ProcSetattr:
		attr, st := b.handle(a.setattr.Handle)
		if st != proto.OK {
			return reply((&proto.AttrReply{Status: st}).XDR)
		}
		store := b.media.Store()
		var err error
		if a.setattr.SetSize {
			attr, err = store.Truncate(a.setattr.Handle.Ino, a.setattr.Size)
			if err == nil {
				b.media.ChargeMeta(p)
			}
		}
		if err == nil && a.setattr.SetMode {
			attr, err = store.SetMode(a.setattr.Handle.Ino, a.setattr.Mode)
		}
		return reply((&proto.AttrReply{Status: proto.StatusFromErr(err), Attr: b.fattr(attr)}).XDR)

	case proto.ProcLookup:
		if _, st := b.handle(a.dirOp.Dir); st != proto.OK {
			return reply((&proto.HandleReply{Status: st}).XDR)
		}
		attr, err := b.media.Store().Lookup(a.dirOp.Dir.Ino, a.dirOp.Name)
		if err != nil {
			return reply((&proto.HandleReply{Status: proto.StatusFromErr(err)}).XDR)
		}
		return reply((&proto.HandleReply{
			Status: proto.OK, Handle: b.toHandle(attr), Attr: b.fattr(attr),
		}).XDR)

	case proto.ProcRead:
		attr, st := b.handle(a.read.Handle)
		if st != proto.OK {
			return reply((&proto.ReadReply{Status: st}).XDR)
		}
		// data is a view of the file, frozen: a later write copies the
		// page, so the reply's tail is this page as it was read.
		data, err := b.media.ReadAt(p, a.read.Handle.Ino, a.read.Offset, int(a.read.Count))
		if err != nil {
			return reply((&proto.ReadReply{Status: proto.StatusFromErr(err)}).XDR)
		}
		return reply((&proto.ReadReply{Status: proto.OK, Attr: b.fattr(attr), Data: data}).XDR)

	case proto.ProcWrite:
		if _, st := b.handle(a.write.Handle); st != proto.OK {
			return reply((&proto.WriteReply{Status: st}).XDR)
		}
		// a.write.Data is a view of the frozen call image: the store keeps a
		// whole page of it as the file's page, with no copy.
		attr, err := b.media.Store().WriteFrozen(a.write.Handle.Ino, a.write.Offset, a.write.Data)
		if err != nil {
			return reply((&proto.WriteReply{Status: proto.StatusFromErr(err)}).XDR)
		}
		if a.write.Unstable {
			// NFSv3-style fast path: the data lands dirty in the
			// server buffer cache and the reply goes out with no disk
			// activity. Durability waits for a COMMIT (which gathers
			// the dirty blocks into merged arm operations) and is only
			// promised under the verifier carried here.
			b.unstableWrites++
			b.media.ChargeWriteUnstable(p.Now(), a.write.Handle.Ino, a.write.Offset, len(a.write.Data))
			b.replWrite(a.write.Handle.Ino, a.write.Offset, len(a.write.Data), true)
			return reply((&proto.WriteReply{
				Status: proto.OK, Attr: b.fattr(attr), Committed: false, Verifier: b.incarnation,
			}).XDR)
		}
		// The defining NFS server property: data reaches stable
		// storage before the reply (§2.1).
		b.media.ChargeWriteSync(p, a.write.Handle.Ino, a.write.Offset, len(a.write.Data))
		b.replWrite(a.write.Handle.Ino, a.write.Offset, len(a.write.Data), false)
		return reply((&proto.WriteReply{
			Status: proto.OK, Attr: b.fattr(attr), Committed: true, Verifier: b.incarnation,
		}).XDR)

	case proto.ProcCommit:
		if _, st := b.handle(a.commit.Handle); st != proto.OK {
			return reply((&proto.CommitReply{Status: st}).XDR)
		}
		b.committedBlocks += int64(b.media.CommitFile(p, a.commit.Handle.Ino))
		b.replCommit(a.commit.Handle.Ino)
		return reply((&proto.CommitReply{Status: proto.OK, Verifier: b.incarnation}).XDR)

	case proto.ProcCreate:
		if _, st := b.handle(a.create.Dir); st != proto.OK {
			return reply((&proto.HandleReply{Status: st}).XDR)
		}
		attr, err := b.media.Store().Create(a.create.Dir.Ino, a.create.Name, a.create.Mode)
		if err != nil {
			return reply((&proto.HandleReply{Status: proto.StatusFromErr(err)}).XDR)
		}
		b.media.ChargeMeta(p)
		return reply((&proto.HandleReply{
			Status: proto.OK, Handle: b.toHandle(attr), Attr: b.fattr(attr),
		}).XDR)

	case proto.ProcRemove:
		answer := func(st proto.Status) (rpc.Reply, rpc.Status) {
			if a.dirOp.WantAttr {
				return b.wccReply(st, a.dirOp.Dir), rpc.StatusOK
			}
			return reply((&proto.StatusReply{Status: st}).XDR)
		}
		if _, st := b.handle(a.dirOp.Dir); st != proto.OK {
			return answer(st)
		}
		removed, err := b.media.Store().Remove(a.dirOp.Dir.Ino, a.dirOp.Name)
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
		return answer(proto.StatusFromErr(err))

	case proto.ProcRename:
		answer := func(st proto.Status) (rpc.Reply, rpc.Status) {
			if a.rename.WantAttr {
				return b.wccReply(st, a.rename.SrcDir, a.rename.DstDir), rpc.StatusOK
			}
			return reply((&proto.StatusReply{Status: st}).XDR)
		}
		if _, st := b.handle(a.rename.SrcDir); st != proto.OK {
			return answer(st)
		}
		if _, st := b.handle(a.rename.DstDir); st != proto.OK {
			return answer(st)
		}
		// A destination the rename replaced loses its state entry
		// (SNFS), after the reply is encoded; one a failed rename left
		// keeps it.
		old, lookErr := b.media.Store().Lookup(a.rename.DstDir.Ino, a.rename.DstName)
		err := b.media.Store().Rename(a.rename.SrcDir.Ino, a.rename.SrcName, a.rename.DstDir.Ino, a.rename.DstName)
		if err == nil {
			b.media.ChargeMeta(p)
			if lookErr == nil {
				defer b.fileRemoved(b.toHandle(old))
			}
		}
		return answer(proto.StatusFromErr(err))

	case proto.ProcMkdir:
		if _, st := b.handle(a.create.Dir); st != proto.OK {
			return reply((&proto.HandleReply{Status: st}).XDR)
		}
		attr, err := b.media.Store().Mkdir(a.create.Dir.Ino, a.create.Name, a.create.Mode)
		if err != nil {
			return reply((&proto.HandleReply{Status: proto.StatusFromErr(err)}).XDR)
		}
		b.media.ChargeMeta(p)
		return reply((&proto.HandleReply{
			Status: proto.OK, Handle: b.toHandle(attr), Attr: b.fattr(attr),
		}).XDR)

	case proto.ProcRmdir:
		if _, st := b.handle(a.dirOp.Dir); st != proto.OK {
			return reply((&proto.StatusReply{Status: st}).XDR)
		}
		err := b.media.Store().Rmdir(a.dirOp.Dir.Ino, a.dirOp.Name)
		if err == nil {
			b.media.ChargeMeta(p)
		}
		return reply((&proto.StatusReply{Status: proto.StatusFromErr(err)}).XDR)

	case proto.ProcReaddir:
		if _, st := b.handle(a.file.Handle); st != proto.OK {
			return reply((&proto.ReaddirReply{Status: st}).XDR)
		}
		ents, err := b.media.Store().Readdir(a.file.Handle.Ino)
		if err != nil {
			return reply((&proto.ReaddirReply{Status: proto.StatusFromErr(err)}).XDR)
		}
		out := make([]proto.DirEntry, len(ents))
		for i, e := range ents {
			out[i] = proto.DirEntry{Name: e.Name, Fileid: e.Ino}
		}
		return reply((&proto.ReaddirReply{Status: proto.OK, Entries: out}).XDR)

	case proto.ProcLookupPath:
		dattr, st := b.handle(a.path.Dir)
		if st != proto.OK {
			return reply((&proto.LookupPathReply{Status: st}).XDR)
		}
		// Walk as many components as the path allows, stopping early
		// at a symbolic link: expansion is the client's job (it knows
		// the link's directory for relative targets — Parent).
		store := b.media.Store()
		parent, cur, curAttr := a.path.Dir, a.path.Dir, dattr
		resolved := uint32(0)
		for _, name := range a.path.Names {
			next, err := store.Lookup(cur.Ino, name)
			if err != nil {
				return reply((&proto.LookupPathReply{Status: proto.StatusFromErr(err)}).XDR)
			}
			parent, cur, curAttr = cur, b.toHandle(next), next
			resolved++
			if next.Type == localfs.TypeSymlink {
				break
			}
		}
		return reply((&proto.LookupPathReply{
			Status: proto.OK, Resolved: resolved,
			Handle: cur, Parent: parent, Attr: b.fattr(curAttr),
		}).XDR)

	case proto.ProcReaddirAttrs:
		if _, st := b.handle(a.file.Handle); st != proto.OK {
			return reply((&proto.ReaddirAttrsReply{Status: st}).XDR)
		}
		ents, err := b.media.Store().Readdir(a.file.Handle.Ino)
		if err != nil {
			return reply((&proto.ReaddirAttrsReply{Status: proto.StatusFromErr(err)}).XDR)
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
		return reply((&proto.ReaddirAttrsReply{Status: proto.OK, Entries: out}).XDR)

	case proto.ProcReadlink:
		if _, st := b.handle(a.file.Handle); st != proto.OK {
			return reply((&proto.ReadlinkReply{Status: st}).XDR)
		}
		target, err := b.media.Store().Readlink(a.file.Handle.Ino)
		if err != nil {
			return reply((&proto.ReadlinkReply{Status: proto.StatusFromErr(err)}).XDR)
		}
		return reply((&proto.ReadlinkReply{Status: proto.OK, Target: target}).XDR)

	case proto.ProcLink:
		if _, st := b.handle(a.link.From); st != proto.OK {
			return reply((&proto.StatusReply{Status: st}).XDR)
		}
		if _, st := b.handle(a.link.ToDir); st != proto.OK {
			return reply((&proto.StatusReply{Status: st}).XDR)
		}
		_, err := b.media.Store().Link(a.link.ToDir.Ino, a.link.ToName, a.link.From.Ino)
		if err == nil {
			b.media.ChargeMeta(p)
		}
		return reply((&proto.StatusReply{Status: proto.StatusFromErr(err)}).XDR)

	case proto.ProcSymlink:
		if _, st := b.handle(a.symlink.Dir); st != proto.OK {
			return reply((&proto.HandleReply{Status: st}).XDR)
		}
		attr, err := b.media.Store().Symlink(a.symlink.Dir.Ino, a.symlink.Name, a.symlink.Target)
		if err != nil {
			return reply((&proto.HandleReply{Status: proto.StatusFromErr(err)}).XDR)
		}
		b.media.ChargeMeta(p)
		return reply((&proto.HandleReply{
			Status: proto.OK, Handle: b.toHandle(attr), Attr: b.fattr(attr),
		}).XDR)

	case proto.ProcMountRoot:
		attr, err := b.media.Store().GetAttr(b.media.Store().Root())
		if err != nil {
			return reply((&proto.HandleReply{Status: proto.StatusFromErr(err)}).XDR)
		}
		return reply((&proto.HandleReply{
			Status: proto.OK, Handle: b.toHandle(attr), Attr: b.fattr(attr),
		}).XDR)

	case proto.ProcMetrics:
		var sb strings.Builder
		b.sinks.Metrics.WriteProm(&sb)
		return reply((&proto.MetricsReply{Status: proto.OK, Text: sb.String()}).XDR)

	case proto.ProcShardMap:
		return reply((&proto.ShardMapReply{Status: proto.OK, Map: b.shardMap}).XDR)

	case proto.ProcStatfs:
		if _, st := b.handle(a.file.Handle); st != proto.OK {
			return reply((&proto.StatfsReply{Status: st}).XDR)
		}
		st := b.media.Store()
		return reply((&proto.StatfsReply{
			Status:    proto.OK,
			BlockSize: uint32(st.BlockSize()),
			Blocks:    1 << 20,
			BytesUsed: st.TotalBytes(),
		}).XDR)
	}
	return rpc.Reply{}, rpc.StatusProcUnavail // admit passes only commonProcs here
}

// wccReply encodes a remove/rename/close reply carrying post-op
// attributes for the handles that still resolve (a removed inode simply
// contributes no record — the client keeps whatever view it had).
func (b *Base) wccReply(st proto.Status, hs ...proto.Handle) rpc.Reply {
	r := proto.WccReply{Status: st}
	for i, h := range hs {
		if i > 0 && h == hs[0] {
			continue // same-directory rename: one record is enough
		}
		if a, err := b.media.Store().GetAttr(h.Ino); err == nil && a.Gen == h.Gen {
			r.Wcc = append(r.Wcc, proto.WccData{Handle: h, Attr: b.fattr(a)})
		}
	}
	return rpc.Encode(r.XDR)
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
}

// NewNFS creates an NFS server servicing ProgNFS on ep.
func NewNFS(k *sim.Kernel, ep *rpc.Endpoint, media *localfs.Media, cfg Config) *NFSServer {
	s := &NFSServer{Base: newBase(k, ep, media, cfg)}
	ep.Serve(proto.ProgNFS, s.serve)
	return s
}

func (s *NFSServer) serve(p *sim.Proc, from simnet.Addr, proc uint32, args, tail []byte) (rpc.Reply, rpc.Status) {
	var a callArgs
	if body, st, done := s.admit(p, from, proc, args, tail, commonProcs, &a); done {
		return body, st
	}
	return s.serveCommon(p, proc, &a)
}
