// Package client implements the client file systems the paper compares.
// Base is the one client file system — name translation, the namespace
// operations, the open path (Open, Readdir and the one open-file type),
// the block cache and both write pipelines. Each protocol adds only its
// consistency policy. Inside the shared operations that is a field its
// constructor sets once (tracksOpens, delaysWrites, eagerTail,
// delayedClose, invalidateOnClose); the rest — its part of the callback
// service, its daemons, recovery and the name cache — lives in its own
// file. The three policies:
//
//   - NFSClient: the Ultrix-vintage reference-port behaviour — periodic
//     attribute probes (adaptive 3–150 s), a getattr consistency check on
//     every open, write-through via asynchronous block I/O daemons with a
//     synchronous flush on close, partial-block write delay, and
//     (optionally, as the measured version did) cache invalidation on
//     close.
//
//   - SNFSClient: the Spritely client — open/close RPCs driving the
//     server's state table, version-validated caching across closes,
//     delayed write-back with a periodic update daemon, cancellation of
//     delayed writes when files are deleted, direct-to-server access for
//     uncachable (write-shared) files, callback service, and the §6.2
//     delayed-close extension plus crash recovery as options.
//
//   - RFSClient: the §2.5 comparison point — SNFS's open/close RPCs and
//     version validation with NFS's write-through, kept consistent by
//     the server's invalidate-on-write callbacks.
//
// All implement vfs.FS, so workloads run identically over any of them.
// Every vfs.FS and vfs.File entry point begins with Base.syscall, which
// mints one causal op ID (sim.Proc.BeginOp) and roots the syscall's span
// tree under it, so each syscall is one chain in traces, spans and the
// audit journal.
package client

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"slices"

	"spritelynfs/internal/cache"
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
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/xdr"
)

// Config holds client parameters shared by all protocols.
type Config struct {
	// Server is the file server's network address.
	Server simnet.Addr
	// Root is the exported root handle (what the mount protocol would
	// return).
	Root proto.Handle
	// BlockSize is the transfer and caching granularity (the paper's
	// tests used 4 kbytes).
	BlockSize int
	// CacheBytes bounds the client block cache (the paper's client had
	// about 16 Mbytes).
	CacheBytes int64
	// Biods is the number of asynchronous block-I/O daemons (write-
	// behind and read-ahead concurrency). Zero means 4.
	Biods int
	// ReadAhead enables one-block read-ahead on cache misses.
	ReadAhead bool
	// UnstableWrites enables the NFSv3-style write pipeline: block
	// write-backs go out with WriteArgs.Unstable set (the server
	// buffers them with no disk op) and close/sync send one COMMIT that
	// gathers the file's blocks into merged disk operations. The client
	// keeps a copy of every unacked-unstable block and redrives it with
	// stable writes when the COMMIT verifier shows the server rebooted.
	UnstableWrites bool
	// AttrExtensions arms the post-1989 attribute extensions together.
	// Piggybacking: remove, rename, and close requests carry the
	// want-attr flag and their replies' post-op attributes — plus the
	// attributes lookup and read replies already carry, and a
	// READDIRPLUS-style listing — feed the attribute cache instead of
	// being discarded. The compound path walk: multi-component
	// resolutions go through one ProcLookupPath call instead of a
	// per-component lookup chain. Off by default: the vintage clients
	// ignore those attributes, and the paper-fidelity tables depend on
	// the resulting RPC mix.
	AttrExtensions bool
}

func (c *Config) fill() {
	if c.BlockSize == 0 {
		c.BlockSize = 4096
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 16 << 20
	}
	if c.Biods == 0 {
		c.Biods = 4
	}
}

// node is the client's in-memory record for one remote file — the gnode
// of the paper's implementation (§4.2), holding cached attributes and the
// consistency fields.
type node struct {
	h    proto.Handle
	attr proto.Fattr
	// attrTime is when attr was last fetched from the server (drives
	// the NFS probe policy).
	attrTime sim.Time
	attrInit bool
	// size is the client's view of the file length, including local
	// writes not yet at the server.
	size int64
	// opens counts local opens (so invalidation on close happens at
	// the right moment).
	opens int
	// pending tracks in-flight asynchronous write-throughs (NFS).
	pending sim.WaitGroup
	// werr records the first asynchronous write error, surfaced at the
	// next close or sync.
	werr error
	// unstable holds a copy of every block sent with Unstable set and
	// not yet covered by a successful COMMIT, keyed by file offset. The
	// copies are the redrive source if the server reboots: its reply
	// verifier (recorded in unstableVerifier at first ack) no longer
	// matches and the buffered data died with its cache.
	unstable         map[int64][]byte
	unstableVerifier uint64
	// rec is the SNFS consistency record.
	rec core.FileRecord
}

// Base is the client file system all three protocols share. It carries no
// protocol identity: what a protocol adds inside a shared operation is a
// field its constructor sets once.
type Base struct {
	k     *sim.Kernel
	ep    *rpc.Endpoint
	cfg   Config
	cache *cache.Cache
	nodes map[uint64]*node
	biods *sim.Semaphore
	// fetching tracks blocks with an RPC in flight (read-ahead or a
	// concurrent reader), so a second reader waits for the existing
	// fetch instead of duplicating it — the "buffer busy" state of the
	// Unix buffer cache. A key maps to nil until a second reader waits:
	// the signal is made then, by that reader.
	fetching map[cache.Key]*sim.Signal
	// lastDirPath/lastDir are a one-entry directory cache modelling
	// the process's current directory: path walks re-resolving the
	// directory just used skip its lookups, as namei starting from
	// u.u_cdir did. (Neither protocol caches name translations beyond
	// this by default — the paper's vintage didn't, and notes lookups
	// are roughly half of all calls.) A path hits when its components
	// equal lastDirPath's (vfs.SamePath).
	lastDirPath  string
	lastDir      proto.Handle
	lastDirValid bool

	// names, when set (the SNFS §7 name-cache extension), serves and
	// records name translations around the lookup RPC; the shared
	// namespace operations tell it of this client's own changes after the
	// server accepts them.
	names nameCache
	// What a protocol adds inside the open path and the write-back, each
	// set once by its constructor and false for the others.
	//
	// tracksOpens (SNFS, RFS): the server keeps open state, so an open
	// and a listing send OPEN, a close sends CLOSE, and the node's record
	// follows both. Without it (NFS) an open makes the getattr check.
	tracksOpens bool
	// delaysWrites (SNFS): a write goes to the cache and stays there
	// (§2.2), fsync writes the file's dirty blocks home, close sends no
	// data, a cached read makes no attribute check (the client's own
	// length, its delayed writes included, is the file's), and removing a
	// file's last link cancels its delayed writes (§4.2.3) — before the
	// remove RPC, so that a racing update-daemon pass cannot resurrect
	// them. Without it a write goes through (writeThrough).
	delaysWrites bool
	// eagerTail (RFS) sends a written-through partial tail block at once
	// instead of holding it until it fills or the file is synced.
	eagerTail bool
	// delayedClose (the SNFS §6.2 option) withholds the final close of a
	// file read with caching on, in anticipation of a prompt reopen.
	delayedClose bool
	// invalidateOnClose (the NFS option) drops a file's cached data at
	// its final close, as the paper's reference port did.
	invalidateOnClose bool

	// sinks are what Attach armed, each nil (off) by default.
	sinks trace.Instruments

	// attrs is the unified attribute-cache layer: every getattr,
	// freshness decision, and piggybacked attribute goes through it.
	attrs *attrCache

	// callbacks is the protocol's part of the callback service.
	callbacks callbackHandler
	// CallbacksServed counts the callbacks the service handled.
	CallbacksServed int64
	// Inconsistencies counts opens that returned the §3.2 warning.
	Inconsistencies int64
	// LocalReopens counts opens satisfied by delayed-close reuse.
	LocalReopens int64

	// redriveBlocks counts the unstable blocks resent after a reboot.
	redriveBlocks int64
	// files heads the closed files, linked by next, that the next opens
	// take (newFile).
	files *file
}

// Attach arms the client and its endpoint with the non-nil sinks of in:
// a ring records the client's callbacks, cache drops and commit redrives
// beside the endpoint's calls; spans take cache fetches, attribute-cache
// revalidations, biod waits and daemon passes as spans of the owning
// operation's trace; a registry gets the endpoint's per-procedure call
// latency (what the client actually waits for) and the cache's
// occupancy, dirty-block, write-back-concurrency and invalidation gauges.
func (b *Base) Attach(in trace.Instruments) {
	b.ep.Attach(in)
	trace.Arm(&b.sinks, in)
	r := in.Metrics
	if r == nil {
		return
	}
	host := b.host()
	r.GaugeFunc(metrics.Label("snfs_client_cache_blocks", "host", host),
		func() float64 { return float64(b.cache.Len()) })
	r.GaugeFunc(metrics.Label("snfs_client_dirty_blocks", "host", host),
		func() float64 { return float64(b.cache.DirtyCount()) })
	r.GaugeFunc(metrics.Label("snfs_client_writeback_queue_depth", "host", host),
		func() float64 { return float64(b.biods.InUse()) })
	r.GaugeFunc(metrics.Label("snfs_client_invalidated_blocks_total", "host", host),
		func() float64 { return float64(b.cache.Stats().Invalidated) })
	r.GaugeFunc(metrics.Label("snfs_client_cache_hits_total", "host", host),
		func() float64 { return float64(b.cache.Stats().Hits) })
	r.GaugeFunc(metrics.Label("snfs_client_cache_misses_total", "host", host),
		func() float64 { return float64(b.cache.Stats().Misses) })
	r.GaugeFunc(metrics.Label("snfs_client_commits_total", "host", host),
		func() float64 { return float64(b.Ops()[proto.ProcCommit]) })
	r.GaugeFunc(metrics.Label("snfs_client_redrive_blocks_total", "host", host),
		func() float64 { return float64(b.redriveBlocks) })
	r.GaugeFunc(metrics.Label("snfs_client_unstable_outstanding", "host", host),
		func() float64 {
			total := 0
			for _, n := range b.nodes {
				total += len(n.unstable)
			}
			return float64(total)
		})
	r.GaugeFunc(metrics.Label("snfs_client_attrcache_hits_total", "host", host),
		func() float64 { return float64(b.attrs.stats.Hits) })
	r.GaugeFunc(metrics.Label("snfs_client_attrcache_misses_total", "host", host),
		func() float64 { return float64(b.attrs.stats.Misses) })
	r.GaugeFunc(metrics.Label("snfs_client_attrcache_expiries_total", "host", host),
		func() float64 { return float64(b.attrs.stats.Expiries) })
	r.GaugeFunc(metrics.Label("snfs_client_attrcache_ingests_total", "host", host),
		func() float64 { return float64(b.attrs.stats.Ingests) })
	r.GaugeFunc(metrics.Label("snfs_client_attrcache_shared_drops_total", "host", host),
		func() float64 { return float64(b.attrs.stats.SharedDrops) })
}

// span opens a child span of p's current operation (no-op when spans
// are off).
func (b *Base) span(p *sim.Proc, kind span.Kind, name string) span.Handle {
	return b.sinks.Spans.Begin(p, b.host(), kind, name)
}

// syscall begins a vfs method: it mints the method's causal op ID and
// opens the method's root span under it, which the method ends when it
// returns.
func (b *Base) syscall(p *sim.Proc, name string) span.Handle {
	return b.sinks.Spans.Root(p, b.host(), name, p.BeginOp())
}

// record notes one client event in the attached ring. Its arguments are
// boxed and formatted even with no ring, so its callers check the ring
// first.
func (b *Base) record(kind trace.Kind, op uint64, format string, args ...any) {
	b.sinks.Tracer.Add(trace.Event{Host: b.host(), Kind: kind, Op: op, Detail: fmt.Sprintf(format, args...)})
}

// host names this client in trace output.
func (b *Base) host() string { return string(b.ep.Addr()) }

func newBase(k *sim.Kernel, ep *rpc.Endpoint, cfg Config) *Base {
	cfg.fill()
	b := &Base{
		k:        k,
		ep:       ep,
		cfg:      cfg,
		cache:    cache.New(int(cfg.CacheBytes / int64(cfg.BlockSize))),
		nodes:    make(map[uint64]*node),
		biods:    sim.NewSemaphore(k, cfg.Biods),
		fetching: make(map[cache.Key]*sim.Signal),
	}
	b.attrs = &attrCache{b: b, probeMin: 3 * sim.Second, probeMax: 150 * sim.Second}
	return b
}

// Ops returns the client-issued RPC counters (what Tables 5-2/5-4/5-6
// report), which its endpoint keeps.
func (b *Base) Ops() *stats.Ops { return b.ep.Sent() }

// Cache returns the client block cache (for stats).
func (b *Base) Cache() *cache.Cache { return b.cache }

// Endpoint returns the client's RPC endpoint.
func (b *Base) Endpoint() *rpc.Endpoint { return b.ep }

// Retarget repoints every future RPC at a new server address — failover:
// the shard's backup took over the primary's role. Calls already in
// flight heal through the endpoint's Reroute hook.
func (b *Base) Retarget(to simnet.Addr) { b.cfg.Server = to }

// Server returns the address the client currently targets.
func (b *Base) Server() simnet.Addr { return b.cfg.Server }

// call issues one RPC to the server. args and reply are the
// XDR method values of the arguments and of the reply, which are encoded
// straight into the endpoint's pooled wire buffer and decoded straight
// from the reply image, and so stay in the caller's frame (rpc.CallXDR).
func (b *Base) call(p *sim.Proc, proc uint32, args, reply func(xdr.Codec)) error {
	return b.ep.CallXDR(p, b.cfg.Server, proto.ProgNFS, proto.VersNFS, proc, args, reply)
}

// statusReply answers a callback with a bare status, encoded at once
// (rpc.Encode).
func statusReply(st proto.Status) (rpc.Reply, rpc.Status) {
	r := proto.StatusReply{Status: st}
	return rpc.Encode(r.XDR), rpc.StatusOK
}

// callbackHandler is a protocol's part of the callback service: what a
// callback does to the node it names (nil if this client has none).
type callbackHandler interface {
	callback(p *sim.Proc, a proto.CallbackArgs, n *node) proto.Status
}

// nameCache is a protocol's name cache (Base.names): lookupName serves a
// translation, cacheName records one the lookup RPC returned, setName
// records this client's own change (a zero handle means the name is gone)
// and forgetDir drops every translation cached under a directory.
type nameCache interface {
	lookupName(dir proto.Handle, name string) (proto.Handle, bool)
	cacheName(p *sim.Proc, dir proto.Handle, name string, h proto.Handle)
	setName(dir proto.Handle, name string, h proto.Handle)
	forgetDir(dir proto.Handle)
}

// serveCallbacks registers the client's callback service (the client
// must provide RPC service, §3.2), with h as the protocol's part.
func (b *Base) serveCallbacks(h callbackHandler) {
	b.callbacks = h
	b.ep.Serve(proto.ProgCallback, b.serveCallback)
}

// serveCallback is the callback service: it decodes a callback, counts
// and traces it, and hands the protocol the node it names. No callback's
// arguments have a tail (xdr.Codec.Tail).
func (b *Base) serveCallback(p *sim.Proc, from simnet.Addr, proc uint32, args, _ []byte) (rpc.Reply, rpc.Status) {
	if proc == proto.CbProcNull {
		return statusReply(proto.OK)
	}
	if proc != proto.CbProcCallback {
		return rpc.Reply{}, rpc.StatusProcUnavail
	}
	var a proto.CallbackArgs
	d := xdr.NewDecoder(args).Codec()
	if a.XDR(d); d.Err() != nil {
		return rpc.Reply{}, rpc.StatusGarbage
	}
	b.CallbacksServed++
	if b.sinks.Tracer != nil {
		b.record(trace.Callback, p.Op(), "<- %s writeback=%v invalidate=%v release=%v",
			a.Handle, a.WriteBack, a.Invalidate, a.Release)
	}
	n, ok := b.nodes[a.Handle.Ino]
	if !ok || n.h != a.Handle {
		n = nil
	}
	return statusReply(b.callbacks.callback(p, a, n))
}

// getNode returns (creating if needed) the node for a handle.
func (b *Base) getNode(h proto.Handle) *node {
	n, ok := b.nodes[h.Ino]
	if !ok || n.h != h {
		n = &node{h: h}
		b.nodes[h.Ino] = n
	}
	return n
}

// setAttr installs server-reported attributes on a node, growing the
// local size view only when the client holds no newer local writes.
func (b *Base) setAttr(n *node, a proto.Fattr, now sim.Time) {
	n.attr = a
	n.attrTime = now
	n.attrInit = true
	if a.Size > n.size || !b.cache.HasDirty(b.cfg.Root.FSID, n.h.Ino) {
		n.size = a.Size
	}
}

// lookupRPC resolves one name in one directory.
func (b *Base) lookupRPC(p *sim.Proc, dir proto.Handle, name string) (proto.Handle, proto.Fattr, error) {
	var r proto.HandleReply
	if err := b.call(p, proto.ProcLookup, (&proto.DirOpArgs{Dir: dir, Name: name}).XDR, r.XDR); err != nil {
		return proto.Handle{}, proto.Fattr{}, err
	}
	if r.Status != proto.OK {
		return proto.Handle{}, proto.Fattr{}, r.Status.Err()
	}
	return r.Handle, r.Attr, nil
}

// lookup resolves one name through the name cache when enabled. Cache
// hits that need attributes pay a getattr (same price as the lookup they
// replace — the win is handle-only resolutions, which path walking is
// made of). fromCache reports a cache hit, in which case the returned
// attributes may be zero; symlinks are never cached, so a cache hit is
// always a plain file or directory.
func (b *Base) lookup(p *sim.Proc, dir proto.Handle, name string, needAttr bool) (h proto.Handle, attr proto.Fattr, fromCache bool, err error) {
	if b.names != nil {
		if h, ok := b.names.lookupName(dir, name); ok {
			if !needAttr {
				return h, proto.Fattr{}, true, nil
			}
			// The attribute layer serves this from cache when the
			// attributes are still fresh (piggybacking armed) and pays
			// the getattr otherwise — the vintage price.
			attr, _, err := b.attrs.get(p, b.getNode(h), !b.cfg.AttrExtensions)
			if err == nil {
				return h, attr, true, nil
			}
			// Stale cached handle: fall through to a real lookup.
		}
	}
	h, attr, err = b.lookupRPC(p, dir, name)
	if err == nil && b.names != nil && attr.Type != uint32(localfs.TypeSymlink) {
		b.names.cacheName(p, dir, name, h)
	}
	if err == nil && b.cfg.AttrExtensions && attr.Type != uint32(localfs.TypeSymlink) {
		// Lookup replies carry server-fresh attributes; the vintage
		// client threw them away.
		b.attrs.ingest(b.getNode(h), attr, p.Now())
	}
	return h, attr, false, err
}

// readlinkRPC fetches a symlink's target.
func (b *Base) readlinkRPC(p *sim.Proc, h proto.Handle) (string, error) {
	var r proto.ReadlinkReply
	if err := b.call(p, proto.ProcReadlink, (&proto.HandleArgs{Handle: h}).XDR, r.XDR); err != nil {
		return "", err
	}
	if r.Status != proto.OK {
		return "", r.Status.Err()
	}
	return r.Target, nil
}

// resolved is a walk's node: a handle and the attributes its step
// returned (zero after a name-cache hit that needed none; a directory's
// type alone for a directory known by its handle).
type resolved struct {
	h    proto.Handle
	attr proto.Fattr
}

// dirOf is a directory known by its handle.
func dirOf(h proto.Handle) resolved {
	return resolved{h, proto.Fattr{Type: uint32(localfs.TypeDirectory)}}
}

// walkFrom walks path from dir (vfs.Walk). A step is one LOOKUP through
// the name cache (lookup), or, with the compound walk armed, no name
// cache and more than one component left, one LOOKUPPATH (lookupPath):
// the name cache's hits are cheaper than any RPC. needAttr asks the last
// step for attributes.
func (b *Base) walkFrom(p *sim.Proc, dir resolved, path string, needAttr bool) (resolved, error) {
	return vfs.Walk(dirOf(b.cfg.Root), dir, path, func(dir resolved, path string) (resolved, resolved, string, bool, error) {
		name, rest := vfs.Next(path)
		if b.cfg.AttrExtensions && b.names == nil && rest != "" {
			return b.lookupPath(p, dir.h, path)
		}
		h, a, fromCache, err := b.lookup(p, dir.h, name, needAttr && rest == "")
		return dirOf(dir.h), resolved{h, a}, rest, !fromCache && a.Type == uint32(localfs.TypeSymlink), err
	}, func(link resolved) (string, error) { return b.readlinkRPC(p, link.h) })
}

// lookupPath is the compound step: the server walks as many of path's
// components as it can, stopping early at a symbolic link.
func (b *Base) lookupPath(p *sim.Proc, dir proto.Handle, path string) (parent, node resolved, rest string, link bool, err error) {
	var names []string
	for name, r := vfs.Next(path); name != ""; name, r = vfs.Next(r) {
		names = append(names, name)
	}
	var r proto.LookupPathReply
	if err = b.call(p, proto.ProcLookupPath, (&proto.LookupPathArgs{Dir: dir, Names: names}).XDR, r.XDR); err == nil {
		err = r.Status.Err()
	}
	link = r.Attr.Type == uint32(localfs.TypeSymlink)
	if err == nil && (int(r.Resolved) > len(names) || (int(r.Resolved) < len(names) && !link)) {
		err = proto.ErrIO.Err()
	}
	if err != nil {
		return parent, node, "", false, err
	}
	if !link {
		b.attrs.ingest(b.getNode(r.Handle), r.Attr, p.Now())
	}
	rest = path
	for range r.Resolved {
		_, rest = vfs.Next(rest)
	}
	return dirOf(r.Parent), resolved{r.Handle, r.Attr}, rest, link, nil
}

// resolveDir resolves a directory path from the root — the NFS/SNFS name
// translation the paper identifies as roughly half of all calls —
// through the one-entry cwd cache.
func (b *Base) resolveDir(p *sim.Proc, path string) (proto.Handle, error) {
	if name, _ := vfs.Next(path); name == "" {
		return b.cfg.Root, nil
	}
	if b.lastDirValid && vfs.SamePath(path, b.lastDirPath) {
		return b.lastDir, nil
	}
	d, err := b.walkFrom(p, dirOf(b.cfg.Root), path, false)
	if err != nil {
		return proto.Handle{}, err
	}
	b.lastDirPath, b.lastDir, b.lastDirValid = path, d.h, true
	return d.h, nil
}

// DropDirCache invalidates the one-entry directory cache, as namespace
// surgery does. Final-component walks already heal a stale cwd
// themselves (walk), but operations that send the cached parent handle
// straight to the server (create, mkdir, remove, rename, ...) surface
// its ESTALE to the caller; the cluster router drops the cache and
// retries so the fresh walk from the root can discover a migrated
// subtree's new home.
func (b *Base) DropDirCache() { b.lastDirValid = false }

// walk resolves rel to a handle, following links in every component, with
// the attributes the final lookup returned when needAttr is set; without
// it a name-cache hit costs no RPC.
func (b *Base) walk(p *sim.Proc, rel string, needAttr bool) (proto.Handle, proto.Fattr, error) {
	dir, name := vfs.Split(rel)
	if name == "" {
		return b.cfg.Root, proto.Fattr{Type: uint32(localfs.TypeDirectory), Fileid: b.cfg.Root.Ino}, nil
	}
	d, err := b.resolveDir(p, dir)
	if err != nil {
		return proto.Handle{}, proto.Fattr{}, err
	}
	r, err := b.walkFrom(p, dirOf(d), name, needAttr)
	if err != nil && proto.StatusOf(err) == proto.ErrStale && b.lastDirValid {
		// The cached directory went away; re-resolve from the root.
		b.DropDirCache()
		return b.walk(p, rel, needAttr)
	}
	return r.h, r.attr, err
}

// walkParent resolves rel's parent chain, following links, and returns
// the directory and the last component's name, which it does not look up.
func (b *Base) walkParent(p *sim.Proc, rel string) (proto.Handle, string, error) {
	dir, name := vfs.Split(rel)
	if name == "" {
		return proto.Handle{}, "", proto.ErrInval.Err()
	}
	d, err := b.resolveDir(p, dir)
	return d, name, err
}

// sortedNodes returns the known files keep accepts (all of them when keep
// is nil) in ascending ino order: map iteration order is randomized, and
// the order RPCs are issued in moves the simulated clock, so every loop
// that talks to the network per node needs a stable order.
func (b *Base) sortedNodes(keep func(*node) bool) []*node {
	var nodes []*node
	for _, n := range b.nodes {
		if keep == nil || keep(n) {
			nodes = append(nodes, n)
		}
	}
	slices.SortFunc(nodes, func(x, y *node) int { return cmp.Compare(x.h.Ino, y.h.Ino) })
	return nodes
}

// key builds the cache key for a block of a file.
func (b *Base) key(ino uint64, blk int64) cache.Key {
	return cache.Key{FS: b.cfg.Root.FSID, Ino: ino, Block: blk}
}

// readRPC fetches [off, off+count) from the server and returns data plus
// the attributes piggybacked on the reply. The reply's data is its image's
// tail, so data is the server's frozen page itself, not a copy.
func (b *Base) readRPC(p *sim.Proc, h proto.Handle, off int64, count int) ([]byte, proto.Fattr, error) {
	var r proto.ReadReply
	if err := b.call(p, proto.ProcRead, (&proto.ReadArgs{Handle: h, Offset: off, Count: uint32(count)}).XDR, r.XDR); err != nil {
		return nil, proto.Fattr{}, err
	}
	if r.Status != proto.OK {
		return nil, proto.Fattr{}, r.Status.Err()
	}
	return r.Data, r.Attr, nil
}

// writeRPC sends [off, off+len(data)) to the server and returns its
// reply: a stable write is on the server's disk when the reply arrives, an
// unstable one (unstable set) may be only in its buffers, as the reply's
// Committed says. data is the call image's tail, sent by reference, and
// must be frozen: a cache block marked Frozen, one that has left the
// cache, or a copy of the caller's.
func (b *Base) writeRPC(p *sim.Proc, h proto.Handle, off int64, data []byte, unstable bool) (proto.WriteReply, error) {
	var r proto.WriteReply
	if err := b.call(p, proto.ProcWrite, (&proto.WriteArgs{Handle: h, Offset: off, Data: data, Unstable: unstable}).XDR, r.XDR); err != nil {
		return proto.WriteReply{}, err
	}
	if r.Status != proto.OK {
		return proto.WriteReply{}, r.Status.Err()
	}
	return r, nil
}

// writeBack pushes one block-aligned extent to the server on behalf of
// node n, choosing the pipeline the mount is configured for: a plain
// stable write, or an unstable write whose data is retained locally
// until commit() succeeds. data is frozen, as for writeRPC, so the
// retained data is data itself.
func (b *Base) writeBack(p *sim.Proc, n *node, off int64, data []byte) (proto.Fattr, error) {
	r, err := b.writeRPC(p, n.h, off, data, b.cfg.UnstableWrites)
	if err != nil {
		return proto.Fattr{}, err
	}
	if !r.Committed {
		if n.unstable == nil {
			n.unstable = make(map[int64][]byte)
		}
		if len(n.unstable) == 0 {
			// The verifier of the first tracked ack: a COMMIT under a
			// different verifier means a reboot dropped this batch.
			n.unstableVerifier = r.Verifier
		}
		n.unstable[off] = data
	}
	return r.Attr, nil
}

// commit makes n's unstable writes durable with one COMMIT RPC. If the
// reply's verifier does not match the one the unstable acks carried,
// the server rebooted in between and dropped the data: every retained
// block is redriven with stable writes (durable on reply, so no second
// COMMIT is needed). A stale handle means the file was removed — there
// is nothing left to make durable.
func (b *Base) commit(p *sim.Proc, n *node) error {
	if len(n.unstable) == 0 {
		return nil
	}
	var r proto.CommitReply
	if err := b.call(p, proto.ProcCommit, (&proto.CommitArgs{Handle: n.h}).XDR, r.XDR); err != nil {
		return err
	}
	if r.Status == proto.ErrStale {
		n.unstable, n.unstableVerifier = nil, 0
		return nil
	}
	if r.Status != proto.OK {
		return r.Status.Err()
	}
	if r.Verifier != n.unstableVerifier {
		offs := slices.Sorted(maps.Keys(n.unstable))
		if b.sinks.Tracer != nil {
			b.record(trace.Crash, 0, "commit verifier %d != %d: redriving %d blocks", r.Verifier, n.unstableVerifier, len(offs))
		}
		b.redriveBlocks += int64(len(offs))
		for _, off := range offs {
			if _, err := b.writeRPC(p, n.h, off, n.unstable[off], false); err != nil {
				return err
			}
		}
	}
	n.unstable, n.unstableVerifier = nil, 0
	return nil
}

// getattrRPC fetches fresh attributes. Only the attribute-cache layer
// calls this; everyone else goes through attrs.get.
func (b *Base) getattrRPC(p *sim.Proc, h proto.Handle) (proto.Fattr, error) {
	var r proto.AttrReply
	if err := b.call(p, proto.ProcGetattr, (&proto.HandleArgs{Handle: h}).XDR, r.XDR); err != nil {
		return proto.Fattr{}, err
	}
	if r.Status != proto.OK {
		return proto.Fattr{}, r.Status.Err()
	}
	return r.Attr, nil
}

// ingestWcc feeds the post-op attributes of a WccReply into the
// attribute cache. Objects the client has no node for are skipped —
// wcc data is a cache hint, not worth materializing state over.
func (b *Base) ingestWcc(p *sim.Proc, wcc []proto.WccData) {
	for _, w := range wcc {
		if n, ok := b.nodes[w.Handle.Ino]; ok && n.h == w.Handle {
			b.attrs.ingest(n, w.Attr, p.Now())
		}
	}
}

// wccCall issues a remove, rename or close: its reply is a WccReply when
// the request asked for post-op attributes (piggybacking armed) and a bare
// StatusReply otherwise. Wcc attributes feed the attribute cache; it
// returns the reply's status.
func (b *Base) wccCall(p *sim.Proc, proc uint32, args func(xdr.Codec)) (proto.Status, error) {
	if !b.cfg.AttrExtensions {
		var r proto.StatusReply
		err := b.call(p, proc, args, r.XDR)
		return r.Status, err
	}
	var r proto.WccReply
	if err := b.call(p, proc, args, r.XDR); err != nil {
		return r.Status, err
	}
	b.ingestWcc(p, r.Wcc)
	return r.Status, nil
}

// readdirAttrs lists a directory READDIRPLUS-style, priming the
// attribute cache with every entry's attributes (piggybacking armed).
func (b *Base) readdirAttrs(p *sim.Proc, h proto.Handle) ([]proto.DirEntry, error) {
	var r proto.ReaddirAttrsReply
	if err := b.call(p, proto.ProcReaddirAttrs, (&proto.HandleArgs{Handle: h}).XDR, r.XDR); err != nil {
		return nil, err
	}
	if r.Status != proto.OK {
		return nil, r.Status.Err()
	}
	entries := make([]proto.DirEntry, 0, len(r.Entries))
	now := p.Now()
	for _, ent := range r.Entries {
		if ent.Attr.Type != uint32(localfs.TypeSymlink) {
			b.attrs.ingest(b.getNode(ent.Handle), ent.Attr, now)
		}
		entries = append(entries, proto.DirEntry{Name: ent.Name, Fileid: ent.Handle.Ino})
	}
	return entries, nil
}

// fetchBlock reads one whole block from the server into the cache and
// returns its bytes, waiting instead of duplicating the RPC when a fetch
// is already in flight. The cached Data is the view of the frozen reply
// image, as long as the bytes the server had (Len), marked Frozen, and
// writeToCache copies it before the first write. A block a local write
// made resident while the READ was on the wire holds newer bytes than
// the reply: it stays, and the reply is dropped. A reply an invalidating
// callback overtook may predate the change the callback was for: it
// serves a read, as read before the change, but a read-modify-write (rmw)
// leaves it uncached and fetches again.
func (b *Base) fetchBlock(p *sim.Proc, n *node, blk int64, rmw bool) ([]byte, error) {
	sp := b.span(p, span.Cache, "fetch")
	defer sp.End()
	key := b.key(n.h.Ino, blk)
	// At most one fetch of a key is in flight: a reader waits while there
	// is one, then looks again, since the fetch may have failed or its
	// block been evicted at once, and another waiter may have started the
	// next fetch by the time this one runs.
	for {
		sig, busy := b.fetching[key]
		if !busy {
			break
		}
		if sig == nil {
			sig = new(sim.Signal)
			b.fetching[key] = sig
		}
		sig.Wait(p)
		if cb, ok := b.cache.Lookup(key); ok {
			return cb.Data, nil
		}
	}
	b.fetching[key] = nil
	defer func() {
		sig := b.fetching[key]
		delete(b.fetching, key)
		if sig != nil {
			sig.Fire(nil)
		}
	}()
	bs := b.cfg.BlockSize
	off := blk * int64(bs)
	seen := n.rec.Invalidated
	data, rattr, err := b.readRPC(p, n.h, off, bs)
	if err != nil {
		return nil, err
	}
	if b.cfg.AttrExtensions {
		// Read replies carry fresh attributes; ingest before inserting
		// the block so a detected third-party change cannot invalidate
		// the data just fetched.
		b.attrs.ingest(n, rattr, p.Now())
	}
	if _, ok := b.cache.Peek(key); !ok && (!rmw || seen == n.rec.Invalidated) {
		got := min(len(data), bs)
		data = data[:got:got]
		cb, victim := b.cache.Insert(key, data, got)
		cb.Frozen = true
		b.flushEvicted(p, victim)
	}
	// The victim's write-back may have parked: what the cache holds now
	// is the block, a local write's if one landed meanwhile.
	if cb, ok := b.cache.Peek(key); ok {
		return cb.Data, nil
	}
	return data, nil
}

// flushEvicted writes back a dirty block displaced by an insertion. The
// evicting process pays for the write (as a Unix process taking a buffer
// must wait for it to be cleaned). An evicted block has left the cache,
// so nothing writes into its bytes again: they go out as they are. A
// write-back that fails (the file removed under us) loses them either way.
func (b *Base) flushEvicted(p *sim.Proc, v cache.Victim) {
	if n, ok := b.nodes[v.Key.Ino]; ok && v.Dirty {
		b.writeBack(p, n, v.Key.Block*int64(b.cfg.BlockSize), v.Data[:v.Len])
	}
}

// assembleRead copies [off, off+len(b)) into b from cached blocks,
// fetching and caching misses, honoring the node's size view, and returns
// the count copied. readAhead starts a prefetch of the block after each
// miss. A block's bytes are lent (the cache's Data rule): each block's are
// copied before the next cache call, the prefetch's included. (The SNFS
// uncachable path reads the server directly and does not come here.)
func (b *Base) assembleRead(p *sim.Proc, n *node, buf []byte, off int64, readAhead bool) (int, error) {
	size := n.size
	if off >= size {
		return 0, nil
	}
	end := min(off+int64(len(buf)), size)
	bs := int64(b.cfg.BlockSize)
	for cur := off; cur < end; {
		blk := cur / bs
		blkOff := cur % bs
		blkEnd := min(bs, end-blk*bs)
		var data []byte
		cb, hit := b.cache.Lookup(b.key(n.h.Ino, blk))
		if hit {
			data = cb.Data
		} else {
			var err error
			if data, err = b.fetchBlock(p, n, blk, false); err != nil {
				return 0, err
			}
		}
		// Bytes past len(data) are zeros (sparse, locally
		// extended, or past the server's end of file).
		dst := buf[cur-off : blk*bs+blkEnd-off]
		if blkOff < int64(len(data)) {
			dst = dst[copy(dst, data[blkOff:]):]
		}
		clear(dst)
		if !hit && readAhead {
			b.readAhead(n, blk+1)
		}
		cur = blk*bs + blkEnd
	}
	return int(end - off), nil
}

// readAhead prefetches block blk of n asynchronously if it is within the
// file, not resident, and not already being fetched, using a biod.
func (b *Base) readAhead(n *node, blk int64) {
	bs := int64(b.cfg.BlockSize)
	key := b.key(n.h.Ino, blk)
	if blk*bs >= n.size || b.cache.Contains(key) {
		return
	}
	if _, busy := b.fetching[key]; busy {
		return
	}
	if !b.biods.TryAcquire() {
		return
	}
	op := b.k.CurrentOp()
	b.k.Go("biod-ra", func(p *sim.Proc) {
		if b.sinks.Spans != nil {
			// Tag the prefetcher with the reading syscall's op (spans
			// armed only) so the read-ahead traces under that op.
			p.SetOp(op)
		}
		defer b.biods.Release()
		if b.cache.Contains(key) {
			return
		}
		b.fetchBlock(p, n, blk, false)
	})
}

// writeToCache applies data at off to the cache for node n, performing
// read-modify-write fetches when a partial write lands on a non-resident
// block that has server content, and marks every block it writes dirty:
// SNFS's delayed writes wait there, and NFS's and RFS's write-through
// sends them (writeThrough).
func (b *Base) writeToCache(p *sim.Proc, n *node, off int64, data []byte) error {
	bs := int64(b.cfg.BlockSize)
	end := off + int64(len(data))
	for cur := off; cur < end; {
		blk := cur / bs
		blkStart := blk * bs
		segEnd := min(blkStart+bs, end)
		key := b.key(n.h.Ino, blk)
		cb, ok := b.cache.Lookup(key)
		for !ok {
			// If the block holds server content the write does
			// not fully cover, fetch it first (read-modify-
			// write); otherwise start from a zero block.
			contentEnd := min(n.size, blkStart+bs)
			if contentEnd > blkStart && (cur > blkStart || segEnd < contentEnd) {
				if _, err := b.fetchBlock(p, n, blk, true); err != nil {
					return err
				}
			} else {
				// A fresh block. A write shorter than a block
				// (a small file, or a file's last piece) gets
				// one as long as it reaches into it. A longer
				// one streams: the next write would grow a
				// short block at once, so it gets a whole one.
				size := bs
				if int64(len(data)) < bs {
					size = segEnd - blkStart
				}
				_, victim := b.cache.Insert(key, b.cache.Buffer(int(size)), 0)
				b.flushEvicted(p, victim)
			}
			// The fetch or the victim's write-back may have parked,
			// and a callback dropped the block meanwhile: then the
			// segment takes it again.
			cb, ok = b.cache.Peek(key)
		}
		if cb.Frozen || int(segEnd-blkStart) > len(cb.Data) {
			// The only write into a cached block: a frozen block
			// is copied first, and a short one grows to a whole
			// block once a write reaches past its end.
			whole := b.cache.Buffer(int(bs))
			copy(whole, cb.Data)
			cb.Data, cb.Frozen = whole, false
		}
		copy(cb.Data[cur-blkStart:segEnd-blkStart], data[cur-off:segEnd-off])
		cb.Len = max(cb.Len, int(segEnd-blkStart))
		b.cache.MarkDirty(key, p.Now())
		cur = segEnd
	}
	n.size = max(n.size, end)
	return nil
}

// sendable freezes cb and returns its valid bytes, the data of a WRITE
// that sends them by reference: the next write into the block copies it
// first (writeToCache), so what the network, a retransmission, the
// server's page or the unstable-write record holds stays as sent.
func sendable(cb *cache.Block) []byte {
	cb.Frozen = true
	return cb.Data[:cb.Len:cb.Len]
}

// The write-back. Every dirty block a client sends home from its cache
// goes through one step, writeBlock; a biod's write-through and an
// evicted block are sent as they are, with no block left to clean.
// writeFile composes the step into one file's write-back, which stops at
// the first failure; writeDirty into one pass over many files, which
// leaves a failed block dirty and goes on. Close, fsync, callbacks, open
// actions, the update pass and sync(2) are built from those three.

// writeBlock is the one write-back step. It looks the block up once, just
// before its write: a callback or a delete arriving while an earlier
// write was in flight may have cleaned, cancelled or dropped it, and
// writing from a stale snapshot would resurrect dead data. A dirty block
// of a file the client has forgotten is marked clean, for it has no home
// left. Otherwise the block is frozen and sent, only the generation sent
// is marked clean — a write landing while the WRITE was on the wire keeps
// the block dirty, that newer data still owed — and the reply's
// attributes are the client's own. It returns the file written to, or nil
// when nothing was sent.
func (b *Base) writeBlock(p *sim.Proc, key cache.Key) (*node, error) {
	cb, ok := b.cache.Lookup(key)
	if !ok || !cb.Dirty {
		return nil, nil
	}
	n, ok := b.nodes[key.Ino]
	if !ok {
		b.cache.MarkClean(key)
		return nil, nil
	}
	gen := cb.Gen
	attr, err := b.writeBack(p, n, key.Block*int64(b.cfg.BlockSize), sendable(cb))
	if err != nil {
		return nil, err
	}
	b.cache.MarkCleanIf(key, gen)
	b.attrs.ingestOwn(n, attr, p.Now())
	return n, nil
}

// writeFile writes n's dirty blocks home in block order and stops at the
// first that fails.
func (b *Base) writeFile(p *sim.Proc, n *node) error {
	for _, key := range b.cache.DirtyBlocks(b.cfg.Root.FSID, n.h.Ino) {
		if _, err := b.writeBlock(p, key); err != nil {
			return err
		}
	}
	return nil
}

// writeDirty writes the given dirty blocks home, one pass over many
// files: a block whose write fails stays dirty for the next pass, and the
// pass goes on. It returns the files written to, in the blocks' order.
func (b *Base) writeDirty(p *sim.Proc, keys []cache.Key) []*node {
	var written []*node
	for _, key := range keys {
		n, err := b.writeBlock(p, key)
		if n == nil || err != nil {
			continue
		}
		// blocks arrive in file order, so one file's are adjacent.
		if len(written) == 0 || written[len(written)-1] != n {
			written = append(written, n)
		}
	}
	return written
}

// drain waits for n's write-throughs on the biods; what names the
// biod-wait span.
func (b *Base) drain(p *sim.Proc, n *node, what string) {
	bw := b.span(p, span.BiodWait, what)
	n.pending.Wait(p)
	bw.End()
}

// pushBlockAsync hands a completed block to a biod (write-through without
// blocking the application); with no biod free the caller writes
// synchronously, as Unix did.
func (b *Base) pushBlockAsync(p *sim.Proc, n *node, blk int64) error {
	key := b.key(n.h.Ino, blk)
	cb, ok := b.cache.Peek(key)
	if !ok || !cb.Dirty {
		return nil
	}
	if !b.biods.TryAcquire() {
		_, err := b.writeBlock(p, key)
		return err
	}
	n.pending.Add(1)
	// The biod sends the block's own bytes; the next write copies them.
	data := sendable(cb)
	b.cache.MarkClean(key)
	off := blk * int64(b.cfg.BlockSize)
	op := p.Op()
	b.k.Go("biod-w", func(wp *sim.Proc) {
		if b.sinks.Spans != nil {
			// Tag the biod with the pushing syscall's op so its
			// write-back traces under that op (or as background
			// once the syscall has finished). Only when spans are
			// armed — untagged runs stay byte-identical.
			wp.SetOp(op)
		}
		defer b.biods.Release()
		defer n.pending.Done()
		attr, err := b.writeBack(wp, n, off, data)
		if err != nil {
			n.werr = err
			return
		}
		b.attrs.ingestOwn(n, attr, wp.Now())
	})
	return nil
}

// writeThrough is the write policy NFS and RFS share (§2.1 and footnote
// 4): the data lands in the cache and every block the write completed
// goes to the server through the biods. A partial tail block stays
// delayed until it fills or the file is synced — unless eagerTail sends
// it synchronously now.
func (b *Base) writeThrough(p *sim.Proc, n *node, off int64, data []byte, eagerTail bool) (int, error) {
	if err := b.writeToCache(p, n, off, data); err != nil {
		return 0, err
	}
	// The blocks were just written: looking at them again is no cache
	// hit, so the write-through peeks (pushBlockAsync too).
	bs := int64(b.cfg.BlockSize)
	for blk := off / bs; blk*bs < off+int64(len(data)); blk++ {
		cb, ok := b.cache.Peek(b.key(n.h.Ino, blk))
		if !ok || !cb.Dirty {
			continue
		}
		var err error
		if cb.Len == b.cfg.BlockSize {
			err = b.pushBlockAsync(p, n, blk)
		} else if eagerTail {
			_, err = b.writeBlock(p, cb.Key)
		}
		if err != nil {
			return 0, err
		}
	}
	return len(data), nil
}

// syncFile finishes n's write-through, as close and fsync must (§2.1):
// the delayed partial blocks go out synchronously, the biods drain, one
// COMMIT covers everything that went out unstable — the whole file
// reaches the disk in gathered arm operations — and the first
// asynchronous write error surfaces. what names the biod-wait span.
// Only here does a file's write-back wait for its biods: a callback
// (apply) must not, for under RFS a biod's WRITE may itself be waiting
// at the server for this client's answer to the callback.
func (b *Base) syncFile(p *sim.Proc, n *node, what string) error {
	err := b.writeFile(p, n)
	b.drain(p, n, what)
	if e := b.commit(p, n); e != nil && err == nil {
		err = e
	}
	if n.werr != nil && err == nil {
		err = n.werr
		n.werr = nil
	}
	return err
}

// flushFile writes n's delayed writes home and settles them with one
// COMMIT: the server lands the blocks in gathered arm operations instead
// of one per block. It serves apply and the SNFS fsync.
func (b *Base) flushFile(p *sim.Proc, n *node) error {
	if err := b.writeFile(p, n); err != nil {
		return err
	}
	return b.commit(p, n)
}

// SyncAll implements vfs.FS, sync(2), for all three protocols: one pass
// writes every dirty block home, then the files that still have
// write-throughs on the biods or unstable writes outstanding are drained
// and committed, in inode order — the NFS client's blocks are mostly in
// flight, not dirty in the cache, and one COMMIT per file replaces the N
// synchronous waits the stable pipeline pays.
func (b *Base) SyncAll(p *sim.Proc) {
	defer b.syscall(p, "syncall").End()
	b.writeDirty(p, b.cache.AllDirty())
	owed := b.sortedNodes(func(n *node) bool { return n.pending.Pending() > 0 || len(n.unstable) > 0 })
	for _, n := range owed {
		b.drain(p, n, "syncall")
	}
	for _, n := range owed {
		b.commit(p, n)
	}
}

// apply carries out what n's consistency record decided, in the order
// core.Action fixes, and returns a failed write-back's error. With keep,
// the failure stops it there, the blocks kept: a callback that fails
// changes nothing. Without, the blocks go anyway: an open stands at the
// server, and a record that stopped caching keeps no blocks for the
// update daemon to write home later over newer data.
func (b *Base) apply(p *sim.Proc, n *node, a core.Action, keep bool) error {
	var err error
	if a.Flush {
		if err = b.flushFile(p, n); err != nil && keep {
			return err
		}
	}
	if a.Invalidate {
		dropped := b.cache.InvalidateFile(b.cfg.Root.FSID, n.h.Ino)
		// Traced when caching ends; a stale copy dropped under a grant
		// is routine.
		if b.sinks.Tracer != nil && !n.rec.Caching {
			b.record(trace.Cache, 0, "invalidated %d blocks of %s", dropped, n.h)
		}
	}
	return err
}

// closeRPC reports a close to a server that tracks opens.
func (b *Base) closeRPC(p *sim.Proc, h proto.Handle, write bool) error {
	st, err := b.wccCall(p, proto.ProcClose, (&proto.CloseArgs{
		Handle: h, WriteMode: write, WantAttr: b.cfg.AttrExtensions,
	}).XDR)
	if err != nil {
		return err
	}
	return st.Err()
}

// list fetches a directory's entries with one RPC: READDIRPLUS-style when
// piggybacking is armed (priming the attribute cache for the stats that
// typically follow a listing), the plain readdir otherwise.
func (b *Base) list(p *sim.Proc, h proto.Handle) ([]proto.DirEntry, error) {
	if b.cfg.AttrExtensions {
		return b.readdirAttrs(p, h)
	}
	var r proto.ReaddirReply
	if err := b.call(p, proto.ProcReaddir, (&proto.HandleArgs{Handle: h}).XDR, r.XDR); err != nil {
		return nil, err
	}
	if r.Status != proto.OK {
		return nil, r.Status.Err()
	}
	return r.Entries, nil
}

// The open path, one for every protocol. Open creates the file or walks
// to it, then makes the open's consistency step: a client whose server
// keeps open state sends the OPEN (openRPC), any other checks an
// existing file's attributes (openCheck); truncation comes last. The
// file it returns, and what each of its methods does, follow the fields
// the protocol's constructor set.

// graceRetry is the delay before retrying an open refused with ErrGrace.
const graceRetry = 200 * sim.Millisecond

// Open implements vfs.FS. A read open of a file whose final close was
// delayed (§6.2) reuses the open the server still holds, with no RPC,
// unless it truncates; any other open at such a server first settles that
// owed close.
func (b *Base) Open(p *sim.Proc, rel string, flags vfs.Flags, mode uint32) (vfs.File, error) {
	defer b.syscall(p, "open").End()
	write, create := flags.Writing(), flags&vfs.Create != 0
	var n *node
	var wattr proto.Fattr
	var err error
	if create {
		n, err = b.create(p, rel, mode)
	} else {
		n, wattr, err = b.walkNode(p, rel)
	}
	if err != nil {
		return nil, err
	}
	if b.tracksOpens {
		if n.rec.DelayedClose && !write && flags&vfs.Truncate == 0 && n.rec.Caching {
			n.rec.DelayedClose = false
			n.rec.Readers++
			b.LocalReopens++
			n.opens++
			return b.newFile(n, false), nil
		}
		if err = b.settleDelayedClose(p, n); err == nil {
			err = b.openRPC(p, n, write)
		}
	} else if !create {
		err = b.openCheck(p, n, wattr)
	}
	if err != nil {
		return nil, err
	}
	if flags&vfs.Truncate != 0 && !create && !n.attr.IsDir() {
		if err := b.truncate(p, n); err != nil {
			return nil, err
		}
	}
	n.opens++
	return b.newFile(n, write), nil
}

// newFile lends an open file of n (vfs.File's rule): a closed one the
// client took back (Close), or a new one.
func (b *Base) newFile(n *node, write bool) *file {
	f := b.files
	if f == nil {
		f = new(file)
	} else {
		b.files = f.next
	}
	*f = file{b: b, n: n, write: write}
	return f
}

// Readdir implements vfs.FS: the GFS layer opens a directory like a file,
// so the listing follows an open's consistency step — the getattr check,
// or an OPEN and a CLOSE bracketing it (the source of SNFS's small ScanDir
// handicap in Table 5-1). The OPEN is the bare one: a listing does not
// reuse a delayed close, and settles one first, as any open that does
// not reuse it does: the OPEN's reply would clear it from the record,
// and the close it owes the server would never be sent.
func (b *Base) Readdir(p *sim.Proc, rel string) ([]proto.DirEntry, error) {
	defer b.syscall(p, "readdir").End()
	n, wattr, err := b.walkNode(p, rel)
	if err != nil {
		return nil, err
	}
	if !b.tracksOpens {
		if err := b.openCheck(p, n, wattr); err != nil {
			return nil, err
		}
		return b.list(p, n.h)
	}
	if err := b.settleDelayedClose(p, n); err != nil {
		return nil, err
	}
	if err := b.openRPC(p, n, false); err != nil {
		return nil, err
	}
	entries, err := b.list(p, n.h)
	n.rec.Close(false)
	if cerr := b.closeRPC(p, n.h, false); cerr != nil && err == nil {
		err = cerr
	}
	return entries, err
}

// settleDelayedClose sends the CLOSE that n's delayed final close (§6.2)
// still owes the server, if it owes one.
func (b *Base) settleDelayedClose(p *sim.Proc, n *node) error {
	if !n.rec.DelayedClose {
		return nil
	}
	n.rec.DelayedClose = false
	return b.closeRPC(p, n.h, n.rec.DelayedWriteMode)
}

// walkNode resolves rel to its node, with the final lookup's attributes
// when the open-time check may use them: a client that sends an OPEN gets
// fresher ones from its reply, so its name-cache hits cost nothing.
func (b *Base) walkNode(p *sim.Proc, rel string) (*node, proto.Fattr, error) {
	h, wattr, err := b.walk(p, rel, !b.tracksOpens)
	if err != nil {
		return nil, proto.Fattr{}, err
	}
	return b.getNode(h), wattr, nil
}

// openCheck is the consistency check made each time a file is opened at a
// server that keeps no open state (§2.1): a getattr, unless the walk's
// final-lookup attributes already performed it. With piggybacking armed
// the lookup reply's attributes are exactly as server-fresh as the
// getattr would be, and lookup ingested them (with the mtime-invalidate
// rule) moments ago, so the getattr is pure chatter — the reduction the
// RPC-count experiment tracks. Root walks synthesize attributes locally
// and so still need the real check.
func (b *Base) openCheck(p *sim.Proc, n *node, wattr proto.Fattr) error {
	if b.cfg.AttrExtensions && n.attrInit && wattr.Fileid == n.h.Ino && n.h != b.cfg.Root {
		return nil
	}
	_, _, err := b.attrs.get(p, n, true)
	return err
}

// openRPC registers an open with a server that keeps open state,
// retrying while a rebooted server's grace period refuses it, and hands
// the reply to the node's record, the record's Action to apply and the
// attributes to the attribute cache. ErrInconsistent is the §3.2 warning:
// the file's last writer died with dirty blocks, and it is usable but
// possibly stale.
func (b *Base) openRPC(p *sim.Proc, n *node, write bool) error {
	var reply proto.OpenReply
	opened, invalidated := n.rec.Opened, n.rec.Invalidated
	for attempt := 0; ; attempt++ {
		var err error
		if reply, err = b.openCall(p, n.h, write); err != nil {
			return err
		}
		if reply.Status != proto.ErrGrace || attempt > 100 {
			break
		}
		p.Sleep(graceRetry)
	}
	switch reply.Status {
	case proto.OK:
	case proto.ErrInconsistent:
		b.Inconsistencies++
	default:
		return reply.Status.Err()
	}
	overtaken := n.rec.Invalidated != invalidated || n.rec.Opened != opened && reply.Version < n.rec.Version
	if overtaken {
		// An invalidating callback, or another open's newer reply,
		// overtook this reply: it grants nothing and names no newer
		// version, and the blocks go home and leave.
		reply.CacheEnabled, reply.Version = false, n.rec.Version
	}
	act := n.rec.Open(reply, write)
	b.apply(p, n, act, false)
	b.attrs.ingest(n, reply.Attr, p.Now())
	if act == (core.Action{}) || overtaken {
		// The cached view, delayed writes included, stays authoritative
		// for the file length.
		n.size = max(n.size, reply.Attr.Size)
	} else {
		n.size = reply.Attr.Size
	}
	return nil
}

// openCall sends one OPEN and decodes its reply.
func (b *Base) openCall(p *sim.Proc, h proto.Handle, write bool) (proto.OpenReply, error) {
	var r proto.OpenReply
	err := b.call(p, proto.ProcOpen, (&proto.OpenArgs{Handle: h, WriteMode: write}).XDR, r.XDR)
	return r, err
}

// file is an open file of any protocol; next links a closed one into
// its client's free list.
type file struct {
	b     *Base
	n     *node
	write bool
	next  *file
}

// Handle exposes the protocol-level handle (audit.Handled).
func (f *file) Handle() proto.Handle { return f.n.h }

// direct reports whether the server has turned caching off for the file,
// which it does only to a file that is write-shared (SNFS; the RFS server
// lets every opener cache): its reads and writes go straight to the
// server (§4.2.1).
func (f *file) direct() bool { return f.b.tracksOpens && !f.n.rec.Caching }

// ReadInto implements vfs.File. A cached read goes through the block cache
// with read-ahead, bounded by the file's length; a client that does not
// delay writes checks its attributes for that first (after a callback
// cleared them, or a probe window ran out). A write-shared file is read
// straight from the server with read-ahead off.
func (f *file) ReadInto(p *sim.Proc, buf []byte, off int64) (int, error) {
	b, n := f.b, f.n
	defer b.syscall(p, "read").End()
	if f.direct() {
		data, attr, err := b.readRPC(p, n.h, off, len(buf))
		if err != nil {
			return 0, err
		}
		b.attrs.ingest(n, attr, p.Now())
		n.size = attr.Size
		// data is a view of the server's frozen reply image, which its
		// duplicate cache may resend; the application gets a copy in buf.
		return copy(buf, data), nil
	}
	if !b.delaysWrites {
		if _, _, err := b.attrs.get(p, n, false); err != nil {
			return 0, err
		}
	}
	return b.assembleRead(p, n, buf, off, b.cfg.ReadAhead)
}

// ReadAt implements vfs.File; it stays only for bench/probes.go, until
// ROADMAP's benchmark item (vi).
func (f *file) ReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	return vfs.ReadAt(p, f, off, n)
}

// WriteAt implements vfs.File. A client that delays writes puts the data
// in the cache and sends nothing: a single writer might never write to the
// server during the file's lifetime (§2.2). The others write through. A
// write-shared file is written synchronously with a copy of data: the
// WRITE sends its data by reference, and the server may keep it as its
// page, while the caller owns data and may change it once WriteAt returns.
func (f *file) WriteAt(p *sim.Proc, off int64, data []byte) (int, error) {
	b, n := f.b, f.n
	defer b.syscall(p, "write").End()
	switch {
	case f.direct():
		r, err := b.writeRPC(p, n.h, off, bytes.Clone(data), false)
		if err != nil {
			return 0, err
		}
		b.attrs.ingestOwn(n, r.Attr, p.Now())
		n.size = r.Attr.Size
		return len(data), nil
	case b.delaysWrites:
		if err := b.writeToCache(p, n, off, data); err != nil {
			return 0, err
		}
		if f.direct() {
			// A callback ended caching while the write parked: the
			// blocks it took again go home and leave, as the callback's did.
			return len(data), b.apply(p, n, core.Action{Flush: true, Invalidate: true}, false)
		}
		return len(data), nil
	}
	return b.writeThrough(p, n, off, data, b.eagerTail)
}

// Close implements vfs.File. A client that writes through finishes the
// file's write-through first (§2.1); one that delays writes leaves its
// dirty blocks in the cache. A client whose server keeps open state then
// reports the close, or, under delayed close, withholds the final close
// of a file read with caching on. f goes back to the client at once, and
// the next open may take it while the close parks; under the release
// checker it is poisoned instead (nil b and n), so a later call panics.
func (f *file) Close(p *sim.Proc) error {
	b, n, write := f.b, f.n, f.write
	*f = file{}
	if !cache.FrozenCheck {
		f.next, b.files = b.files, f
	}
	defer b.syscall(p, "close").End()
	var err error
	if !b.delaysWrites {
		err = b.syncFile(p, n, "close")
	}
	n.opens--
	if b.invalidateOnClose && n.opens <= 0 {
		b.cache.InvalidateFile(b.cfg.Root.FSID, n.h.Ino)
	}
	if !b.tracksOpens {
		return err
	}
	if final := n.rec.Close(write); final && b.delayedClose && n.rec.Caching && !write {
		n.rec.DelayedClose = true
		n.rec.DelayedWriteMode = false
		n.rec.ClosedAt = int64(p.Now())
		return err
	}
	if cerr := b.closeRPC(p, n.h, write); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Sync implements vfs.File, fsync: the file's write-through finished, or
// its delayed writes sent home — the explicit flush for applications that
// value reliability over performance (§2.2).
func (f *file) Sync(p *sim.Proc) error {
	defer f.b.syscall(p, "sync").End()
	if f.b.delaysWrites {
		return f.b.flushFile(p, f.n)
	}
	return f.b.syncFile(p, f.n, "sync")
}

// Attr implements vfs.File through the attribute cache (ownSize).
func (f *file) Attr(p *sim.Proc) (proto.Fattr, error) {
	b, n := f.b, f.n
	defer b.syscall(p, "attr").End()
	a, _, err := b.attrs.get(p, n, false)
	if err != nil {
		return proto.Fattr{}, err
	}
	return b.ownSize(n, a), nil
}

// ownSize returns a with the length this client's unflushed writes to n
// reached, where longer: never for a write-shared file, whose length other
// writers move (§4.2.1), nor one written home, which another may have cut.
func (b *Base) ownSize(n *node, a proto.Fattr) proto.Fattr {
	if n.size > a.Size && !b.attrs.writeShared(n) && b.unflushed(n) {
		a.Size = n.size
	}
	return a
}

// unflushed reports whether n has dirty blocks or write-throughs in flight.
func (b *Base) unflushed(n *node) bool {
	return b.cache.HasDirty(b.cfg.Root.FSID, n.h.Ino) || n.pending.Pending() > 0
}

// create is the create arm of an open; it returns the file's node.
func (b *Base) create(p *sim.Proc, rel string, mode uint32) (*node, error) {
	dir, name, err := b.walkParent(p, rel)
	if err != nil {
		return nil, err
	}
	var r proto.HandleReply
	if err := b.call(p, proto.ProcCreate, (&proto.CreateArgs{Dir: dir, Name: name, Mode: mode}).XDR, r.XDR); err != nil {
		return nil, err
	}
	if r.Status != proto.OK {
		return nil, r.Status.Err()
	}
	n := b.getNode(r.Handle)
	// The server's create truncates a file that already exists.
	b.emptied(p, n, r.Attr)
	if b.names != nil {
		b.names.setName(dir, name, r.Handle)
	}
	return n, nil
}

// truncate is the truncate arm of an open. The delayed writes it makes
// obsolete go first: a write-back landing after the SETATTR would bring
// them back.
func (b *Base) truncate(p *sim.Proc, n *node) error {
	b.cache.InvalidateFile(b.cfg.Root.FSID, n.h.Ino)
	var r proto.AttrReply
	if err := b.call(p, proto.ProcSetattr, (&proto.SetattrArgs{Handle: n.h, SetSize: true, Size: 0}).XDR, r.XDR); err != nil {
		return err
	}
	if r.Status != proto.OK {
		return r.Status.Err()
	}
	b.emptied(p, n, r.Attr)
	return nil
}

// emptied records that the server just cut n to zero length at this
// client's request: everything cached for it is obsolete, delayed writes
// included (InvalidateFile drops and counts them as cancelled), and the
// local length restarts at zero.
func (b *Base) emptied(p *sim.Proc, n *node, attr proto.Fattr) {
	b.cache.InvalidateFile(b.cfg.Root.FSID, n.h.Ino)
	b.attrs.ingestOwn(n, attr, p.Now())
	n.size = 0
}

// The namespace operations of vfs.FS, promoted to every client.

// Mkdir implements vfs.FS.
func (b *Base) Mkdir(p *sim.Proc, rel string, mode uint32) error {
	defer b.syscall(p, "mkdir").End()
	dir, name, err := b.walkParent(p, rel)
	if err != nil {
		return err
	}
	var r proto.HandleReply
	if err := b.call(p, proto.ProcMkdir, (&proto.CreateArgs{Dir: dir, Name: name, Mode: mode}).XDR, r.XDR); err != nil {
		return err
	}
	if r.Status == proto.OK && b.names != nil {
		b.names.setName(dir, name, r.Handle)
	}
	return r.Status.Err()
}

// Remove implements vfs.FS. Writes already sent to the server cannot be
// recalled; what the client still holds for a file whose last link goes
// is dropped — the temp-file optimization the sort benchmark turns on
// when those are delayed writes (§4.2.3).
func (b *Base) Remove(p *sim.Proc, rel string) error {
	defer b.syscall(p, "remove").End()
	dir, name, err := b.walkParent(p, rel)
	if err != nil {
		return err
	}
	// The final component is looked up without following symlinks
	// (unlink removes the name, not the target) and with attributes,
	// because a hard-linked inode (nlink > 1) survives the unlink and
	// keeps its cache and its delayed writes.
	h, attr, err := b.lookupRPC(p, dir, name)
	if err != nil {
		return err
	}
	lastLink := attr.Nlink <= 1
	if lastLink && b.delaysWrites {
		b.cache.CancelDirty(b.cfg.Root.FSID, h.Ino)
	}
	st, err := b.wccCall(p, proto.ProcRemove, (&proto.DirOpArgs{
		Dir: dir, Name: name, WantAttr: b.cfg.AttrExtensions,
	}).XDR)
	if err != nil {
		return err
	}
	if st != proto.OK {
		return st.Err()
	}
	if b.names != nil {
		b.names.setName(dir, name, proto.Handle{})
	}
	if lastLink {
		b.cache.InvalidateFile(b.cfg.Root.FSID, h.Ino)
		delete(b.nodes, h.Ino)
		if b.names != nil {
			b.names.forgetDir(h) // in case it was a cached directory handle
		}
	}
	return nil
}

// Rmdir implements vfs.FS.
func (b *Base) Rmdir(p *sim.Proc, rel string) error {
	defer b.syscall(p, "rmdir").End()
	dir, name, err := b.walkParent(p, rel)
	if err != nil {
		return err
	}
	var r proto.StatusReply
	if err := b.call(p, proto.ProcRmdir, (&proto.DirOpArgs{Dir: dir, Name: name}).XDR, r.XDR); err != nil {
		return err
	}
	b.DropDirCache()
	if r.Status == proto.OK && b.names != nil {
		b.names.setName(dir, name, proto.Handle{})
	}
	return r.Status.Err()
}

// Rename implements vfs.FS.
func (b *Base) Rename(p *sim.Proc, oldrel, newrel string) error {
	defer b.syscall(p, "rename").End()
	sdir, sname, err := b.walkParent(p, oldrel)
	if err != nil {
		return err
	}
	ddir, dname, err := b.walkParent(p, newrel)
	if err != nil {
		return err
	}
	st, err := b.wccCall(p, proto.ProcRename, (&proto.RenameArgs{
		SrcDir: sdir, SrcName: sname, DstDir: ddir, DstName: dname,
		WantAttr: b.cfg.AttrExtensions,
	}).XDR)
	if err != nil {
		return err
	}
	b.DropDirCache()
	if st == proto.OK && b.names != nil {
		// Conservative: forget both directories' translations rather
		// than compute the moved handle.
		b.names.forgetDir(sdir)
		b.names.forgetDir(ddir)
	}
	return st.Err()
}

// Stat implements vfs.FS: path resolution alone delivers attributes, with
// a known file's length as Attr gives it (ownSize).
func (b *Base) Stat(p *sim.Proc, rel string) (proto.Fattr, error) {
	defer b.syscall(p, "stat").End()
	h, attr, err := b.walk(p, rel, true)
	if n := b.nodes[h.Ino]; err == nil && n != nil && n.h == h {
		attr = b.ownSize(n, attr)
	}
	return attr, err
}

// Link creates a hard link newrel to the file at oldrel.
func (b *Base) Link(p *sim.Proc, oldrel, newrel string) error {
	defer b.syscall(p, "link").End()
	from, _, err := b.walk(p, oldrel, true)
	if err != nil {
		return err
	}
	dir, name, err := b.walkParent(p, newrel)
	if err != nil {
		return err
	}
	var r proto.StatusReply
	if err := b.call(p, proto.ProcLink, (&proto.LinkArgs{From: from, ToDir: dir, ToName: name}).XDR, r.XDR); err != nil {
		return err
	}
	return r.Status.Err()
}

// Symlink creates a symbolic link at linkrel pointing to target.
func (b *Base) Symlink(p *sim.Proc, target, linkrel string) error {
	defer b.syscall(p, "symlink").End()
	dir, name, err := b.walkParent(p, linkrel)
	if err != nil {
		return err
	}
	var r proto.HandleReply
	if err := b.call(p, proto.ProcSymlink, (&proto.SymlinkArgs{Dir: dir, Name: name, Target: target}).XDR, r.XDR); err != nil {
		return err
	}
	return r.Status.Err()
}

// Readlink returns the target of the symlink at rel (final component not
// followed).
func (b *Base) Readlink(p *sim.Proc, rel string) (string, error) {
	defer b.syscall(p, "readlink").End()
	dir, name, err := b.walkParent(p, rel)
	if err != nil {
		return "", err
	}
	h, _, err := b.lookupRPC(p, dir, name)
	if err != nil {
		return "", err
	}
	return b.readlinkRPC(p, h)
}
