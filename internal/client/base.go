// Package client implements the client file systems the paper compares.
// Base is the one client file system — name translation, the namespace
// operations, the block cache and both write pipelines; each protocol
// adds only its consistency policy:
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
// Every vfs.FS and vfs.File entry point mints one causal op ID
// (sim.Proc.BeginOp) as its first act, so each syscall is one chain in
// traces, spans and the audit journal.
package client

import (
	"fmt"
	"sort"

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
	// AttrPiggyback arms the post-op attribute extension: remove,
	// rename, and close requests carry the want-attr flag and their
	// replies' post-op attributes — plus the attributes lookup and read
	// replies already carry, and a READDIRPLUS-style listing — feed the
	// attribute cache instead of being discarded. Off by default: the
	// vintage clients ignore those attributes, and the paper-fidelity
	// tables depend on the resulting RPC mix.
	AttrPiggyback bool
	// LookupPath arms the compound-RPC path walk: multi-component
	// resolutions go through one ProcLookupPath call instead of a
	// per-component lookup chain. Off by default for the same reason.
	LookupPath bool
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
	pending *sim.WaitGroup
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
	ops   *stats.Ops
	biods *sim.Semaphore
	// fetching tracks blocks with an RPC in flight (read-ahead or a
	// concurrent reader), so a second reader waits for the existing
	// fetch instead of duplicating it — the "buffer busy" state of the
	// Unix buffer cache.
	fetching map[cache.Key]*sim.Signal
	// lastDirPath/lastDir are a one-entry directory cache modelling
	// the process's current directory: path walks re-resolving the
	// directory just used skip its lookups, as namei starting from
	// u.u_cdir did. (Neither protocol caches name translations beyond
	// this by default — the paper's vintage didn't, and notes lookups
	// are roughly half of all calls.)
	lastDirPath  string
	lastDir      proto.Handle
	lastDirValid bool

	// nameGet/namePut, when set (the SNFS §7 name-cache extension),
	// serve and record name translations around the lookup RPC.
	// nameSet records this client's own namespace change (a zero handle
	// means the name is gone) and nameForget drops every translation
	// cached under a directory; the shared namespace operations call
	// them after the server accepts the change.
	nameGet    func(dir proto.Handle, name string) (proto.Handle, bool)
	namePut    func(p *sim.Proc, dir proto.Handle, name string, h proto.Handle)
	nameSet    func(dir proto.Handle, name string, h proto.Handle)
	nameForget func(dir proto.Handle)
	// cancelOnRemove is set by a client that delays writes: removing a
	// file's last link cancels its delayed writes (§4.2.3), and does so
	// before the remove RPC so that a racing update-daemon pass cannot
	// resurrect them.
	cancelOnRemove bool

	tracer *trace.Tracer

	// spans, when set, attaches causal latency spans (cache fetches,
	// attr revalidations, biod waits) to the running operation's trace.
	spans *span.Recorder

	// attrs is the unified attribute-cache layer: every getattr,
	// freshness decision, and piggybacked attribute goes through it.
	attrs *attrCache

	// Unstable-pipeline counters.
	commitsSent   int64
	redriveBlocks int64
}

// EnableMetrics attaches a metrics registry: the endpoint records
// per-procedure call latency (what the client actually waits for), and
// the cache exports occupancy, dirty-block, write-back-concurrency, and
// invalidation gauges.
func (b *Base) EnableMetrics(r *metrics.Registry) {
	b.ep.SetMetrics(r)
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
		func() float64 { return float64(b.commitsSent) })
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

// SetTracer attaches a trace recorder to the client.
func (b *Base) SetTracer(t *trace.Tracer) { b.tracer = t }

// Tracer returns the attached tracer (possibly nil; nil is recordable).
func (b *Base) Tracer() *trace.Tracer { return b.tracer }

// SetSpans attaches a span recorder: cache fetches, attribute-cache
// revalidations, biod waits, and daemon passes become spans of the
// owning operation's trace.
func (b *Base) SetSpans(r *span.Recorder) { b.spans = r }

// span opens a child span of p's current operation (no-op when spans
// are off).
func (b *Base) span(p *sim.Proc, kind span.Kind, name string) span.Handle {
	return b.spans.Begin(p, b.host(), kind, name)
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
		ops:      stats.NewOps(),
		biods:    sim.NewSemaphore(k, cfg.Biods),
		fetching: make(map[cache.Key]*sim.Signal),
	}
	b.attrs = newAttrCache(b)
	return b
}

// Ops returns the client-issued RPC counters (what Tables 5-2/5-4/5-6
// report).
func (b *Base) Ops() *stats.Ops { return b.ops }

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

// call issues one RPC to the server, counting it. CallMsg encodes args
// straight into the endpoint's pooled wire buffer (byte-identical to
// proto.Marshal, without the intermediate allocation).
func (b *Base) call(p *sim.Proc, proc uint32, args proto.Message) ([]byte, error) {
	b.ops.Inc(proto.ProcName(proto.ProgNFS, proc))
	return b.ep.CallMsg(p, b.cfg.Server, proto.ProgNFS, proto.VersNFS, proc, args)
}

// getNode returns (creating if needed) the node for a handle.
func (b *Base) getNode(h proto.Handle) *node {
	n, ok := b.nodes[h.Ino]
	if !ok || n.h != h {
		n = &node{h: h, pending: sim.NewWaitGroup(b.k, 0)}
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
	if b.cache.DirtyCount() == 0 || len(b.cache.DirtyBlocks(b.cfg.Root.FSID, n.h.Ino)) == 0 {
		n.size = a.Size
	} else if a.Size > n.size {
		n.size = a.Size
	}
}

// lookupRPC resolves one name in one directory.
func (b *Base) lookupRPC(p *sim.Proc, dir proto.Handle, name string) (proto.Handle, proto.Fattr, error) {
	body, err := b.call(p, proto.ProcLookup, &proto.DirOpArgs{Dir: dir, Name: name})
	if err != nil {
		return proto.Handle{}, proto.Fattr{}, err
	}
	r := proto.DecodeHandleReply(xdr.NewDecoder(body))
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
	if b.nameGet != nil {
		if h, ok := b.nameGet(dir, name); ok {
			if !needAttr {
				return h, proto.Fattr{}, true, nil
			}
			// The attribute layer serves this from cache when the
			// attributes are still fresh (piggybacking armed) and pays
			// the getattr otherwise — the vintage price.
			attr, _, err := b.attrs.get(p, b.getNode(h), !b.cfg.AttrPiggyback)
			if err == nil {
				return h, attr, true, nil
			}
			// Stale cached handle: fall through to a real lookup.
		}
	}
	h, attr, err = b.lookupRPC(p, dir, name)
	if err == nil && b.namePut != nil && attr.Type != uint32(localfs.TypeSymlink) {
		b.namePut(p, dir, name, h)
	}
	if err == nil && b.cfg.AttrPiggyback && attr.Type != uint32(localfs.TypeSymlink) {
		// Lookup replies carry server-fresh attributes; the vintage
		// client threw them away.
		b.attrs.ingest(b.getNode(h), attr, p.Now())
	}
	return h, attr, false, err
}

// readlinkRPC fetches a symlink's target.
func (b *Base) readlinkRPC(p *sim.Proc, h proto.Handle) (string, error) {
	body, err := b.call(p, proto.ProcReadlink, &proto.HandleArgs{Handle: h})
	if err != nil {
		return "", err
	}
	r := proto.DecodeReadlinkReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		return "", r.Status.Err()
	}
	return r.Target, nil
}

// maxSymlinkDepth bounds symlink chains during resolution.
const maxSymlinkDepth = 8

// resolveDir resolves a directory path component-at-a-time via lookup
// RPCs — the NFS/SNFS name translation the paper identifies as roughly
// half of all calls — through the one-entry cwd cache. Symlinked
// components are followed (relative targets against the containing
// directory, absolute ones against the mount root).
func (b *Base) resolveDir(p *sim.Proc, comps []string) (proto.Handle, error) {
	if len(comps) == 0 {
		return b.cfg.Root, nil
	}
	path := joinComps(comps)
	if b.lastDirValid && path == b.lastDirPath {
		return b.lastDir, nil
	}
	cur, _, err := b.walkComps(p, b.cfg.Root, comps, false, maxSymlinkDepth)
	if err != nil {
		return proto.Handle{}, err
	}
	b.lastDirPath = path
	b.lastDir = cur
	b.lastDirValid = true
	return cur, nil
}

// walkComps walks comps from dir, following symlinks by splicing their
// targets into the remaining components.
func (b *Base) walkComps(p *sim.Proc, dir proto.Handle, comps []string, needAttr bool, depth int) (proto.Handle, proto.Fattr, error) {
	if b.cfg.LookupPath && len(comps) > 1 && b.nameGet == nil {
		// Compound resolution: one RPC per symlink-free run. The name
		// cache keeps the per-component path — its hits are cheaper
		// than any RPC.
		return b.walkCompsPath(p, dir, comps, needAttr, depth)
	}
	cur := dir
	var attr proto.Fattr
	for i := 0; i < len(comps); i++ {
		last := i == len(comps)-1
		h, a, fromCache, err := b.lookup(p, cur, comps[i], needAttr && last)
		if err != nil {
			return proto.Handle{}, proto.Fattr{}, err
		}
		if !fromCache && a.Type == uint32(localfs.TypeSymlink) {
			if depth <= 0 {
				return proto.Handle{}, proto.Fattr{}, proto.ErrIO.Err()
			}
			depth--
			target, err := b.readlinkRPC(p, h)
			if err != nil {
				return proto.Handle{}, proto.Fattr{}, err
			}
			rest := comps[i+1:]
			tcomps := vfs.SplitPath(target)
			next := cur // relative: resolve against the link's directory
			if len(target) > 0 && target[0] == '/' {
				next = b.cfg.Root
			}
			spliced := make([]string, 0, len(tcomps)+len(rest))
			spliced = append(spliced, tcomps...)
			spliced = append(spliced, rest...)
			if len(spliced) == 0 {
				// A symlink to its own directory.
				cur = next
				attr = proto.Fattr{Type: uint32(localfs.TypeDirectory)}
				break
			}
			return b.walkComps(p, next, spliced, needAttr, depth)
		}
		cur, attr = h, a
	}
	return cur, attr, nil
}

// walkCompsPath resolves comps with one ProcLookupPath round trip per
// symlink-free run: the server walks as many components as it can and
// stops early at a symbolic link, which the client expands and splices
// exactly like the per-component walker.
func (b *Base) walkCompsPath(p *sim.Proc, dir proto.Handle, comps []string, needAttr bool, depth int) (proto.Handle, proto.Fattr, error) {
	body, err := b.call(p, proto.ProcLookupPath, &proto.LookupPathArgs{Dir: dir, Names: comps})
	if err != nil {
		return proto.Handle{}, proto.Fattr{}, err
	}
	r := proto.DecodeLookupPathReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		return proto.Handle{}, proto.Fattr{}, r.Status.Err()
	}
	if int(r.Resolved) > len(comps) || (int(r.Resolved) < len(comps) && r.Attr.Type != uint32(localfs.TypeSymlink)) {
		return proto.Handle{}, proto.Fattr{}, proto.ErrIO.Err()
	}
	if b.cfg.AttrPiggyback && r.Attr.Type != uint32(localfs.TypeSymlink) {
		b.attrs.ingest(b.getNode(r.Handle), r.Attr, p.Now())
	}
	if r.Attr.Type == uint32(localfs.TypeSymlink) {
		if depth <= 0 {
			return proto.Handle{}, proto.Fattr{}, proto.ErrIO.Err()
		}
		target, err := b.readlinkRPC(p, r.Handle)
		if err != nil {
			return proto.Handle{}, proto.Fattr{}, err
		}
		rest := comps[r.Resolved:]
		tcomps := vfs.SplitPath(target)
		next := r.Parent // relative: resolve against the link's directory
		if len(target) > 0 && target[0] == '/' {
			next = b.cfg.Root
		}
		spliced := make([]string, 0, len(tcomps)+len(rest))
		spliced = append(spliced, tcomps...)
		spliced = append(spliced, rest...)
		if len(spliced) == 0 {
			// A symlink to its own directory.
			return next, proto.Fattr{Type: uint32(localfs.TypeDirectory)}, nil
		}
		return b.walkComps(p, next, spliced, needAttr, depth-1)
	}
	return r.Handle, r.Attr, nil
}

func joinComps(comps []string) string {
	n := 0
	for _, c := range comps {
		n += len(c) + 1
	}
	buf := make([]byte, 0, n)
	for i, c := range comps {
		if i > 0 {
			buf = append(buf, '/')
		}
		buf = append(buf, c...)
	}
	return string(buf)
}

// invalidateDirCache drops the cwd cache (after namespace surgery).
func (b *Base) invalidateDirCache() { b.lastDirValid = false }

// DropDirCache invalidates the one-entry directory cache. Final-
// component walks already heal a stale cwd themselves (walkFor), but
// operations that send the cached parent handle straight to the server
// (create, mkdir, remove, rename, ...) surface its ESTALE to the
// caller; the cluster router drops the cache and retries so the fresh
// walk from the root can discover a migrated subtree's new home.
func (b *Base) DropDirCache() { b.invalidateDirCache() }

// walk resolves rel to a handle plus the attributes the final lookup
// returned.
func (b *Base) walk(p *sim.Proc, rel string) (proto.Handle, proto.Fattr, error) {
	return b.walkFor(p, rel, true)
}

// walkNoAttr resolves rel to a handle when the caller does not need
// fresh attributes (open paths get them from the open/create reply), so
// name-cache hits cost nothing.
func (b *Base) walkNoAttr(p *sim.Proc, rel string) (proto.Handle, error) {
	h, _, err := b.walkFor(p, rel, false)
	return h, err
}

func (b *Base) walkFor(p *sim.Proc, rel string, needAttr bool) (proto.Handle, proto.Fattr, error) {
	comps := vfs.SplitPath(rel)
	if len(comps) == 0 {
		var attr proto.Fattr
		attr.Type = 2 // the mount root is a directory
		attr.Fileid = b.cfg.Root.Ino
		return b.cfg.Root, attr, nil
	}
	dir, err := b.resolveDir(p, comps[:len(comps)-1])
	if err != nil {
		return proto.Handle{}, proto.Fattr{}, err
	}
	h, attr, err := b.walkComps(p, dir, comps[len(comps)-1:], needAttr, maxSymlinkDepth)
	if err != nil && proto.StatusOf(err) == proto.ErrStale && b.lastDirValid {
		// The cached directory went away; re-resolve from the root.
		b.invalidateDirCache()
		return b.walkFor(p, rel, needAttr)
	}
	return h, attr, err
}

// walkParent resolves all but the last component.
func (b *Base) walkParent(p *sim.Proc, rel string) (proto.Handle, string, error) {
	comps := vfs.SplitPath(rel)
	if len(comps) == 0 {
		return proto.Handle{}, "", proto.ErrInval.Err()
	}
	dir, err := b.resolveDir(p, comps[:len(comps)-1])
	if err != nil {
		return proto.Handle{}, "", err
	}
	return dir, comps[len(comps)-1], nil
}

// sortedNodes returns the known files in ascending ino order: map
// iteration order is randomized, and the order RPCs are issued in moves
// the simulated clock, so every loop that talks to the network per node
// needs a stable order.
func (b *Base) sortedNodes() []*node {
	nodes := make([]*node, 0, len(b.nodes))
	for _, n := range b.nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].h.Ino < nodes[j].h.Ino })
	return nodes
}

// key builds the cache key for a block of a file.
func (b *Base) key(ino uint64, blk int64) cache.Key {
	return cache.Key{FS: b.cfg.Root.FSID, Ino: ino, Block: blk}
}

// readRPC fetches [off, off+count) from the server and returns data plus
// the attributes piggybacked on the reply.
func (b *Base) readRPC(p *sim.Proc, h proto.Handle, off int64, count int) ([]byte, proto.Fattr, error) {
	body, err := b.call(p, proto.ProcRead, &proto.ReadArgs{Handle: h, Offset: off, Count: uint32(count)})
	if err != nil {
		return nil, proto.Fattr{}, err
	}
	r := proto.DecodeReadReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		return nil, proto.Fattr{}, r.Status.Err()
	}
	return r.Data, r.Attr, nil
}

// writeRPC sends [off, off+len(data)) to the server as a stable write:
// the data is on the server's disk when the reply arrives.
func (b *Base) writeRPC(p *sim.Proc, h proto.Handle, off int64, data []byte) (proto.Fattr, error) {
	body, err := b.call(p, proto.ProcWrite, &proto.WriteArgs{Handle: h, Offset: off, Data: data})
	if err != nil {
		return proto.Fattr{}, err
	}
	r := proto.DecodeWriteReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		return proto.Fattr{}, r.Status.Err()
	}
	return r.Attr, nil
}

// writeBack pushes one block-aligned extent to the server on behalf of
// node n, choosing the pipeline the mount is configured for: a plain
// stable write, or an unstable write whose data is retained locally
// until commit() succeeds.
func (b *Base) writeBack(p *sim.Proc, n *node, off int64, data []byte) (proto.Fattr, error) {
	if !b.cfg.UnstableWrites {
		return b.writeRPC(p, n.h, off, data)
	}
	body, err := b.call(p, proto.ProcWrite, &proto.WriteArgs{Handle: n.h, Offset: off, Data: data, Unstable: true})
	if err != nil {
		return proto.Fattr{}, err
	}
	r := proto.DecodeWriteReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		return proto.Fattr{}, r.Status.Err()
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
		cp := make([]byte, len(data))
		copy(cp, data)
		n.unstable[off] = cp
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
	body, err := b.call(p, proto.ProcCommit, &proto.CommitArgs{Handle: n.h})
	if err != nil {
		return err
	}
	r := proto.DecodeCommitReply(xdr.NewDecoder(body))
	if r.Status == proto.ErrStale {
		n.unstable, n.unstableVerifier = nil, 0
		return nil
	}
	if r.Status != proto.OK {
		return r.Status.Err()
	}
	if r.Verifier != n.unstableVerifier {
		offs := make([]int64, 0, len(n.unstable))
		for off := range n.unstable {
			offs = append(offs, off)
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		b.Tracer().Record(b.host(), trace.Crash,
			"commit verifier %d != %d: redriving %d blocks", r.Verifier, n.unstableVerifier, len(offs))
		b.redriveBlocks += int64(len(offs))
		for _, off := range offs {
			if _, err := b.writeRPC(p, n.h, off, n.unstable[off]); err != nil {
				return err
			}
		}
	}
	b.commitsSent++
	n.unstable, n.unstableVerifier = nil, 0
	return nil
}

// CommitsSent counts successful COMMIT rounds (stats/tests).
func (b *Base) CommitsSent() int64 { return b.commitsSent }

// RedriveBlocks counts blocks resent after a verifier mismatch.
func (b *Base) RedriveBlocks() int64 { return b.redriveBlocks }

// getattrRPC fetches fresh attributes. Only the attribute-cache layer
// calls this; everyone else goes through attrs.get.
func (b *Base) getattrRPC(p *sim.Proc, h proto.Handle) (proto.Fattr, error) {
	body, err := b.call(p, proto.ProcGetattr, &proto.HandleArgs{Handle: h})
	if err != nil {
		return proto.Fattr{}, err
	}
	r := proto.DecodeAttrReply(xdr.NewDecoder(body))
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

// decodeWcc interprets a remove/rename/close reply: a WccReply when the
// request asked for post-op attributes (piggybacking armed), a bare
// StatusReply otherwise. Wcc attributes feed the attribute cache.
func (b *Base) decodeWcc(p *sim.Proc, body []byte) proto.Status {
	if !b.cfg.AttrPiggyback {
		return proto.DecodeStatusReply(xdr.NewDecoder(body)).Status
	}
	r := proto.DecodeWccReply(xdr.NewDecoder(body))
	b.ingestWcc(p, r.Wcc)
	return r.Status
}

// readdirAttrs lists a directory READDIRPLUS-style, priming the
// attribute cache with every entry's attributes (piggybacking armed).
func (b *Base) readdirAttrs(p *sim.Proc, h proto.Handle) ([]proto.DirEntry, error) {
	body, err := b.call(p, proto.ProcReaddirAttrs, &proto.HandleArgs{Handle: h})
	if err != nil {
		return nil, err
	}
	r := proto.DecodeReaddirAttrsReply(xdr.NewDecoder(body))
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
// returns it, waiting instead of duplicating the RPC when a fetch is
// already in flight. The block's Len reflects how many bytes the server
// had.
func (b *Base) fetchBlock(p *sim.Proc, n *node, blk int64) (*cache.Block, error) {
	sp := b.span(p, span.Cache, "fetch")
	defer sp.End()
	key := b.key(n.h.Ino, blk)
	if sig, busy := b.fetching[key]; busy {
		sig.Wait(p)
		if cb, ok := b.cache.Lookup(key); ok {
			return cb, nil
		}
		// The other fetch failed or the block was immediately
		// evicted; fall through and fetch ourselves.
	}
	sig := sim.NewSignal(b.k)
	b.fetching[key] = sig
	defer func() {
		delete(b.fetching, key)
		sig.Fire(nil)
	}()
	bs := b.cfg.BlockSize
	off := blk * int64(bs)
	data, rattr, err := b.readRPC(p, n.h, off, bs)
	if err != nil {
		return nil, err
	}
	if b.cfg.AttrPiggyback {
		// Read replies carry fresh attributes; ingest before inserting
		// the block so a detected third-party change cannot invalidate
		// the data just fetched.
		b.attrs.ingest(n, rattr, p.Now())
	}
	buf := make([]byte, bs)
	copy(buf, data)
	blkPtr, evicted := b.cache.Insert(key, buf, len(data))
	b.flushEvicted(p, evicted)
	return blkPtr, nil
}

// flushEvicted writes back dirty blocks displaced by an insertion. The
// evicting process pays for the writes (as a Unix process taking a buffer
// must wait for it to be cleaned).
func (b *Base) flushEvicted(p *sim.Proc, evicted []*cache.Block) {
	for _, ev := range evicted {
		if !ev.Dirty {
			continue
		}
		n, ok := b.nodes[ev.Key.Ino]
		if !ok {
			continue
		}
		off := ev.Key.Block * int64(b.cfg.BlockSize)
		if _, err := b.writeBack(p, n, off, ev.Data[:ev.Len]); err != nil {
			// The file may have been removed under us; the data
			// is gone either way.
			continue
		}
	}
}

// assembleRead serves [off, off+count) from cached blocks, fetching
// misses, honoring the node's size view. fetch reports whether misses may
// be cached (false forces direct server reads — the SNFS uncachable
// path uses its own code, so fetch here is always true).
func (b *Base) assembleRead(p *sim.Proc, n *node, off int64, count int, readAhead bool) ([]byte, error) {
	size := n.size
	if off >= size {
		return nil, nil
	}
	end := off + int64(count)
	if end > size {
		end = size
	}
	bs := int64(b.cfg.BlockSize)
	out := make([]byte, 0, end-off)
	for cur := off; cur < end; {
		blk := cur / bs
		blkOff := cur % bs
		blkEnd := bs
		if blk*bs+blkEnd > end {
			blkEnd = end - blk*bs
		}
		cb, ok := b.cache.Lookup(b.key(n.h.Ino, blk))
		if !ok {
			var err error
			cb, err = b.fetchBlock(p, n, blk)
			if err != nil {
				return nil, err
			}
			if readAhead {
				b.readAhead(n, blk+1)
			}
		}
		// Bytes beyond cb.Len are zeros (sparse or locally
		// extended); cb.Data is always blockSize long.
		out = append(out, cb.Data[blkOff:blkEnd]...)
		cur = blk*bs + blkEnd
	}
	return out, nil
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
	b.k.Go(fmt.Sprintf("biod-ra/%d.%d", n.h.Ino, blk), func(p *sim.Proc) {
		if b.spans != nil {
			// Tag the prefetcher with the reading syscall's op (spans
			// armed only) so the read-ahead traces under that op.
			p.SetOp(op)
		}
		defer b.biods.Release()
		if b.cache.Contains(key) {
			return
		}
		b.fetchBlock(p, n, blk)
	})
}

// writeToCache applies data at off to the cache for node n, performing
// read-modify-write fetches when a partial write lands on a non-resident
// block that has server content. It returns the list of block numbers
// touched. markDirty controls whether touched blocks become dirty (SNFS
// delayed writes) or stay clean (NFS write-through keeps the cache clean
// copy while the data goes to the server separately).
func (b *Base) writeToCache(p *sim.Proc, n *node, off int64, data []byte, markDirty bool) ([]int64, error) {
	bs := int64(b.cfg.BlockSize)
	end := off + int64(len(data))
	var touched []int64
	for cur := off; cur < end; {
		blk := cur / bs
		blkStart := blk * bs
		segEnd := blkStart + bs
		if segEnd > end {
			segEnd = end
		}
		key := b.key(n.h.Ino, blk)
		cb, ok := b.cache.Lookup(key)
		if !ok {
			// If the block holds server content the write does
			// not fully cover, fetch it first (read-modify-
			// write); otherwise start from a zero block.
			contentEnd := n.size
			if contentEnd > blkStart+bs {
				contentEnd = blkStart + bs
			}
			needsFetch := contentEnd > blkStart && (cur > blkStart || segEnd < contentEnd)
			if needsFetch {
				var err error
				cb, err = b.fetchBlock(p, n, blk)
				if err != nil {
					return nil, err
				}
			} else {
				buf := make([]byte, bs)
				var evicted []*cache.Block
				cb, evicted = b.cache.Insert(key, buf, 0)
				b.flushEvicted(p, evicted)
			}
		}
		copy(cb.Data[cur-blkStart:segEnd-blkStart], data[cur-off:segEnd-off])
		if int(segEnd-blkStart) > cb.Len {
			cb.Len = int(segEnd - blkStart)
		}
		if markDirty {
			b.cache.MarkDirty(key, p.Now())
		}
		touched = append(touched, blk)
		cur = segEnd
	}
	if end > n.size {
		n.size = end
	}
	return touched, nil
}

// flushBlockSync writes one dirty block back synchronously.
func (b *Base) flushBlockSync(p *sim.Proc, n *node, blk int64) error {
	key := b.key(n.h.Ino, blk)
	cb, ok := b.cache.Lookup(key)
	if !ok || !cb.Dirty {
		return nil
	}
	off, gen := blk*int64(b.cfg.BlockSize), cb.Gen
	attr, err := b.writeBack(p, n, off, cb.Data[:cb.Len])
	if err != nil {
		return err
	}
	b.cache.MarkCleanIf(key, gen)
	b.attrs.ingestOwn(n, attr, p.Now())
	return nil
}

// pushBlockAsync hands a completed block to a biod (write-through without
// blocking the application); with no biod free the caller writes
// synchronously, as Unix did.
func (b *Base) pushBlockAsync(p *sim.Proc, n *node, blk int64) error {
	key := b.key(n.h.Ino, blk)
	cb, ok := b.cache.Lookup(key)
	if !ok || !cb.Dirty {
		return nil
	}
	if !b.biods.TryAcquire() {
		return b.flushBlockSync(p, n, blk)
	}
	n.pending.Add(1)
	data := make([]byte, cb.Len)
	copy(data, cb.Data[:cb.Len])
	b.cache.MarkClean(key)
	off := blk * int64(b.cfg.BlockSize)
	op := p.Op()
	b.k.Go("biod-w", func(wp *sim.Proc) {
		if b.spans != nil {
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
	touched, err := b.writeToCache(p, n, off, data, true)
	if err != nil {
		return 0, err
	}
	for _, blk := range touched {
		cb, ok := b.cache.Lookup(b.key(n.h.Ino, blk))
		if !ok || !cb.Dirty {
			continue
		}
		if cb.Len == b.cfg.BlockSize {
			err = b.pushBlockAsync(p, n, blk)
		} else if eagerTail {
			err = b.flushBlockSync(p, n, blk)
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
func (b *Base) syncFile(p *sim.Proc, n *node, what string) error {
	var err error
	for _, blk := range b.cache.DirtyBlocks(b.cfg.Root.FSID, n.h.Ino) {
		if e := b.flushBlockSync(p, n, blk.Key.Block); e != nil && err == nil {
			err = e
		}
	}
	bw := b.span(p, span.BiodWait, what)
	n.pending.Wait(p)
	bw.End()
	if e := b.commit(p, n); e != nil && err == nil {
		err = e
	}
	if n.werr != nil && err == nil {
		err = n.werr
		n.werr = nil
	}
	return err
}

// flushBlocks is one update pass over the given dirty blocks: each
// streams to the server, then one COMMIT per touched file lands them in
// gathered arm operations. Every block is re-validated immediately
// before its write — a callback or a delete arriving while an earlier
// write was in flight may have cancelled it — and a block whose write
// fails stays dirty for the next pass.
func (b *Base) flushBlocks(p *sim.Proc, blocks []*cache.Block) {
	var flushed []*node
	for _, blk := range blocks {
		cur, ok := b.cache.Lookup(blk.Key)
		if !ok || !cur.Dirty {
			continue
		}
		n, ok := b.nodes[blk.Key.Ino]
		if !ok {
			b.cache.MarkClean(blk.Key)
			continue
		}
		off, gen := blk.Key.Block*int64(b.cfg.BlockSize), cur.Gen
		if _, err := b.writeBack(p, n, off, cur.Data[:cur.Len]); err != nil {
			continue
		}
		// blocks arrive in file order, so one file's are adjacent.
		if len(flushed) == 0 || flushed[len(flushed)-1] != n {
			flushed = append(flushed, n)
		}
		b.cache.MarkCleanIf(blk.Key, gen)
	}
	for _, n := range flushed {
		b.commit(p, n)
	}
}

// SyncAll implements vfs.FS as one explicit update pass over every dirty
// block. (NFS overrides it: its blocks are mostly in flight on the biods,
// not dirty in the cache.)
func (b *Base) SyncAll(p *sim.Proc) {
	p.BeginOp()
	b.flushBlocks(p, b.cache.AllDirty())
}

// fileAttr returns an open file's attributes through the attribute
// cache, with the length this client's own unflushed writes have reached
// (never for a write-shared file, whose length other writers move).
func (b *Base) fileAttr(p *sim.Proc, n *node) (proto.Fattr, error) {
	a, _, err := b.attrs.get(p, n, false)
	if err != nil {
		return proto.Fattr{}, err
	}
	if n.size > a.Size && !b.attrs.writeShared(n) {
		a.Size = n.size
	}
	return a, nil
}

// closeRPC reports a close to a server that tracks opens.
func (b *Base) closeRPC(p *sim.Proc, h proto.Handle, write bool) error {
	body, err := b.call(p, proto.ProcClose, &proto.CloseArgs{
		Handle: h, WriteMode: write, WantAttr: b.cfg.AttrPiggyback,
	})
	if err != nil {
		return err
	}
	return b.decodeWcc(p, body).Err()
}

// list fetches a directory's entries with one RPC: READDIRPLUS-style when
// piggybacking is armed (priming the attribute cache for the stats that
// typically follow a listing), the plain readdir otherwise.
func (b *Base) list(p *sim.Proc, h proto.Handle) ([]proto.DirEntry, error) {
	if b.cfg.AttrPiggyback {
		return b.readdirAttrs(p, h)
	}
	body, err := b.call(p, proto.ProcReaddir, &proto.HandleArgs{Handle: h})
	if err != nil {
		return nil, err
	}
	r := proto.DecodeReaddirReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		return nil, r.Status.Err()
	}
	return r.Entries, nil
}

// listOpened lists rel as a server that tracks opens sees it: the GFS
// layer opens directories like files, so open and close RPCs bracket the
// listing — the source of SNFS's small ScanDir handicap in Table 5-1.
// open is the caller's open RPC.
func (b *Base) listOpened(p *sim.Proc, rel string, open func(p *sim.Proc, n *node, write bool) error) ([]proto.DirEntry, error) {
	h, err := b.walkNoAttr(p, rel)
	if err != nil {
		return nil, err
	}
	n := b.getNode(h)
	if err := open(p, n, false); err != nil {
		return nil, err
	}
	entries, err := b.list(p, h)
	n.rec.Close(false)
	if cerr := b.closeRPC(p, h, false); cerr != nil && err == nil {
		err = cerr
	}
	return entries, err
}

// create is the create arm of an open; it returns the file's node.
func (b *Base) create(p *sim.Proc, rel string, mode uint32) (*node, error) {
	dir, name, err := b.walkParent(p, rel)
	if err != nil {
		return nil, err
	}
	body, err := b.call(p, proto.ProcCreate, &proto.CreateArgs{Dir: dir, Name: name, Mode: mode})
	if err != nil {
		return nil, err
	}
	r := proto.DecodeHandleReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		return nil, r.Status.Err()
	}
	n := b.getNode(r.Handle)
	// The server's create truncates a file that already exists.
	b.emptied(p, n, r.Attr)
	if b.nameSet != nil {
		b.nameSet(dir, name, r.Handle)
	}
	return n, nil
}

// truncate is the truncate arm of an open.
func (b *Base) truncate(p *sim.Proc, n *node) error {
	body, err := b.call(p, proto.ProcSetattr, &proto.SetattrArgs{Handle: n.h, SetSize: true, Size: 0})
	if err != nil {
		return err
	}
	r := proto.DecodeAttrReply(xdr.NewDecoder(body))
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
	p.BeginOp()
	dir, name, err := b.walkParent(p, rel)
	if err != nil {
		return err
	}
	body, err := b.call(p, proto.ProcMkdir, &proto.CreateArgs{Dir: dir, Name: name, Mode: mode})
	if err != nil {
		return err
	}
	r := proto.DecodeHandleReply(xdr.NewDecoder(body))
	if r.Status == proto.OK && b.nameSet != nil {
		b.nameSet(dir, name, r.Handle)
	}
	return r.Status.Err()
}

// Remove implements vfs.FS. Writes already sent to the server cannot be
// recalled; what the client still holds for a file whose last link goes
// is dropped — the temp-file optimization the sort benchmark turns on
// when those are delayed writes (§4.2.3).
func (b *Base) Remove(p *sim.Proc, rel string) error {
	p.BeginOp()
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
	if lastLink && b.cancelOnRemove {
		b.cache.CancelDirty(b.cfg.Root.FSID, h.Ino)
	}
	body, err := b.call(p, proto.ProcRemove, &proto.DirOpArgs{
		Dir: dir, Name: name, WantAttr: b.cfg.AttrPiggyback,
	})
	if err != nil {
		return err
	}
	if st := b.decodeWcc(p, body); st != proto.OK {
		return st.Err()
	}
	if b.nameSet != nil {
		b.nameSet(dir, name, proto.Handle{})
	}
	if lastLink {
		b.cache.InvalidateFile(b.cfg.Root.FSID, h.Ino)
		delete(b.nodes, h.Ino)
		if b.nameForget != nil {
			b.nameForget(h) // in case it was a cached directory handle
		}
	}
	return nil
}

// Rmdir implements vfs.FS.
func (b *Base) Rmdir(p *sim.Proc, rel string) error {
	p.BeginOp()
	dir, name, err := b.walkParent(p, rel)
	if err != nil {
		return err
	}
	body, err := b.call(p, proto.ProcRmdir, &proto.DirOpArgs{Dir: dir, Name: name})
	if err != nil {
		return err
	}
	b.invalidateDirCache()
	st := proto.DecodeStatusReply(xdr.NewDecoder(body)).Status
	if st == proto.OK && b.nameSet != nil {
		b.nameSet(dir, name, proto.Handle{})
	}
	return st.Err()
}

// Rename implements vfs.FS.
func (b *Base) Rename(p *sim.Proc, oldrel, newrel string) error {
	p.BeginOp()
	sdir, sname, err := b.walkParent(p, oldrel)
	if err != nil {
		return err
	}
	ddir, dname, err := b.walkParent(p, newrel)
	if err != nil {
		return err
	}
	body, err := b.call(p, proto.ProcRename, &proto.RenameArgs{
		SrcDir: sdir, SrcName: sname, DstDir: ddir, DstName: dname,
		WantAttr: b.cfg.AttrPiggyback,
	})
	if err != nil {
		return err
	}
	b.invalidateDirCache()
	st := b.decodeWcc(p, body)
	if st == proto.OK && b.nameForget != nil {
		// Conservative: forget both directories' translations rather
		// than compute the moved handle.
		b.nameForget(sdir)
		b.nameForget(ddir)
	}
	return st.Err()
}

// Stat implements vfs.FS: path resolution alone delivers attributes.
func (b *Base) Stat(p *sim.Proc, rel string) (proto.Fattr, error) {
	p.BeginOp()
	_, attr, err := b.walk(p, rel)
	return attr, err
}

// Link creates a hard link newrel to the file at oldrel.
func (b *Base) Link(p *sim.Proc, oldrel, newrel string) error {
	p.BeginOp()
	from, _, err := b.walk(p, oldrel)
	if err != nil {
		return err
	}
	dir, name, err := b.walkParent(p, newrel)
	if err != nil {
		return err
	}
	body, err := b.call(p, proto.ProcLink, &proto.LinkArgs{From: from, ToDir: dir, ToName: name})
	if err != nil {
		return err
	}
	return proto.DecodeStatusReply(xdr.NewDecoder(body)).Status.Err()
}

// Symlink creates a symbolic link at linkrel pointing to target.
func (b *Base) Symlink(p *sim.Proc, target, linkrel string) error {
	p.BeginOp()
	dir, name, err := b.walkParent(p, linkrel)
	if err != nil {
		return err
	}
	body, err := b.call(p, proto.ProcSymlink, &proto.SymlinkArgs{Dir: dir, Name: name, Target: target})
	if err != nil {
		return err
	}
	return proto.DecodeHandleReply(xdr.NewDecoder(body)).Status.Err()
}

// Readlink returns the target of the symlink at rel (final component not
// followed).
func (b *Base) Readlink(p *sim.Proc, rel string) (string, error) {
	p.BeginOp()
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
