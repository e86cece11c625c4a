package client

import (
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/span"
	"spritelynfs/internal/vfs"
)

// NFSOptions tunes the NFS client's consistency behaviour.
type NFSOptions struct {
	// InvalidateOnClose reproduces the bug in the paper's (several-
	// years-old) reference port: the client data cache is invalidated
	// when a file is closed, so write-then-reopen-then-read misses.
	// The paper attributes much of NFS's excess read traffic to it
	// (§5.2); later NFS releases fixed it. Default false; the harness
	// sets it to reproduce the measured configuration.
	InvalidateOnClose bool
	// ProbeMin/ProbeMax bound the adaptive attribute-cache timeout
	// (Ultrix probed every 3 to 150 seconds depending on file
	// history). Zero means 3 s / 150 s.
	ProbeMin sim.Duration
	ProbeMax sim.Duration
}

func (o *NFSOptions) fill() {
	if o.ProbeMin == 0 {
		o.ProbeMin = 3 * sim.Second
	}
	if o.ProbeMax == 0 {
		o.ProbeMax = 150 * sim.Second
	}
}

// NFSClient is the unmodified NFS client file system.
type NFSClient struct {
	*Base
	opts NFSOptions
}

// NewNFS creates an NFS client talking to cfg.Server through ep.
func NewNFS(k *sim.Kernel, ep *rpc.Endpoint, cfg Config, opts NFSOptions) *NFSClient {
	opts.fill()
	c := &NFSClient{Base: newBase(k, ep, cfg), opts: opts}
	c.attrs.policy = attrPolicyProbe
	c.attrs.probeMin = opts.ProbeMin
	c.attrs.probeMax = opts.ProbeMax
	return c
}

// revalidate refreshes attributes if the cache interval expired (or force
// is set — the on-open check). The attribute layer applies the probe
// policy and invalidates cached data when a third-party mtime change is
// observed (attrCache.observedChange).
func (c *NFSClient) revalidate(p *sim.Proc, n *node, force bool) error {
	_, _, err := c.attrs.get(p, n, force)
	return err
}

// Open implements vfs.FS.
func (c *NFSClient) Open(p *sim.Proc, rel string, flags vfs.Flags, mode uint32) (vfs.File, error) {
	p.BeginOp()
	var n *node
	if flags&vfs.Create != 0 {
		var err error
		if n, err = c.create(p, rel, mode); err != nil {
			return nil, err
		}
	} else {
		h, wattr, err := c.walk(p, rel)
		if err != nil {
			return nil, err
		}
		n = c.getNode(h)
		if err := c.openCheck(p, n, wattr); err != nil {
			return nil, err
		}
		if flags&vfs.Truncate != 0 && !n.attr.IsDir() {
			if err := c.truncate(p, n); err != nil {
				return nil, err
			}
		}
	}
	n.opens++
	return &nfsFile{c: c, n: n, writing: flags.Writing()}, nil
}

// openCheck is the consistency check made each time a file is opened
// (§2.1): a getattr, unless the walk's final-lookup attributes already
// performed it. With piggybacking armed the lookup reply's attributes are
// exactly as server-fresh as the getattr would be, and Base.lookup
// ingested them (with the mtime-invalidate rule) moments ago, so the
// getattr is pure chatter — the reduction the RPC-count experiment
// tracks. Root walks synthesize attributes locally and so still need the
// real check.
func (c *NFSClient) openCheck(p *sim.Proc, n *node, wattr proto.Fattr) error {
	if c.cfg.AttrPiggyback && n.attrInit && wattr.Fileid == n.h.Ino && n.h != c.cfg.Root {
		return nil
	}
	return c.revalidate(p, n, true)
}

// Readdir implements vfs.FS: the GFS open of the directory triggers the
// usual open-time check, then one readdir call.
func (c *NFSClient) Readdir(p *sim.Proc, rel string) ([]proto.DirEntry, error) {
	p.BeginOp()
	h, wattr, err := c.walk(p, rel)
	if err != nil {
		return nil, err
	}
	if err := c.openCheck(p, c.getNode(h), wattr); err != nil {
		return nil, err
	}
	return c.list(p, h)
}

// SyncAll implements vfs.FS: flush delayed partial blocks, wait for the
// biods, then one COMMIT per file with unstable data outstanding —
// instead of the N synchronous waits the stable pipeline pays.
func (c *NFSClient) SyncAll(p *sim.Proc) {
	p.BeginOp()
	for _, blk := range c.cache.AllDirty() {
		n, ok := c.nodes[blk.Key.Ino]
		if !ok {
			c.cache.MarkClean(blk.Key)
			continue
		}
		c.flushBlockSync(p, n, blk.Key.Block)
	}
	nodes := c.sortedNodes()
	for _, n := range nodes {
		sp := c.span(p, span.BiodWait, "syncall")
		n.pending.Wait(p)
		sp.End()
	}
	for _, n := range nodes {
		c.commit(p, n)
	}
}

// nfsFile is an open NFS file.
type nfsFile struct {
	c       *NFSClient
	n       *node
	writing bool
	closed  bool
}

// Handle exposes the protocol-level handle (audit.Handled).
func (f *nfsFile) Handle() proto.Handle { return f.n.h }

// ReadAt implements vfs.File.
func (f *nfsFile) ReadAt(p *sim.Proc, off int64, count int) ([]byte, error) {
	p.BeginOp()
	if err := f.c.revalidate(p, f.n, false); err != nil {
		return nil, err
	}
	return f.c.assembleRead(p, f.n, off, count, f.c.cfg.ReadAhead)
}

// WriteAt implements vfs.File: write-through, the partial tail block
// delayed until it fills or the file closes.
func (f *nfsFile) WriteAt(p *sim.Proc, off int64, data []byte) (int, error) {
	p.BeginOp()
	return f.c.writeThrough(p, f.n, off, data, false)
}

// Close implements vfs.File: all pending write-throughs finish
// synchronously before close returns (§2.1), and — when the measured
// bug is enabled — the data cache is invalidated.
func (f *nfsFile) Close(p *sim.Proc) error {
	p.BeginOp()
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.c.syncFile(p, f.n, "close")
	f.n.opens--
	if f.c.opts.InvalidateOnClose && f.n.opens <= 0 {
		f.c.cache.InvalidateFile(f.c.cfg.Root.FSID, f.n.h.Ino)
	}
	return err
}

// Sync implements vfs.File.
func (f *nfsFile) Sync(p *sim.Proc) error {
	p.BeginOp()
	return f.c.syncFile(p, f.n, "sync")
}

// Attr implements vfs.File.
func (f *nfsFile) Attr(p *sim.Proc) (proto.Fattr, error) {
	p.BeginOp()
	return f.c.fileAttr(p, f.n)
}
