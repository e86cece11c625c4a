package client

import (
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/xdr"
)

// RFSClient is the System V Remote File Sharing client of §2.5: the
// NFS write policy (write-through via the biods, synchronous flush on
// close) combined with statefulness — open/close RPCs, read caching that
// survives close under version validation, no attribute probes (the
// server's invalidate-on-write callbacks make them unnecessary), and a
// callback service that only ever invalidates.
type RFSClient struct {
	*Base
	// CallbacksServed counts invalidations handled.
	CallbacksServed int64
}

// NewRFS creates an RFS client talking to cfg.Server through ep.
func NewRFS(k *sim.Kernel, ep *rpc.Endpoint, cfg Config) *RFSClient {
	c := &RFSClient{Base: newBase(k, ep, cfg)}
	// No probes: cached attributes hold until a callback clears them.
	c.attrs.policy = attrPolicyProtocol
	ep.RegisterMsg(proto.ProgCallback, c.serveCallback)
	return c
}

// serveCallback handles the server's invalidate-on-write messages.
func (c *RFSClient) serveCallback(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) (proto.Message, rpc.Status) {
	if proc == proto.CbProcNull {
		return &proto.StatusReply{Status: proto.OK}, rpc.StatusOK
	}
	if proc != proto.CbProcCallback {
		return nil, rpc.StatusProcUnavail
	}
	a := proto.DecodeCallbackArgs(xdr.NewDecoder(args))
	c.CallbacksServed++
	c.Tracer().Record(c.host(), trace.Callback, "<- rfs invalidate %s", a.Handle)
	if n, ok := c.nodes[a.Handle.Ino]; ok && n.h == a.Handle {
		// RFS clients hold no delayed data beyond partial write
		// tails, and only the writer has those; an invalidation
		// target is a reader, so dropping is safe. (Flush first
		// defensively if anything is dirty.)
		for _, blk := range c.cache.DirtyBlocks(c.cfg.Root.FSID, n.h.Ino) {
			off := blk.Key.Block * int64(c.cfg.BlockSize)
			if _, err := c.writeRPC(p, n.h, off, blk.Data[:blk.Len]); err != nil {
				break
			}
			c.cache.MarkClean(blk.Key)
		}
		c.cache.InvalidateFile(c.cfg.Root.FSID, n.h.Ino)
		// Attributes may be stale now too.
		n.attrInit = false
	}
	return &proto.StatusReply{Status: proto.OK}, rpc.StatusOK
}

// openRPC registers an open and reconciles the version numbers.
func (c *RFSClient) openRPC(p *sim.Proc, n *node, write bool) error {
	body, err := c.call(p, proto.ProcOpen, &proto.OpenArgs{Handle: n.h, WriteMode: write})
	if err != nil {
		return err
	}
	reply := proto.DecodeOpenReply(xdr.NewDecoder(body))
	if reply.Status != proto.OK {
		return reply.Status.Err()
	}
	if !n.rec.Open(reply, write) {
		c.cache.InvalidateFile(c.cfg.Root.FSID, n.h.Ino)
	}
	c.setAttr(n, reply.Attr, p.Now())
	return nil
}

// Open implements vfs.FS.
func (c *RFSClient) Open(p *sim.Proc, rel string, flags vfs.Flags, mode uint32) (vfs.File, error) {
	p.BeginOp()
	write := flags.Writing()
	var n *node
	if flags&vfs.Create != 0 {
		var err error
		if n, err = c.create(p, rel, mode); err != nil {
			return nil, err
		}
	} else {
		h, err := c.walkNoAttr(p, rel)
		if err != nil {
			return nil, err
		}
		n = c.getNode(h)
	}
	if err := c.openRPC(p, n, write); err != nil {
		return nil, err
	}
	if flags&vfs.Truncate != 0 && flags&vfs.Create == 0 {
		if err := c.truncate(p, n); err != nil {
			return nil, err
		}
	}
	n.opens++
	return &rfsFile{c: c, n: n, write: write}, nil
}

// Readdir implements vfs.FS (the GFS layer opens directories, so RFS
// pays open/close like SNFS).
func (c *RFSClient) Readdir(p *sim.Proc, rel string) ([]proto.DirEntry, error) {
	p.BeginOp()
	return c.listOpened(p, rel, c.openRPC)
}

// rfsFile is an open RFS file.
type rfsFile struct {
	c      *RFSClient
	n      *node
	write  bool
	closed bool
}

// ReadAt implements vfs.File: cached reads, no probes — the server's
// invalidations keep the cache honest. After an invalidation the
// attributes (hence the size bound for reads) are refetched once.
func (f *rfsFile) ReadAt(p *sim.Proc, off int64, count int) ([]byte, error) {
	p.BeginOp()
	if _, _, err := f.c.attrs.get(p, f.n, false); err != nil {
		return nil, err
	}
	return f.c.assembleRead(p, f.n, off, count, f.c.cfg.ReadAhead)
}

// WriteAt implements vfs.File: strict write-through — every write is
// pushed promptly (§2.5: "clients write-through to the server, so the
// only possible inconsistency is between the server and readers"). Full
// blocks go via the biods; the partial tail follows synchronously rather
// than lingering, because the server's invalidate-on-write depends on
// writes actually arriving.
func (f *rfsFile) WriteAt(p *sim.Proc, off int64, data []byte) (int, error) {
	p.BeginOp()
	return f.c.writeThrough(p, f.n, off, data, true)
}

// Close implements vfs.File: flush pending writes synchronously (the NFS
// policy), then report the close; the read cache is retained.
func (f *rfsFile) Close(p *sim.Proc) error {
	p.BeginOp()
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.c.syncFile(p, f.n, "close")
	f.n.opens--
	f.n.rec.Close(f.write)
	if cerr := f.c.closeRPC(p, f.n.h, f.write); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Sync implements vfs.File.
func (f *rfsFile) Sync(p *sim.Proc) error {
	p.BeginOp()
	return f.c.syncFile(p, f.n, "sync")
}

// Attr implements vfs.File: cached attributes, refreshed when an
// invalidation clears them.
func (f *rfsFile) Attr(p *sim.Proc) (proto.Fattr, error) {
	p.BeginOp()
	return f.c.fileAttr(p, f.n)
}
