package client

import (
	"spritelynfs/internal/core"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/xdr"
)

// RFSClient is the System V Remote File Sharing client of §2.5: the
// NFS write policy (write-through via the biods, synchronous flush on
// close) combined with statefulness — open/close RPCs, read caching that
// survives close under version validation, no attribute probes (the
// server's invalidate-on-write callbacks make them unnecessary), and a
// callback service that invalidates.
type RFSClient struct {
	*Base
}

// NewRFS creates an RFS client talking to cfg.Server through ep.
func NewRFS(k *sim.Kernel, ep *rpc.Endpoint, cfg Config) *RFSClient {
	c := &RFSClient{Base: newBase(k, ep, cfg)}
	// No probes: cached attributes hold until a callback clears them.
	c.attrs.policy = attrPolicyProtocol
	c.serveCallbacks(c)
	return c
}

// callback is RFS's part of the callback service: the server's
// invalidate-on-write messages, sent to every other caching client,
// writers too. Caching stays on. A writer's dirty blocks of a write in
// progress (a read-modify-write fetch yields) go home before the blocks
// go, and the attributes go stale with them.
func (c *RFSClient) callback(p *sim.Proc, a proto.CallbackArgs, n *node) proto.Status {
	if n == nil {
		return proto.OK
	}
	err := c.apply(p, n, core.Action{Flush: true, Invalidate: true}, false)
	n.attrInit = false
	if err != nil {
		return proto.ErrIO
	}
	return proto.OK
}

// openRPC registers an open and reconciles the version numbers.
func (c *RFSClient) openRPC(p *sim.Proc, n *node, write bool) error {
	body, err := c.call(p, proto.ProcOpen, (&proto.OpenArgs{Handle: n.h, WriteMode: write}).XDR)
	if err != nil {
		return err
	}
	var reply proto.OpenReply
	reply.XDR(xdr.NewDecoder(body).Codec())
	if reply.Status != proto.OK {
		return reply.Status.Err()
	}
	// Every opener may cache: the Action never writes back.
	c.apply(p, n, n.rec.Open(reply, write), false)
	c.setAttr(n, reply.Attr, p.Now())
	return nil
}

// Open implements vfs.FS.
func (c *RFSClient) Open(p *sim.Proc, rel string, flags vfs.Flags, mode uint32) (vfs.File, error) {
	defer c.syscall(p, "open").End()
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
	defer c.syscall(p, "readdir").End()
	return c.listOpened(p, rel, c.openRPC)
}

// rfsFile is an open RFS file.
type rfsFile struct {
	c      *RFSClient
	n      *node
	write  bool
	closed bool
}

// ReadInto implements vfs.File: cached reads, no probes — the server's
// invalidations keep the cache honest. After an invalidation the
// attributes (hence the size bound for reads) are refetched once.
func (f *rfsFile) ReadInto(p *sim.Proc, b []byte, off int64) (int, error) {
	defer f.c.syscall(p, "read").End()
	if _, _, err := f.c.attrs.get(p, f.n, false); err != nil {
		return 0, err
	}
	return f.c.assembleRead(p, f.n, b, off, f.c.cfg.ReadAhead)
}

// ReadAt implements vfs.File; it stays only for bench/probes.go, until
// ROADMAP's benchmark item (vi).
func (f *rfsFile) ReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	return vfs.ReadAt(p, f, off, n)
}

// WriteAt implements vfs.File: strict write-through — every write is
// pushed promptly (§2.5: "clients write-through to the server, so the
// only possible inconsistency is between the server and readers"). Full
// blocks go via the biods; the partial tail follows synchronously rather
// than lingering, because the server's invalidate-on-write depends on
// writes actually arriving.
func (f *rfsFile) WriteAt(p *sim.Proc, off int64, data []byte) (int, error) {
	defer f.c.syscall(p, "write").End()
	return f.c.writeThrough(p, f.n, off, data, true)
}

// Close implements vfs.File: flush pending writes synchronously (the NFS
// policy), then report the close; the read cache is retained.
func (f *rfsFile) Close(p *sim.Proc) error {
	defer f.c.syscall(p, "close").End()
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
	defer f.c.syscall(p, "sync").End()
	return f.c.syncFile(p, f.n, "sync")
}

// Attr implements vfs.File: cached attributes, refreshed when an
// invalidation clears them.
func (f *rfsFile) Attr(p *sim.Proc) (proto.Fattr, error) {
	defer f.c.syscall(p, "attr").End()
	return f.c.fileAttr(p, f.n)
}
