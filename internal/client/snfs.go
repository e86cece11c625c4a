package client

import (
	"bytes"
	"sort"

	"spritelynfs/internal/core"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/span"
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/xdr"
)

// SNFSOptions tunes the Spritely client.
type SNFSOptions struct {
	// UpdateInterval is the period of the update daemon that flushes
	// delayed writes (the /etc/update analogue, §4.2.3). Zero disables
	// it entirely — the "infinite write-delay" configuration of
	// Table 5-5.
	UpdateInterval sim.Duration
	// AgeBased selects the Sprite policy (flush blocks older than the
	// interval) instead of the traditional Unix flush-everything sync.
	AgeBased bool
	// DelayedClose enables the §6.2 extension: the final local close
	// is withheld in anticipation of a prompt reopen.
	DelayedClose bool
	// KeepaliveInterval, when nonzero, starts a process that pings the
	// server and triggers state recovery when its epoch changes.
	KeepaliveInterval sim.Duration
	// NameCache enables the §7 extension: name translations are cached
	// under the consistency protocol. The client holds a read-open
	// "lease" on each directory whose entries it caches; the server
	// (which must run with NameCacheProtocol) invalidates the lease
	// when another client changes the directory.
	NameCache bool
}

// The client's fixed timings.
const (
	// delayedCloseIdle is how long a delayed-close file may sit before
	// the client spontaneously sends the owed close.
	delayedCloseIdle = 3 * sim.Minute
	// graceRetry is the delay before retrying an open refused with
	// ErrGrace.
	graceRetry = 200 * sim.Millisecond
	// recoverRetries is how many extra attempts state recovery gives a
	// failed re-registration RPC before abandoning that file, and
	// recoverBackoff the delay before the first, doubled per attempt:
	// 200, 400 and 800 ms. After a crash or failover every client
	// recovers at once, so these retries back off instead of re-entering
	// the RPC schedule in lockstep.
	recoverRetries = 3
	recoverBackoff = 200 * sim.Millisecond
)

// SNFSClient is the Spritely NFS client file system.
type SNFSClient struct {
	*Base
	opts SNFSOptions
	// epoch is the last server incarnation seen by the keepalive.
	epoch uint64
	// names is the protocol-protected directory-entry cache (§7
	// extension), keyed by directory handle.
	names map[proto.Handle]*dirNames
	// Inconsistencies counts opens that returned the §3.2 warning.
	Inconsistencies int64
	// LocalReopens counts opens satisfied by delayed-close reuse.
	LocalReopens int64
	// NameCacheHits counts lookups served from the name cache.
	NameCacheHits int64
}

// dirNames is the cached translation set for one directory.
type dirNames struct {
	entries map[string]proto.Handle
	// leased is true while the server counts us as a reader of the
	// directory, which is what entitles us to trust the entries.
	leased bool
	// oweClose counts lease registrations revoked by callback whose
	// balancing close RPC is still owed to the server. The close must
	// not be sent from inside the callback handler (the server holds
	// the directory's entry lock while delivering it); the update
	// daemon settles the debt.
	oweClose int
}

// NewSNFS creates a Spritely client talking to cfg.Server through ep. It
// registers the callback service (the client must provide RPC service,
// §3.2) and starts the update and keepalive daemons per opts.
func NewSNFS(k *sim.Kernel, ep *rpc.Endpoint, cfg Config, opts SNFSOptions) *SNFSClient {
	c := &SNFSClient{
		Base:  newBase(k, ep, cfg),
		opts:  opts,
		names: make(map[proto.Handle]*dirNames),
	}
	c.attrs.policy = attrPolicyProtocol
	c.cancelOnRemove = true
	c.serveCallbacks(c)
	if opts.NameCache {
		c.nameGet = c.nameCacheGet
		c.namePut = c.nameCachePut
		c.nameSet = c.nameCacheSet
		c.nameForget = c.nameCacheForget
	}
	if opts.UpdateInterval > 0 {
		k.Go(string(ep.Addr())+"/update", c.updateDaemon)
	}
	if opts.KeepaliveInterval > 0 {
		k.Go(string(ep.Addr())+"/keepalive", c.keepaliveDaemon)
	}
	return c
}

// callback is SNFS's part of the callback service (§4.2.2): the record
// decides what happens to the cached blocks; an invalidation also ends a
// directory lease (another client changed the directory, §7 extension),
// and a release settles an owed delayed close.
func (c *SNFSClient) callback(p *sim.Proc, a proto.CallbackArgs, n *node) proto.Status {
	if a.Invalidate {
		c.revokeLease(a.Handle)
	}
	if n == nil {
		return proto.OK // nothing else cached for that file
	}
	// The callback does not return until the dirty blocks are back at
	// the server (§3.2). If they cannot be, it fails and changes nothing:
	// the blocks stay, and so does the caching they need.
	caching := n.rec.Caching
	if err := c.apply(p, n, n.rec.ApplyCallback(a), true); err != nil {
		n.rec.Caching = caching
		return proto.ErrIO
	}
	if a.Release && n.rec.DelayedClose {
		n.rec.DelayedClose = false
		c.closeRPC(p, n.h, n.rec.DelayedWriteMode)
	}
	return proto.OK
}

// nameCacheGet serves a translation from the protocol-protected name
// cache; only leased directories are trusted.
func (c *SNFSClient) nameCacheGet(dir proto.Handle, name string) (proto.Handle, bool) {
	dn, ok := c.names[dir]
	if !ok || !dn.leased {
		return proto.Handle{}, false
	}
	h, ok := dn.entries[name]
	if ok {
		c.NameCacheHits++
	}
	return h, ok
}

// nameCachePut records a translation, acquiring the directory lease (a
// read-open registered at the server) on first use.
func (c *SNFSClient) nameCachePut(p *sim.Proc, dir proto.Handle, name string, h proto.Handle) {
	dn, ok := c.names[dir]
	if !ok {
		dn = &dirNames{entries: make(map[string]proto.Handle)}
		c.names[dir] = dn
	}
	if !dn.leased {
		// Settle any close owed from a revoked lease before taking a
		// new one, so server-side reader counts stay balanced.
		for dn.oweClose > 0 {
			if err := c.closeRPC(p, dir, false); err != nil {
				return
			}
			dn.oweClose--
		}
		body, err := c.call(p, proto.ProcOpen, (&proto.OpenArgs{Handle: dir}).XDR)
		if err != nil {
			return
		}
		var r proto.OpenReply
		r.XDR(xdr.NewDecoder(body).Codec())
		if r.Status != proto.OK || !r.CacheEnabled {
			return // can't cache this directory right now
		}
		dn.leased = true
	}
	dn.entries[name] = h
}

// nameCacheSet applies a local namespace mutation to our own cache (the
// server's invalidation excludes the mutating client); a zero handle
// means the name was removed.
func (c *SNFSClient) nameCacheSet(dir proto.Handle, name string, h proto.Handle) {
	dn, ok := c.names[dir]
	if !ok || !dn.leased {
		return
	}
	if h.IsZero() {
		delete(dn.entries, name)
	} else {
		dn.entries[name] = h
	}
}

// nameCacheForget drops everything cached under dir.
func (c *SNFSClient) nameCacheForget(dir proto.Handle) { delete(c.names, dir) }

// revokeLease ends a directory lease, remembering the owed close.
func (c *SNFSClient) revokeLease(dir proto.Handle) {
	dn, ok := c.names[dir]
	if !ok {
		return
	}
	if dn.leased {
		dn.oweClose++
	}
	dn.leased = false
	dn.entries = make(map[string]proto.Handle)
}

// settleLeases sends the balancing closes for revoked leases.
func (c *SNFSClient) settleLeases(p *sim.Proc) {
	dirs := make([]proto.Handle, 0, len(c.names))
	for dir := range c.names {
		dirs = append(dirs, dir)
	}
	// The closes go out in handle order, not map order (see sortedNodes).
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].Less(dirs[j]) })
	for _, dir := range dirs {
		dn, ok := c.names[dir]
		if !ok {
			continue // forgotten while an earlier close was in flight
		}
		for dn.oweClose > 0 {
			if err := c.closeRPC(p, dir, false); err != nil {
				break
			}
			dn.oweClose--
		}
		if !dn.leased && dn.oweClose == 0 && len(dn.entries) == 0 {
			delete(c.names, dir)
		}
	}
}

// dropNameCache forgets everything (server reboot, lease loss; the
// server's state died with it, so no closes are owed).
func (c *SNFSClient) dropNameCache() {
	c.names = make(map[proto.Handle]*dirNames)
}

// updateDaemon periodically writes delayed blocks back (§4.2.3) and
// settles long-idle delayed closes.
func (c *SNFSClient) updateDaemon(p *sim.Proc) {
	for {
		p.Sleep(c.opts.UpdateInterval)
		c.SyncPass(p)
	}
}

// SyncPass performs one update-daemon pass: flush delayed writes (all of
// them under the traditional policy, only old ones under the Sprite
// age-based policy) and spontaneously close idle delayed-close files.
func (c *SNFSClient) SyncPass(p *sim.Proc) {
	p.BeginOp() // one causal chain per daemon pass
	sp := c.span(p, span.Daemon, "sync-pass")
	defer sp.End()
	cutoff := p.Now()
	if c.opts.AgeBased {
		cutoff = cutoff.Add(-c.opts.UpdateInterval)
	}
	// The aged delayed writes become durable (the update daemon's
	// contract).
	for _, n := range c.writeDirty(p, c.cache.DirtyOlderThan(cutoff)) {
		c.commit(p, n)
	}
	if c.opts.DelayedClose {
		for _, n := range c.sortedNodes(nil) {
			if n.rec.DelayedClose && p.Now().Sub(sim.Time(n.rec.ClosedAt)) > delayedCloseIdle {
				n.rec.DelayedClose = false
				c.closeRPC(p, n.h, n.rec.DelayedWriteMode)
			}
		}
	}
	if c.opts.NameCache {
		c.settleLeases(p)
	}
}

// keepaliveDaemon pings the server and triggers recovery when it reboots.
func (c *SNFSClient) keepaliveDaemon(p *sim.Proc) {
	for {
		p.Sleep(c.opts.KeepaliveInterval)
		body, err := c.ep.Call(p, c.cfg.Server, proto.ProgNFS, proto.VersNFS, proto.ProcServerInfo, nil)
		if err != nil {
			continue // server unreachable; keep probing
		}
		var r proto.ServerInfoReply
		r.XDR(xdr.NewDecoder(body).Codec())
		if r.Status != proto.OK {
			continue
		}
		if c.epoch != 0 && r.Epoch != c.epoch {
			c.recover(p)
		}
		c.epoch = r.Epoch
	}
}

// recover re-registers this client's open and dirty state with a rebooted
// server (§2.4): the clients together know who caches what. A clean copy
// of any other file is dropped (core.FileRecord.Forget).
func (c *SNFSClient) recover(p *sim.Proc) {
	p.BeginOp() // the recovery pass is one causal chain
	sp := c.span(p, span.Daemon, "recover")
	defer sp.End()
	// Directory leases died with the server's state; start cold.
	c.dropNameCache()
	for _, n := range c.sortedNodes(nil) {
		if len(n.unstable) > 0 {
			// Unstable writes acked by the dead incarnation: this
			// COMMIT sees the new verifier and redrives them.
			c.commit(p, n)
		}
		dirty := c.cache.HasDirty(c.cfg.Root.FSID, n.h.Ino)
		readers, writers := n.rec.Readers, n.rec.Writers
		if n.rec.DelayedClose {
			// The server believed this file open; re-register it
			// that way so the delayed close stays valid.
			if n.rec.DelayedWriteMode {
				writers++
			} else {
				readers++
			}
		}
		if readers == 0 && writers == 0 && !dirty {
			c.apply(p, n, n.rec.Forget(), false)
			continue
		}
		args := &proto.ReopenArgs{
			Handle:   n.h,
			Readers:  uint32(readers),
			Writers:  uint32(writers),
			Version:  n.rec.Version,
			HasDirty: dirty,
		}
		r, ok := c.reopenWithRetry(p, args)
		if !ok || r.Status != proto.OK {
			continue
		}
		c.apply(p, n, n.rec.Reopen(r), false)
	}
}

// reopenWithRetry issues one recovery Reopen under the doubling recovery
// backoff. A whole cluster's clients recover at once after a crash or a
// backup promotion; retrying on the raw RPC schedule would have them all
// retransmitting in lockstep against the busiest moment of the new
// server's life.
func (c *SNFSClient) reopenWithRetry(p *sim.Proc, args *proto.ReopenArgs) (proto.OpenReply, bool) {
	delay := recoverBackoff
	for attempt := 0; attempt <= recoverRetries; attempt++ {
		if attempt > 0 {
			p.Sleep(delay)
			delay *= 2
		}
		body, err := c.call(p, proto.ProcReopen, args.XDR)
		if err != nil {
			continue
		}
		var r proto.OpenReply
		r.XDR(xdr.NewDecoder(body).Codec())
		switch r.Status {
		case proto.ErrGrace, proto.ErrNotHome:
			// Transient during a reboot or failover window; back off and
			// re-register again.
			continue
		}
		return r, true
	}
	return proto.OpenReply{}, false
}

// openRPC performs the SNFS open with grace-period retry and reconciles
// the reply with the local record and cache.
func (c *SNFSClient) openRPC(p *sim.Proc, n *node, write bool) error {
	var reply proto.OpenReply
	for attempt := 0; ; attempt++ {
		body, err := c.call(p, proto.ProcOpen, (&proto.OpenArgs{Handle: n.h, WriteMode: write}).XDR)
		if err != nil {
			return err
		}
		reply = proto.OpenReply{}
		reply.XDR(xdr.NewDecoder(body).Codec())
		if reply.Status == proto.ErrGrace {
			if attempt > 100 {
				return reply.Status.Err()
			}
			p.Sleep(graceRetry)
			continue
		}
		break
	}
	switch reply.Status {
	case proto.OK:
	case proto.ErrInconsistent:
		// The file's last writer died with dirty blocks; usable but
		// possibly stale (§3.2).
		c.Inconsistencies++
	default:
		return reply.Status.Err()
	}
	act := n.rec.Open(reply, write)
	c.apply(p, n, act, false)
	c.attrs.ingest(n, reply.Attr, p.Now())
	if act == (core.Action{}) {
		// Our cached view (including delayed writes) remains
		// authoritative for the file length.
		if n.size < reply.Attr.Size {
			n.size = reply.Attr.Size
		}
	} else {
		n.size = reply.Attr.Size
	}
	return nil
}

// Open implements vfs.FS.
func (c *SNFSClient) Open(p *sim.Proc, rel string, flags vfs.Flags, mode uint32) (vfs.File, error) {
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

	// Delayed-close reuse (§6.2): a read open of a file we still hold
	// open at the server needs no RPC at all.
	if c.opts.DelayedClose && n.rec.DelayedClose && !write && n.rec.Caching {
		n.rec.DelayedClose = false
		n.rec.Readers++
		c.LocalReopens++
		n.opens++
		return &snfsFile{c: c, n: n, write: false}, nil
	}
	if n.rec.DelayedClose {
		// Settle the owed close before re-opening differently.
		n.rec.DelayedClose = false
		if err := c.closeRPC(p, n.h, n.rec.DelayedWriteMode); err != nil {
			return nil, err
		}
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
	return &snfsFile{c: c, n: n, write: write}, nil
}

// Readdir implements vfs.FS.
func (c *SNFSClient) Readdir(p *sim.Proc, rel string) ([]proto.DirEntry, error) {
	defer c.syscall(p, "readdir").End()
	return c.listOpened(p, rel, c.openRPC)
}

// snfsFile is an open SNFS file.
type snfsFile struct {
	c      *SNFSClient
	n      *node
	write  bool
	closed bool
}

// Handle exposes the protocol-level handle (audit.Handled).
func (f *snfsFile) Handle() proto.Handle { return f.n.h }

// ReadInto implements vfs.File. Cachable files read through the block
// cache with read-ahead; uncachable (write-shared) files go straight to
// the server with read-ahead disabled (§4.2.1).
func (f *snfsFile) ReadInto(p *sim.Proc, b []byte, off int64) (int, error) {
	defer f.c.syscall(p, "read").End()
	if f.n.rec.Caching {
		return f.c.assembleRead(p, f.n, b, off, f.c.cfg.ReadAhead)
	}
	data, attr, err := f.c.readRPC(p, f.n.h, off, len(b))
	if err != nil {
		return 0, err
	}
	f.c.attrs.ingest(f.n, attr, p.Now())
	f.n.size = attr.Size
	// data is a view of the server's frozen reply image, which its
	// duplicate cache may resend; the application gets a copy in b.
	return copy(b, data), nil
}

// ReadAt implements vfs.File; it stays only for bench/probes.go, until
// ROADMAP's benchmark item (vi).
func (f *snfsFile) ReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	return vfs.ReadAt(p, f, off, n)
}

// WriteAt implements vfs.File. Cachable files use pure delayed write —
// no RPC at all; a single-writer client might never write to the server
// during the file's lifetime (§2.2). Uncachable files write through
// synchronously, with a copy of data: the WRITE sends its data by
// reference, and the server may keep it as its page, while the caller
// owns data and may change it once WriteAt returns.
func (f *snfsFile) WriteAt(p *sim.Proc, off int64, data []byte) (int, error) {
	defer f.c.syscall(p, "write").End()
	if f.n.rec.Caching {
		if _, err := f.c.writeToCache(p, f.n, off, data, true); err != nil {
			return 0, err
		}
		return len(data), nil
	}
	r, err := f.c.writeRPC(p, f.n.h, off, bytes.Clone(data), false)
	if err != nil {
		return 0, err
	}
	f.c.attrs.ingestOwn(f.n, r.Attr, p.Now())
	f.n.size = r.Attr.Size
	return len(data), nil
}

// Close implements vfs.File: report the close to the server (or defer it
// under delayed-close); dirty blocks deliberately stay behind in the
// cache.
func (f *snfsFile) Close(p *sim.Proc) error {
	defer f.c.syscall(p, "close").End()
	if f.closed {
		return nil
	}
	f.closed = true
	f.n.opens--
	final := f.n.rec.Close(f.write)
	if f.c.opts.DelayedClose && final && f.n.rec.Caching && !f.write {
		f.n.rec.DelayedClose = true
		f.n.rec.DelayedWriteMode = false
		f.n.rec.ClosedAt = int64(p.Now())
		return nil
	}
	return f.c.closeRPC(p, f.n.h, f.write)
}

// Sync implements vfs.File: explicit flush for applications that value
// reliability over performance (§2.2).
func (f *snfsFile) Sync(p *sim.Proc) error {
	defer f.c.syscall(p, "sync").End()
	return f.c.flushFile(p, f.n)
}

// Attr implements vfs.File: served by the attribute cache while
// cachable; always fetched from the server for write-shared files
// (§4.2.1 — the cache's policy enforces this).
func (f *snfsFile) Attr(p *sim.Proc) (proto.Fattr, error) {
	defer f.c.syscall(p, "attr").End()
	return f.c.fileAttr(p, f.n)
}

// Lock acquires an advisory whole-file lock on rel (the §2.2 mechanism
// for serializing write-shared access), polling with backoff until
// granted. Exclusive locks conflict with everything; shared locks
// conflict with exclusive ones.
func (c *SNFSClient) Lock(p *sim.Proc, rel string, exclusive bool) error {
	p.BeginOp()
	h, err := c.walkNoAttr(p, rel)
	if err != nil {
		return err
	}
	backoff := 10 * sim.Millisecond
	for {
		body, err := c.call(p, proto.ProcLock, (&proto.LockArgs{Handle: h, Exclusive: exclusive}).XDR)
		if err != nil {
			return err
		}
		var r proto.LockReply
		r.XDR(xdr.NewDecoder(body).Codec())
		if r.Status != proto.OK {
			return r.Status.Err()
		}
		if r.Granted {
			return nil
		}
		p.Sleep(backoff)
		if backoff < 200*sim.Millisecond {
			backoff *= 2
		}
	}
}

// Unlock releases one advisory lock on rel.
func (c *SNFSClient) Unlock(p *sim.Proc, rel string) error {
	p.BeginOp()
	h, err := c.walkNoAttr(p, rel)
	if err != nil {
		return err
	}
	body, err := c.call(p, proto.ProcUnlock, (&proto.LockArgs{Handle: h}).XDR)
	if err != nil {
		return err
	}
	var r proto.LockReply
	r.XDR(xdr.NewDecoder(body).Codec())
	return r.Status.Err()
}
