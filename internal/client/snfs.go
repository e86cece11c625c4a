package client

import (
	"sort"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/span"
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
	// dirs is the protocol-protected directory-entry cache (§7
	// extension), keyed by directory handle.
	dirs map[proto.Handle]*dirNames
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
		Base: newBase(k, ep, cfg),
		opts: opts,
		dirs: make(map[proto.Handle]*dirNames),
	}
	c.attrs.policy = attrPolicyProtocol
	c.tracksOpens = true
	c.delaysWrites = true
	c.delayedClose = opts.DelayedClose
	c.serveCallbacks(c)
	if opts.NameCache {
		c.names = c
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
	if a.Release {
		c.settleDelayedClose(p, n)
	}
	return proto.OK
}

// lookupName serves a translation from the protocol-protected name
// cache; only leased directories are trusted.
func (c *SNFSClient) lookupName(dir proto.Handle, name string) (proto.Handle, bool) {
	dn, ok := c.dirs[dir]
	if !ok || !dn.leased {
		return proto.Handle{}, false
	}
	h, ok := dn.entries[name]
	if ok {
		c.NameCacheHits++
	}
	return h, ok
}

// cacheName records a translation, acquiring the directory lease (a
// read-open registered at the server) on first use.
func (c *SNFSClient) cacheName(p *sim.Proc, dir proto.Handle, name string, h proto.Handle) {
	dn, ok := c.dirs[dir]
	if !ok {
		dn = &dirNames{entries: make(map[string]proto.Handle)}
		c.dirs[dir] = dn
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
		r, err := c.openCall(p, dir, false)
		if err != nil || r.Status != proto.OK || !r.CacheEnabled {
			return // can't cache this directory right now
		}
		dn.leased = true
	}
	dn.entries[name] = h
}

// setName applies a local namespace mutation to our own cache (the
// server's invalidation excludes the mutating client); a zero handle
// means the name was removed.
func (c *SNFSClient) setName(dir proto.Handle, name string, h proto.Handle) {
	dn, ok := c.dirs[dir]
	if !ok || !dn.leased {
		return
	}
	if h.IsZero() {
		delete(dn.entries, name)
	} else {
		dn.entries[name] = h
	}
}

// forgetDir drops everything cached under dir.
func (c *SNFSClient) forgetDir(dir proto.Handle) { delete(c.dirs, dir) }

// revokeLease ends a directory lease, remembering the owed close.
func (c *SNFSClient) revokeLease(dir proto.Handle) {
	dn, ok := c.dirs[dir]
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
	dirs := make([]proto.Handle, 0, len(c.dirs))
	for dir := range c.dirs {
		dirs = append(dirs, dir)
	}
	// The closes go out in handle order, not map order (see sortedNodes).
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].Less(dirs[j]) })
	for _, dir := range dirs {
		dn, ok := c.dirs[dir]
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
			delete(c.dirs, dir)
		}
	}
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
				c.settleDelayedClose(p, n)
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
		var r proto.ServerInfoReply
		if err := c.ep.CallXDR(p, c.cfg.Server, proto.ProgNFS, proto.VersNFS, proto.ProcServerInfo, nil, r.XDR); err != nil || r.Status != proto.OK {
			continue // server unreachable or refusing; keep probing
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
	// Directory leases died with the server's state, and so did the
	// closes they would owe: start cold.
	c.dirs = make(map[proto.Handle]*dirNames)
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
		args := &proto.ReopenArgs{Handle: n.h, Readers: uint32(readers), Writers: uint32(writers),
			Version: n.rec.Version, HasDirty: dirty}
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
		var r proto.OpenReply
		if err := c.call(p, proto.ProcReopen, args.XDR, r.XDR); err != nil {
			continue
		}
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
