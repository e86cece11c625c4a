package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/view"
)

// maxRedirects bounds one operation's NOTHOME retries. A healthy
// cluster converges in a single redirect (refetch the map from the
// server that bounced us — it knows the newer version); hitting the cap
// means the servers disagree about ownership, which is a configuration
// bug worth surfacing loudly rather than spinning on.
const maxRedirects = 4

// ErrRedirectLoop reports an operation that kept earning ErrNotHome
// after refetching the shard map maxRedirects times.
var ErrRedirectLoop = errors.New("cluster: shard redirect loop")

// Router is the client side of the federation: a vfs.FS that owns one
// SNFS client host per shard (each on its own endpoint — callback service
// is per-endpoint) and routes every path to its home shard through a cached
// copy of the shard map.
//
// Staleness is handled by redirect, never by silence: a server that is
// not the home of a name answers ErrNotHome, the router refetches the
// map from that server, and retries at the new owner. Handles cached
// for a migrated subtree earn ErrStale instead, which the per-shard
// client already answers by re-walking from the root — funneling into a
// guarded lookup and the same redirect path.
//
// Cross-shard Rename and Link are refused with proto.ErrXDev (the
// RFC 1094 cross-device status): a namespace operation executes on
// exactly one shard or not at all, so no shard is ever left with a
// half-applied op. Files open across a rebalance surface ErrStale on
// their next data access; re-opening by path converges on the new home.
type Router struct {
	k    *sim.Kernel
	host simnet.Addr

	m     proto.ShardMap
	addrs []simnet.Addr
	hosts []*ClientHost // one per shard; ops go through each host's Mount

	viewsvc simnet.Addr // viewservice address ("" without Backups)

	redirects atomic.Int64
}

var _ vfs.FS = (*Router)(nil)

// NewRouter builds a client host routing into the cluster: one client
// host per shard (addressed host.s<id>) from the cluster's client spec,
// primed with the current map. When shard auditors run, each client is
// mounted through its shard's auditor so every syscall is witnessed by
// the right shadow.
func (c *Cluster) NewRouter(host simnet.Addr) *Router {
	r := &Router{k: c.k, host: host, m: c.Map()}
	for _, sh := range c.shards {
		spec := c.cfg.Client
		spec.Name = simnet.Addr(fmt.Sprintf("%s.s%d", host, sh.ID))
		spec.Config.Server = sh.Addr
		spec.Config.Root = sh.Base.RootHandle()
		r.addrs = append(r.addrs, sh.Addr)
		r.hosts = append(r.hosts, NewClientHost(c.k, c.net, spec,
			trace.Instruments{Spans: sh.Spans, Auditor: sh.Auditor}))
	}
	if c.view != nil {
		r.enableFailover(c.viewAddr)
	}
	return r
}

// enableFailover arms the router for primary/backup failover: each shard
// endpoint's retransmissions chase the address the current map names
// (the Reroute hook), and a background daemon polls the viewservice so
// the map converges even when no in-flight call is around to earn an
// ErrNotHome redirect.
func (r *Router) enableFailover(viewsvc simnet.Addr) {
	r.viewsvc = viewsvc
	for i, h := range r.hosts {
		h.Base.Endpoint().Reroute = func(simnet.Addr) simnet.Addr { return r.addrs[i] }
	}
	r.k.Go(string(r.host)+"/view-refresh", func(p *sim.Proc) {
		for {
			p.Sleep(2 * view.PingInterval)
			r.refreshFromView(p)
		}
	})
}

// refreshFromView pulls the current map from the viewservice. Errors are
// ignored: the next poll, or the Reroute/ErrNotHome machinery, retries.
func (r *Router) refreshFromView(p *sim.Proc) {
	var args proto.ViewGetArgs
	var rep proto.ViewGetReply
	if err := r.hosts[0].Base.Endpoint().CallXDREx(p, r.viewsvc, proto.ProgView, 1, proto.ViewProcGet,
		args.XDR, rep.XDR, 500*sim.Millisecond, 0); err == nil && rep.Status == proto.OK {
		r.InstallMap(rep.Map)
	}
}

// InstallMap adopts m if it is strictly newer than the cached map,
// retargeting the shard clients whose primary address changed. Older or
// equal versions are ignored — concurrent refetches must never regress
// the map.
func (r *Router) InstallMap(m proto.ShardMap) bool {
	if m.IsZero() || m.Version <= r.m.Version {
		return false
	}
	r.m = m
	for i := range r.addrs {
		if i < len(m.Servers) && string(r.addrs[i]) != m.Servers[i] {
			r.addrs[i] = simnet.Addr(m.Servers[i])
			r.hosts[i].Base.Retarget(r.addrs[i])
		}
	}
	return true
}

// Redirects returns how many ErrNotHome bounces this router has healed.
func (r *Router) Redirects() int64 { return r.redirects.Load() }

// Hosts returns the per-shard client hosts (for stats and instruments).
func (r *Router) Hosts() []*ClientHost { return r.hosts }

// refreshMap refetches the shard map from the shard that bounced us (it
// answered ErrNotHome, so it holds a newer map than ours). The map is
// only replaced by a strictly newer version.
func (r *Router) refreshMap(p *sim.Proc, via int) error {
	var args proto.ShardMapArgs
	var reply proto.ShardMapReply
	if err := r.hosts[via].Base.Endpoint().CallXDR(p, r.addrs[via], proto.ProgNFS, proto.VersNFS,
		proto.ProcShardMap, args.XDR, reply.XDR); err != nil {
		return fmt.Errorf("cluster: shard map refetch from %s: %w", r.addrs[via], err)
	}
	if reply.Status != proto.OK {
		return reply.Status.Err()
	}
	r.InstallMap(reply.Map)
	return nil
}

// shard resolves a path to its home shard under the cached map: its
// first component's, by the walk's syntax (vfs.Next); the root is shard
// 0's.
func (r *Router) shard(path string) int {
	name, _ := vfs.Next(path)
	id := int(r.m.Owner(name))
	if id >= len(r.hosts) {
		id = 0
	}
	return id
}

// route runs op against the shard home names, healing ErrNotHome by
// refetching the map and retrying, up to maxRedirects. A first ESTALE is
// healed by dropping the shard client's directory cache and retrying — a
// cached parent handle of a migrated subtree fails that way, and the
// fresh walk from the root turns it into ErrNotHome (or succeeds). home
// is asked again on every attempt, under the map as refetched; what names
// the operand in a redirect-loop error.
func (r *Router) route(p *sim.Proc, what string, home func() (int, error), op func(fs vfs.FS) error) error {
	staleTried := false
	for attempt := 0; ; attempt++ {
		sh, err := home()
		if err != nil {
			return err
		}
		err = op(r.hosts[sh].Mount)
		if proto.StatusOf(err) == proto.ErrStale && !staleTried {
			staleTried = true
			r.hosts[sh].SNFS.DropDirCache()
			continue
		}
		if proto.StatusOf(err) != proto.ErrNotHome {
			return err
		}
		if attempt >= maxRedirects {
			return fmt.Errorf("%w: %q still not home after %d redirects (map v%d)",
				ErrRedirectLoop, what, attempt, r.m.Version)
		}
		r.redirects.Add(1)
		if rerr := r.refreshMap(p, sh); rerr != nil {
			return rerr
		}
	}
}

// do routes a one-path op to path's home shard.
func (r *Router) do(p *sim.Proc, path string, op func(fs vfs.FS) error) error {
	return r.route(p, path, func() (int, error) { return r.shard(path), nil }, op)
}

// doPair routes a two-path namespace op (rename, link): both paths must
// resolve to the same shard — otherwise the op is refused with ErrXDev
// before any server sees it.
func (r *Router) doPair(p *sim.Proc, oldpath, newpath string, op func(fs vfs.FS) error) error {
	return r.route(p, oldpath+" -> "+newpath, func() (int, error) {
		so, sn := r.shard(oldpath), r.shard(newpath)
		if so != sn {
			return 0, proto.ErrXDev.Err()
		}
		return so, nil
	}, op)
}

func (r *Router) Open(p *sim.Proc, path string, flags vfs.Flags, mode uint32) (vfs.File, error) {
	var f vfs.File
	err := r.do(p, path, func(fs vfs.FS) error {
		var err error
		f, err = fs.Open(p, path, flags, mode)
		return err
	})
	return f, err
}

func (r *Router) Mkdir(p *sim.Proc, path string, mode uint32) error {
	return r.do(p, path, func(fs vfs.FS) error { return fs.Mkdir(p, path, mode) })
}

func (r *Router) Remove(p *sim.Proc, path string) error {
	return r.do(p, path, func(fs vfs.FS) error { return fs.Remove(p, path) })
}

func (r *Router) Rmdir(p *sim.Proc, path string) error {
	return r.do(p, path, func(fs vfs.FS) error { return fs.Rmdir(p, path) })
}

func (r *Router) Rename(p *sim.Proc, oldpath, newpath string) error {
	return r.doPair(p, oldpath, newpath, func(fs vfs.FS) error {
		return fs.Rename(p, oldpath, newpath)
	})
}

func (r *Router) Link(p *sim.Proc, oldpath, newpath string) error {
	return r.doPair(p, oldpath, newpath, func(fs vfs.FS) error {
		return fs.Link(p, oldpath, newpath)
	})
}

func (r *Router) Symlink(p *sim.Proc, target, linkpath string) error {
	// Routed by the link's location; the target is an uninterpreted
	// string and may dangle or point into another shard's subtree.
	return r.do(p, linkpath, func(fs vfs.FS) error { return fs.Symlink(p, target, linkpath) })
}

func (r *Router) Readlink(p *sim.Proc, path string) (string, error) {
	var target string
	err := r.do(p, path, func(fs vfs.FS) error {
		var err error
		target, err = fs.Readlink(p, path)
		return err
	})
	return target, err
}

func (r *Router) Stat(p *sim.Proc, path string) (proto.Fattr, error) {
	var fa proto.Fattr
	err := r.do(p, path, func(fs vfs.FS) error {
		var err error
		fa, err = fs.Stat(p, path)
		return err
	})
	return fa, err
}

// Readdir lists path's home shard; the cluster root is the union of
// every shard's root listing (deduplicated by name — shard 0 wins, as
// it owns unassigned names).
func (r *Router) Readdir(p *sim.Proc, path string) ([]proto.DirEntry, error) {
	if name, _ := vfs.Next(path); name != "" {
		var ents []proto.DirEntry
		err := r.do(p, path, func(fs vfs.FS) error {
			var err error
			ents, err = fs.Readdir(p, path)
			return err
		})
		return ents, err
	}
	seen := make(map[string]bool)
	var out []proto.DirEntry
	for _, h := range r.hosts {
		ents, err := h.Mount.Readdir(p, path)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if !seen[e.Name] {
				seen[e.Name] = true
				out = append(out, e)
			}
		}
	}
	return out, nil
}

// SyncAll pushes delayed writes on every shard.
func (r *Router) SyncAll(p *sim.Proc) {
	for _, h := range r.hosts {
		h.Mount.SyncAll(p)
	}
}
