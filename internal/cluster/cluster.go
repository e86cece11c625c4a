// Package cluster federates M independent Spritely NFS servers into one
// namespace, partitioned by a versioned shard map (proto.ShardMap).
//
// SNFS is unusually shard-friendly: its consistency state (Table 4-1) is
// strictly per-file, so partitioning the namespace by root-level subtree
// partitions the whole protocol — each shard keeps its own state table,
// crash-recovery epoch, dupcache, metrics, and audit shadow, and no
// consistency traffic ever crosses shards. The pieces are:
//
//   - Cluster: builds the shard servers on one simulated network, owns
//     the current shard map, and runs control-plane rebalancing
//     (migrating a subtree to another shard under a version bump).
//   - Router: the client side — a vfs.FS that resolves each path to its
//     home shard via a cached map and recovers from staleness by
//     refetching the map on ErrNotHome and retrying (see router.go).
//
// A cluster run is audit-clean iff every shard's auditor is clean.
package cluster

import (
	"fmt"
	"io"
	"strings"

	"spritelynfs/internal/localfs"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/view"
)

// Config sizes a cluster. Every shard is built from one server spec and
// every router client from one client spec; FSIDs are assigned per shard
// (1+id) so handles and client cache keys never collide across shards.
type Config struct {
	// Shards is the number of servers (≥ 1).
	Shards int
	// Assignments is the initial partition: "/prefix" -> shard id.
	// Root-level names not listed belong to shard 0.
	Assignments map[string]uint32

	// Server is the spec of every shard host. Proto, Addr, Store and
	// Config.FSID are set per host; the rest is the shared cost model.
	Server ServerSpec
	// Client is the spec of the router's per-shard clients (Proto, Name
	// and Config.Server/Root are set per client).
	Client ClientSpec

	// Instruments, when set, gives shard i's primary its instruments
	// (its backup shares them). It is called once per shard, in shard
	// order, as the shard is built: whoever owns the world decides which
	// auditor, event ring and span recorder a shard gets.
	Instruments func(shard int) Instruments

	// Backups arms primary/backup replication: each shard gets a standby
	// server (sharing the primary's store — the durable bytes are a
	// dual-ported disk — but with its own endpoint, cache, and disk
	// model), an async replication stream from the primary, and a
	// viewservice that promotes the backup when the primary stops
	// pinging. Clients heal through the usual map-refetch machinery.
	Backups bool
	// ViewLog, when set, receives one text line per view change.
	ViewLog io.Writer
}

// Shard is one member of the federation: the primary host as built (its
// auditor shadows only this shard's state table and clients, its event
// ring and registry are the shard's own) and, with Config.Backups, the
// standby.
type Shard struct {
	ID   uint32
	FSID uint32
	*ServerHost
	// Backup is the standby host (nil without Config.Backups). It shares
	// the primary's Store, auditor and event ring — one shadow and one
	// black box per shard, whichever replica serves it — but nothing
	// volatile.
	Backup *ServerHost
	// Repl is the primary's replication stream to Backup (nil without
	// Config.Backups).
	Repl *server.Replicator
}

// Cluster is the control plane: the shard servers plus the authoritative
// shard map. Map changes (Rebalance) are pushed to every server; clients
// converge lazily through the ErrNotHome redirect protocol.
type Cluster struct {
	k   *sim.Kernel
	net *simnet.Network
	cfg Config

	shards []*Shard
	hosts  []*ServerHost
	m      proto.ShardMap

	view     *view.Service
	viewAddr simnet.Addr
}

// ShardAddr returns the network address of shard id.
func ShardAddr(id int) simnet.Addr { return simnet.Addr(fmt.Sprintf("shard%d", id)) }

// BackupAddr returns the network address of shard id's backup server.
func BackupAddr(id int) simnet.Addr { return simnet.Addr(fmt.Sprintf("shard%db", id)) }

// New builds the shard servers on net and installs the version-1 map.
func New(k *sim.Kernel, net *simnet.Network, cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: need at least one shard")
	}
	// The control plane (Expel, replication, promotion) is SNFS's.
	cfg.Server.Proto, cfg.Client.Proto = SNFS, SNFS
	c := &Cluster{k: k, net: net, cfg: cfg}

	m := proto.ShardMap{Version: 1}
	for i := 0; i < cfg.Shards; i++ {
		m.Servers = append(m.Servers, string(ShardAddr(i)))
	}
	for prefix, shard := range cfg.Assignments {
		m.Assignments = append(m.Assignments, proto.ShardAssignment{Prefix: prefix, Shard: shard})
	}
	sortAssignments(m.Assignments)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	c.m = m

	for i := 0; i < cfg.Shards; i++ {
		var in Instruments
		if cfg.Instruments != nil {
			in = cfg.Instruments(i)
		}
		sh := &Shard{ID: uint32(i), FSID: uint32(1 + i)}
		sh.ServerHost = c.newHost(sh, ShardAddr(i), nil, in)
		c.shards = append(c.shards, sh)
	}
	if cfg.Backups {
		c.buildBackups()
	}
	c.push()
	return c, nil
}

// newHost builds one of sh's replicas from the cluster's server spec.
func (c *Cluster) newHost(sh *Shard, addr simnet.Addr, store *localfs.Store, in Instruments) *ServerHost {
	spec := c.cfg.Server
	spec.Addr, spec.Store, spec.Config.FSID = addr, store, sh.FSID
	h := NewServerHost(c.k, c.net, spec, in)
	c.hosts = append(c.hosts, h)
	return h
}

// EnableMetrics gives every server host a registry of its own — a
// server's series carry no shard label, so two hosts cannot share one —
// and, on replicated shards, exports the view number and replication lag
// beside the primary's series.
func (c *Cluster) EnableMetrics() {
	for _, sh := range c.shards {
		sh := sh
		sh.Attach(Instruments{Metrics: metrics.New()})
		if sh.Backup == nil {
			continue
		}
		sh.Backup.Attach(Instruments{Metrics: metrics.New()})
		sh.Metrics.GaugeFunc("snfs_shard_view_num",
			func() float64 { return float64(c.view.View(sh.ID).Num) })
		sh.Metrics.Help("snfs_shard_view_num", "Current view number for this shard.")
		sh.Metrics.GaugeFunc("snfs_shard_repl_lag",
			func() float64 { return float64(sh.Repl.Lag()) })
		sh.Metrics.Help("snfs_shard_repl_lag", "Replication records assigned but not yet confirmed by the backup.")
	}
}

// buildBackups arms the failover plane: one standby server per shard, a
// replication stream feeding it, the viewservice, and both members'
// pingers.
func (c *Cluster) buildBackups() {
	for _, sh := range c.shards {
		// The primary's spec with the primary's Store — the durable bytes
		// survive either machine — and its auditor and event ring;
		// Promote resets the auditor like a reboot.
		sh.Backup = c.newHost(sh, BackupAddr(int(sh.ID)), sh.Media.Store(),
			Instruments{Spans: sh.Spans, Tracer: sh.Tracer, Auditor: sh.Auditor})
	}
	c.viewAddr = "viewsvc"
	vep := rpc.NewEndpoint(c.k, c.net, c.viewAddr, rpc.Options{Workers: 2})
	c.view = view.NewService(c.k, vep, c, view.Config{
		Log:     c.cfg.ViewLog,
		OnEvent: c.onViewEvent,
	})
	for _, sh := range c.shards {
		sh := sh
		backup := sh.Backup.SNFS
		sh.Repl = sh.SNFS.StartReplication(sh.Backup.Addr, nil)
		c.view.Register(sh.ID, string(sh.Addr), string(sh.Backup.Addr))
		view.StartPinger(c.k, sh.Base.Endpoint(), view.PingerConfig{
			Shard: sh.ID, Self: sh.Addr, Service: c.viewAddr,
			Crashed: sh.SNFS.Crashed,
			Status:  sh.Repl.Status,
			OnView: func(p *sim.Proc, v proto.View, m proto.ShardMap) bool {
				if v.Primary != string(sh.Addr) {
					// Deposed while partitioned from our backup's
					// ErrDemoted path: adopt the newer map so ownerCheck
					// bounces our clients to the real primary.
					sh.SNFS.SetShardMap(m, sh.ID)
					sh.Repl.Stop()
					return true
				}
				if v.Backup == "" {
					// Our backup was declared dead; stop streaming into
					// the void.
					sh.Repl.Stop()
					return true
				}
				// Acking a view with a live backup commits us to it:
				// first drain the stream so a promotion in this view
				// never starts from a stale mirror.
				return sh.Repl.Sync(p)
			},
		})
		view.StartPinger(c.k, backup.Endpoint(), view.PingerConfig{
			Shard: sh.ID, Self: sh.Backup.Addr, Service: c.viewAddr,
			Crashed: backup.Crashed,
			Status:  func() (bool, uint32) { return backup.ReplSynced(), 0 },
			OnView: func(p *sim.Proc, v proto.View, m proto.ShardMap) bool {
				if v.Primary == string(sh.Backup.Addr) {
					// Normally a no-op: onViewEvent promoted us
					// synchronously with the map change. This is the
					// belt-and-suspenders path.
					backup.Promote(p, m, v.Num)
				}
				return true
			},
		})
	}
}

// onViewEvent reacts to every published view change. On primary death it
// promotes the backup synchronously with the map change, so no client
// retransmission can reach a new primary whose table is not yet rebuilt;
// on backup death it stops the primary's stream.
func (c *Cluster) onViewEvent(p *sim.Proc, shard uint32, v proto.View, reason string) {
	if int(shard) >= len(c.shards) {
		return
	}
	sh := c.shards[shard]
	sh.Tracer.Record(string(c.viewAddr), trace.Note, "shard %d -> view %d primary=%s backup=%s (%s)",
		shard, v.Num, v.Primary, v.Backup, reason)
	switch reason {
	case "primary-dead":
		if p != nil && sh.Backup != nil && v.Primary == string(sh.Backup.Addr) {
			sh.Backup.SNFS.Promote(p, c.Map(), v.Num)
		}
	case "backup-dead":
		if sh.Repl != nil {
			sh.Repl.Stop()
		}
	}
}

// ViewService returns the cluster's viewservice (nil without Backups).
func (c *Cluster) ViewService() *view.Service { return c.view }

// SetPrimary implements view.MapStore: rewrite one shard's primary
// address under a version bump and push the map to every server except
// the deposed primary — a dead or partitioned machine cannot be handed a
// map; it learns through ErrDemoted from its successor or its own next
// viewservice ping.
func (c *Cluster) SetPrimary(shard uint32, addr string) {
	if int(shard) >= len(c.m.Servers) || c.m.Servers[shard] == addr {
		return
	}
	old := c.m.Servers[shard]
	c.m.Servers = append([]string(nil), c.m.Servers...)
	c.m.Servers[shard] = addr
	c.m.Version++
	c.pushExcept(old)
}

// sortAssignments orders assignments by prefix so map iteration order
// never leaks into the wire image (reproducible simulations).
func sortAssignments(as []proto.ShardAssignment) {
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && as[j].Prefix < as[j-1].Prefix; j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
}

// cloneMap deep-copies a shard map so later in-place rebalances cannot
// mutate a copy already handed to a server or router.
func cloneMap(m proto.ShardMap) proto.ShardMap {
	out := proto.ShardMap{Version: m.Version}
	out.Servers = append(out.Servers, m.Servers...)
	out.Assignments = append(out.Assignments, m.Assignments...)
	return out
}

// push installs the current map on every shard server (and backup).
func (c *Cluster) push() { c.pushExcept("") }

func (c *Cluster) pushExcept(skip string) {
	for _, sh := range c.shards {
		if string(sh.Addr) != skip {
			sh.SNFS.SetShardMap(cloneMap(c.m), sh.ID)
		}
		if sh.Backup != nil && string(sh.Backup.Addr) != skip {
			sh.Backup.SNFS.SetShardMap(cloneMap(c.m), sh.ID)
		}
	}
}

// Shards returns the member servers.
func (c *Cluster) Shards() []*Shard { return c.shards }

// Hosts returns every server host in build order: the primaries by
// shard, then the backups.
func (c *Cluster) Hosts() []*ServerHost { return c.hosts }

// Map returns a copy of the authoritative shard map.
func (c *Cluster) Map() proto.ShardMap { return cloneMap(c.m) }

// AuditErr returns the first shard auditor's recorded violation, if any:
// a cluster run is audit-clean iff every shard is.
func (c *Cluster) AuditErr() error {
	for _, sh := range c.shards {
		if err := sh.Auditor.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", sh.ID, err)
		}
	}
	return nil
}

// Rebalance migrates prefix (a root-level subtree) to shard `to` and
// publishes a new map version. The protocol:
//
//  1. Quiesce: every file and directory in the subtree is expelled from
//     client caches through the shard's normal callback machinery
//     (forced write-back of dirty delayed writes, then invalidation) —
//     after this the source store holds the only copy of the bytes.
//  2. Copy the subtree into the destination store and unlink it from
//     the source. This is control-plane work; its disk and network cost
//     is not modeled (a production system would stream the subtree).
//  3. Bump the map version and push it to every server. Clients still
//     holding the old map now earn ErrStale on migrated handles and
//     ErrNotHome on root-level names, both of which lead them back
//     through a map refetch to the new home.
//
// Hard links within the subtree are split into independent files by the
// copy; links spanning the subtree boundary cannot exist (link is
// single-shard by construction).
func (c *Cluster) Rebalance(p *sim.Proc, prefix string, to uint32) error {
	idx := -1
	for i, a := range c.m.Assignments {
		if a.Prefix == prefix {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("cluster: prefix %q not in shard map", prefix)
	}
	if int(to) >= len(c.shards) {
		return fmt.Errorf("cluster: no shard %d", to)
	}
	from := c.m.Assignments[idx].Shard
	if from == to {
		return nil
	}
	src, dst := c.shards[from], c.shards[to]
	name := strings.TrimPrefix(prefix, "/")
	sst := sr(src)
	if a, err := sst.Lookup(sst.Root(), name); err == nil {
		c.expelTree(p, src, a)
		if err := copyTree(sst, sr(dst), sst.Root(), sr(dst).Root(), name); err != nil {
			return fmt.Errorf("cluster: migrating %s: %w", prefix, err)
		}
		if err := removeTree(sst, sst.Root(), name); err != nil {
			return fmt.Errorf("cluster: unlinking %s from shard %d: %w", prefix, from, err)
		}
	}
	c.m.Assignments = append([]proto.ShardAssignment(nil), c.m.Assignments...)
	c.m.Assignments[idx].Shard = to
	c.m.Version++
	c.push()
	return nil
}

func sr(sh *Shard) *localfs.Store { return sh.Media.Store() }

// expelTree quiesces every node of a subtree: depth-first expulsion so a
// directory's contents are clean before the directory itself (and its
// name-cache leases) go.
func (c *Cluster) expelTree(p *sim.Proc, sh *Shard, a localfs.Attr) {
	if a.Type == localfs.TypeDirectory {
		if ents, err := sr(sh).Readdir(a.Ino); err == nil {
			for _, e := range ents {
				if ea, err := sr(sh).GetAttr(e.Ino); err == nil {
					c.expelTree(p, sh, ea)
				}
			}
		}
	}
	sh.SNFS.Expel(p, proto.Handle{FSID: sh.FSID, Ino: a.Ino, Gen: a.Gen})
}

// copyTree replicates src:(sdir)/name into dst:(ddir)/name.
func copyTree(src, dst *localfs.Store, sdir, ddir uint64, name string) error {
	a, err := src.Lookup(sdir, name)
	if err != nil {
		return err
	}
	switch a.Type {
	case localfs.TypeDirectory:
		da, err := dst.Mkdir(ddir, name, a.Mode)
		if err != nil {
			return err
		}
		ents, err := src.Readdir(a.Ino)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if err := copyTree(src, dst, a.Ino, da.Ino, e.Name); err != nil {
				return err
			}
		}
	case localfs.TypeSymlink:
		target, err := src.Readlink(a.Ino)
		if err != nil {
			return err
		}
		if _, err := dst.Symlink(ddir, name, target); err != nil {
			return err
		}
	default:
		da, err := dst.Create(ddir, name, a.Mode)
		if err != nil {
			return err
		}
		if a.Size > 0 {
			data, err := src.ReadAt(a.Ino, 0, int(a.Size))
			if err != nil {
				return err
			}
			// WriteAt, not WriteFrozen: data may be a view of a source
			// page that a later write changes in place.
			if _, err := dst.WriteAt(da.Ino, 0, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// removeTree unlinks (dir)/name recursively.
func removeTree(st *localfs.Store, dir uint64, name string) error {
	a, err := st.Lookup(dir, name)
	if err != nil {
		return err
	}
	if a.Type == localfs.TypeDirectory {
		ents, err := st.Readdir(a.Ino)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if err := removeTree(st, a.Ino, e.Name); err != nil {
				return err
			}
		}
		return st.Rmdir(dir, name)
	}
	_, err = st.Remove(dir, name)
	return err
}
