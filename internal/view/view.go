// Package view is the cluster's control plane for replicated shards: a
// viewservice in the MIT-viewservice tradition. Each shard has a
// numbered view — a (primary, backup) pair — and the service is the only
// authority allowed to change it. Servers ping the service periodically;
// when a primary misses enough pings the service publishes the next
// view, promoting the backup, and pushes the change into the versioned
// shard map (through the MapStore) so the existing ErrNotHome / map-
// refetch machinery heals clients onto the new primary.
//
// Split-brain refusal is the one safety rule: view i+1 is never
// published until the primary of view i has acknowledged view i (by
// echoing its number in a ping). A primary that is merely partitioned
// from the service therefore cannot be succeeded behind its back until
// it has at least once agreed to the view it is being removed from —
// and a backup that never heard the full replication stream (its pings
// say so) is never promoted at all.
package view

import (
	"fmt"
	"io"
	"sort"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/xdr"
)

// MapStore is the service's handle on the authoritative shard map: it
// reads the current map for ping replies and rewrites one shard's
// primary address when a view change promotes the backup. The cluster
// implements it; the map version bump and the push to the surviving
// servers happen inside SetPrimary.
type MapStore interface {
	Map() proto.ShardMap
	SetPrimary(shard uint32, addr string)
}

// Config tunes the service.
type Config struct {
	// Interval is the expected ping period. Zero means 100 ms.
	Interval sim.Duration
	// DeadPings is how many consecutive missed intervals declare a
	// server dead. Zero means 5.
	DeadPings int
	// Log, when set, receives one text line per view change.
	Log io.Writer
	// OnEvent, when set, observes every view change (flight recorder,
	// timelines, and the cluster's synchronous promotion hook). p is the
	// publishing process (nil for the registration event).
	OnEvent func(p *sim.Proc, shard uint32, v proto.View, reason string)
}

func (c *Config) fill() {
	if c.Interval == 0 {
		c.Interval = 100 * sim.Millisecond
	}
	if c.DeadPings == 0 {
		c.DeadPings = 5
	}
}

// memberState is what the service remembers about one server address.
type memberState struct {
	lastSeen sim.Time
	synced   bool
	lag      uint32
}

// shardState is one shard's row of the control plane.
type shardState struct {
	cur     proto.View
	acked   bool // the primary of cur has echoed cur.Num
	members map[string]*memberState
	changes uint64 // view transitions since registration
}

// Service is the viewservice. One instance runs per cluster, on its own
// endpoint; it is deliberately unreplicated (the classic lab
// simplification — the paper's recovery story already covers what
// happens when a control plane is briefly unavailable: nothing, until
// it returns).
type Service struct {
	k     *sim.Kernel
	ep    *rpc.Endpoint
	store MapStore
	cfg   Config

	shards map[uint32]*shardState
}

// NewService attaches the service to ep and starts its tick daemon.
func NewService(k *sim.Kernel, ep *rpc.Endpoint, store MapStore, cfg Config) *Service {
	cfg.fill()
	s := &Service{k: k, ep: ep, store: store, cfg: cfg, shards: make(map[uint32]*shardState)}
	ep.RegisterMsg(proto.ProgView, s.serve)
	k.Go(string(ep.Addr())+"/view-tick", s.tickDaemon)
	return s
}

// Register installs shard's initial view (number 1). Both members are
// treated as just-seen so the tick daemon does not declare them dead
// before their first ping.
func (s *Service) Register(shard uint32, primary, backup string) {
	st := &shardState{
		cur:     proto.View{Num: 1, Primary: primary, Backup: backup},
		members: make(map[string]*memberState),
	}
	now := s.k.Now()
	st.members[primary] = &memberState{lastSeen: now}
	if backup != "" {
		st.members[backup] = &memberState{lastSeen: now}
	}
	s.shards[shard] = st
	s.logf(nil, shard, st.cur, "registered")
}

// View returns shard's current view.
func (s *Service) View(shard uint32) proto.View {
	if st, ok := s.shards[shard]; ok {
		return st.cur
	}
	return proto.View{}
}

// Views returns every shard's row, sorted by shard id, with the
// replication status from the most recent primary ping.
func (s *Service) Views() []proto.ShardView {
	ids := make([]uint32, 0, len(s.shards))
	for id := range s.shards {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]proto.ShardView, 0, len(ids))
	for _, id := range ids {
		st := s.shards[id]
		sv := proto.ShardView{Shard: id, View: st.cur}
		if m, ok := st.members[st.cur.Primary]; ok {
			sv.Synced = m.synced
			sv.Lag = m.lag
		}
		out = append(out, sv)
	}
	return out
}

// Changes returns how many view transitions shard has gone through.
func (s *Service) Changes(shard uint32) uint64 {
	if st, ok := s.shards[shard]; ok {
		return st.changes
	}
	return 0
}

// serve handles ProgView calls.
func (s *Service) serve(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) (proto.Message, rpc.Status) {
	switch proc {
	case proto.ViewProcPing:
		a := proto.DecodeViewPingArgs(xdr.NewDecoder(args))
		st, ok := s.shards[a.Shard]
		if !ok {
			return &proto.ViewPingReply{Status: proto.ErrInval}, rpc.StatusOK
		}
		m, ok := st.members[a.Addr]
		if !ok {
			m = &memberState{}
			st.members[a.Addr] = m
		}
		m.lastSeen = p.Now()
		m.synced = a.Synced
		m.lag = a.Lag
		if a.Addr == st.cur.Primary && a.ViewSeen == st.cur.Num && !st.acked {
			st.acked = true
			s.logf(p, a.Shard, st.cur, "acked")
		}
		return &proto.ViewPingReply{Status: proto.OK, View: st.cur, Map: s.store.Map()}, rpc.StatusOK
	case proto.ViewProcGet:
		return &proto.ViewGetReply{Status: proto.OK, Views: s.Views(), Map: s.store.Map()}, rpc.StatusOK
	}
	return nil, rpc.StatusProcUnavail
}

// tickDaemon scans for dead members once per interval and publishes the
// next view where the rules allow one.
func (s *Service) tickDaemon(p *sim.Proc) {
	for {
		p.Sleep(s.cfg.Interval)
		s.tick(p)
	}
}

func (s *Service) tick(p *sim.Proc) {
	now := p.Now()
	grace := sim.Duration(s.cfg.DeadPings) * s.cfg.Interval
	ids := make([]uint32, 0, len(s.shards))
	for id := range s.shards {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := s.shards[id]
		dead := func(addr string) bool {
			m, ok := st.members[addr]
			return ok && now.Sub(m.lastSeen) > grace
		}
		switch {
		case st.cur.Primary != "" && dead(st.cur.Primary):
			// The primary stopped pinging. Promote the backup — but
			// only if the current view was acked (split-brain rule),
			// there is a backup, it is alive, and its own pings say it
			// heard the whole replication stream.
			if !st.acked || st.cur.Backup == "" || dead(st.cur.Backup) {
				continue
			}
			if bm := st.members[st.cur.Backup]; bm == nil || !bm.synced {
				continue
			}
			next := proto.View{Num: st.cur.Num + 1, Primary: st.cur.Backup}
			// Map first, then publish: OnEvent consumers (the cluster's
			// promotion hook) must see the post-change map.
			s.store.SetPrimary(id, next.Primary)
			s.publish(p, id, st, next, "primary-dead")
		case st.cur.Backup != "" && dead(st.cur.Backup):
			// The backup died: publish a backup-less view so the
			// primary stops streaming to a black hole. The map does not
			// change.
			if !st.acked {
				continue
			}
			next := proto.View{Num: st.cur.Num + 1, Primary: st.cur.Primary}
			s.publish(p, id, st, next, "backup-dead")
		}
	}
}

func (s *Service) publish(p *sim.Proc, shard uint32, st *shardState, next proto.View, reason string) {
	st.cur = next
	st.acked = false
	st.changes++
	s.logf(p, shard, next, reason)
}

func (s *Service) logf(p *sim.Proc, shard uint32, v proto.View, reason string) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "t=%v shard=%d view=%d primary=%s backup=%s reason=%s\n",
			s.k.Now(), shard, v.Num, v.Primary, v.Backup, reason)
	}
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(p, shard, v, reason)
	}
}
