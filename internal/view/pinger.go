package view

import (
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/xdr"
)

// PingerConfig wires one server into the viewservice.
type PingerConfig struct {
	// Shard is the shard this server belongs to.
	Shard uint32
	// Self is the address the server reports itself as.
	Self simnet.Addr
	// Service is the viewservice's address.
	Service simnet.Addr
	// Crashed, when set, suppresses pings while it returns true — a
	// crashed host does not ping, which is exactly how the service
	// learns it died.
	Crashed func() bool
	// Status, when set, supplies the replication health reported in
	// each ping: a primary reports whether its backup is caught up and
	// how many records are queued; a backup reports whether it has
	// seen a gap-free stream.
	Status func() (synced bool, lag uint32)
	// OnView fires once per view-number change with the new view and
	// the map that came with it. Returning true acknowledges the view
	// (the next ping echoes its number); returning false leaves the
	// old acknowledgement standing, and the service will keep waiting.
	OnView func(p *sim.Proc, v proto.View, m proto.ShardMap) bool
}

// Pinger is one server's periodic heartbeat into the viewservice.
type Pinger struct {
	k    *sim.Kernel
	ep   *rpc.Endpoint
	cfg  PingerConfig
	seen uint64
}

// StartPinger begins pinging on its own process.
func StartPinger(k *sim.Kernel, ep *rpc.Endpoint, cfg PingerConfig) *Pinger {
	pg := &Pinger{k: k, ep: ep, cfg: cfg}
	k.Go(string(cfg.Self)+"/view-ping", pg.loop)
	return pg
}

func (pg *Pinger) loop(p *sim.Proc) {
	for {
		p.Sleep(PingInterval)
		if pg.cfg.Crashed != nil && pg.cfg.Crashed() {
			continue
		}
		var synced bool
		var lag uint32
		if pg.cfg.Status != nil {
			synced, lag = pg.cfg.Status()
		}
		args := proto.ViewPingArgs{
			Shard: pg.cfg.Shard, Addr: string(pg.cfg.Self),
			ViewSeen: pg.seen, Synced: synced, Lag: lag,
		}
		// One attempt, no retries: the next ping is the retry, and a
		// backed-off retransmit schedule would just delay failure
		// detection.
		body, err := pg.ep.CallXDREx(p, pg.cfg.Service, proto.ProgView, 1, proto.ViewProcPing,
			args.XDR, PingInterval, 0)
		if err != nil {
			continue
		}
		var r proto.ViewPingReply
		if r.XDR(xdr.NewDecoder(body).Codec()); r.Status != proto.OK {
			continue
		}
		if r.View.Num > pg.seen {
			ack := true
			if pg.cfg.OnView != nil {
				ack = pg.cfg.OnView(p, r.View, r.Map)
			}
			if ack {
				pg.seen = r.View.Num
			}
		}
	}
}
