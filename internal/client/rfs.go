package client

import (
	"spritelynfs/internal/core"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
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
	c.tracksOpens = true
	// Strict write-through (§2.5: "clients write-through to the server,
	// so the only possible inconsistency is between the server and
	// readers"): the server's invalidate-on-write depends on writes
	// arriving, so the partial tail does not linger.
	c.eagerTail = true
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
	n.rec.Invalidated++
	if err != nil {
		return proto.ErrIO
	}
	return proto.OK
}
