package client

import (
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/sim"
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

// NFSClient is the unmodified NFS client file system: Base with the
// probe policy for attributes, the open-time getattr check (its server
// keeps no open state) and write-through, the partial tail delayed.
type NFSClient struct {
	*Base
}

// NewNFS creates an NFS client talking to cfg.Server through ep.
func NewNFS(k *sim.Kernel, ep *rpc.Endpoint, cfg Config, opts NFSOptions) *NFSClient {
	c := &NFSClient{Base: newBase(k, ep, cfg)}
	c.attrs.policy = attrPolicyProbe
	if opts.ProbeMin != 0 {
		c.attrs.probeMin = opts.ProbeMin
	}
	if opts.ProbeMax != 0 {
		c.attrs.probeMax = opts.ProbeMax
	}
	c.invalidateOnClose = opts.InvalidateOnClose
	return c
}
