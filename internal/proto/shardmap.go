package proto

import (
	"fmt"
	"strings"

	"spritelynfs/internal/xdr"
)

// ShardAssignment gives one top-level directory subtree to a shard.
//
// Prefixes are restricted to a single root-level component ("/src", not
// "/src/lib"): the server-side route guard only sees (root handle, name)
// pairs, so deeper prefixes could not be checked there and a stale-map
// client could silently operate on the wrong shard. Validate enforces
// the restriction.
type ShardAssignment struct {
	Prefix string // "/name", a single root-level component
	Shard  uint32 // index into ShardMap.Servers
}

// ShardMap is the versioned partition of the namespace across a cluster
// of SNFS servers. Consistency state (Table 4-1) is strictly per-file,
// so partitioning the namespace partitions the protocol: shards share
// nothing and a name has exactly one home at any map version.
//
// Clients cache the map; a server that is not the home of a name answers
// ErrNotHome, and the client refetches the map (ProcShardMap) and
// retries at the owner. Versions only grow; a client never replaces its
// map with an older one.
//
// Names at the root that appear in no assignment belong to shard 0.
type ShardMap struct {
	Version     uint32
	Servers     []string // shard id -> server address
	Assignments []ShardAssignment
}

// IsZero reports whether the map is unset (a standalone server).
func (m *ShardMap) IsZero() bool {
	return m.Version == 0 && len(m.Servers) == 0 && len(m.Assignments) == 0
}

// Owner returns the shard owning the root-level name (no slashes).
func (m *ShardMap) Owner(name string) uint32 {
	for _, a := range m.Assignments {
		if a.Prefix == "/"+name {
			return a.Shard
		}
	}
	return 0
}

// Validate checks structural invariants: single-component prefixes, no
// duplicate prefixes, shard ids within Servers.
func (m *ShardMap) Validate() error {
	seen := make(map[string]bool, len(m.Assignments))
	for _, a := range m.Assignments {
		if len(a.Prefix) < 2 || a.Prefix[0] != '/' || strings.Contains(a.Prefix[1:], "/") {
			return fmt.Errorf("shardmap: prefix %q is not a single root-level component", a.Prefix)
		}
		if seen[a.Prefix] {
			return fmt.Errorf("shardmap: duplicate prefix %q", a.Prefix)
		}
		seen[a.Prefix] = true
		if int(a.Shard) >= len(m.Servers) {
			return fmt.Errorf("shardmap: prefix %q assigned to shard %d, but only %d server(s)", a.Prefix, a.Shard, len(m.Servers))
		}
	}
	return nil
}

// XDR codes m.
func (m *ShardMap) XDR(c xdr.Codec) {
	c.Uint32(&m.Version)
	xdr.Count(c, &m.Servers, 1<<16)
	for i := range m.Servers {
		c.String(&m.Servers[i])
	}
	xdr.Count(c, &m.Assignments, 1<<16)
	for i := range m.Assignments {
		c.String(&m.Assignments[i].Prefix)
		c.Uint32(&m.Assignments[i].Shard)
	}
}

// ShardMapArgs is the (empty) argument of ProcShardMap.
type ShardMapArgs struct{}

func (m *ShardMapArgs) XDR(xdr.Codec) {}

// ShardMapReply carries the server's current shard map.
type ShardMapReply struct {
	Status Status
	Map    ShardMap
}

func (m *ShardMapReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK {
		m.Map.XDR(c)
	}
}
