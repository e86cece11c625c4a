//go:build frozencheck

package harness

// Recycling is off under the release checker (internal/rpc,
// internal/cache): every Pending, reply head and cache block is made, none
// reused.
const Recycling = false
