//go:build frozencheck

package harness

// Recycling is off under the release checker (internal/rpc): every
// Pending and reply head is made, none reused.
const Recycling = false
