//go:build !frozencheck

package harness

// Recycling says whether released Pendings and reply heads, and the
// blocks that leave a cache, are reused, as they are but under the
// release checker (internal/rpc, internal/cache).
const Recycling = true
