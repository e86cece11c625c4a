//go:build !frozencheck

package harness

// Recycling says whether released Pendings and reply heads are reused,
// as they are but under the release checker (internal/rpc).
const Recycling = true
