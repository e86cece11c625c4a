//go:build !frozencheck

package cache

// FrozenCheck is off: a block that leaves the cache goes back to its free
// list, and a closed client file to its client's (see frozencheck_on.go).
const FrozenCheck = false
