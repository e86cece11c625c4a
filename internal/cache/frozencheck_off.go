//go:build !frozencheck

package cache

// frozenCheck is off: a block that leaves the cache goes back to its free
// list (see frozencheck_on.go).
const frozenCheck = false
