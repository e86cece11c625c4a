//go:build frozencheck

package cache

// frozenCheck is the release checker: a block that leaves the cache is
// poisoned (the departed key, nil Data, Len -1) and never reused, so a
// holder that kept its *Block past a park or a cache call looks up a key
// no cache holds, and a slice of its bytes to its length panics.
const frozenCheck = true
