//go:build frozencheck

package cache

// FrozenCheck is the release checker: a block that leaves the cache is
// poisoned (the departed key, nil Data, Len -1) and never reused, so a
// holder that kept its *Block past a park or a cache call looks up a key
// no cache holds, and a slice of its bytes to its length panics. The
// client takes it for its open files too (client.Base's free list).
const FrozenCheck = true
