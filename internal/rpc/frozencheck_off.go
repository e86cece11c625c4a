//go:build !frozencheck

package rpc

// frozenCheck is off: released objects go back to their free lists
// (see frozencheck_on.go).
const frozenCheck = false

func scribble([]byte) {}
