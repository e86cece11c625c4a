//go:build frozencheck

package rpc

// frozenCheck is the release checker: a released Pending's inline image
// and a released reply head are filled with 0xA5 and never reused, and a
// later hold, release or timeout of either panics. A holder that reads
// released bytes then reads 0xA5, which no test's reply or argument is.
const frozenCheck = true

// scribble marks b as released.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}
