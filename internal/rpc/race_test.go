//go:build race

package rpc

// raceEnabled skips the allocation budgets: the detector inflates counts.
const raceEnabled = true
