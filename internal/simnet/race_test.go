//go:build race

package simnet

// raceEnabled skips the allocation budgets: the detector inflates counts.
const raceEnabled = true
