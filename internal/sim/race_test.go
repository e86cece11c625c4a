//go:build race

package sim

// raceEnabled skips the allocation budgets: the detector inflates counts.
const raceEnabled = true
