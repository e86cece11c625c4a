//go:build race

package harness

// raceEnabled skips the allocation budgets: the detector inflates counts.
const raceEnabled = true
