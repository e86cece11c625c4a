//go:build race

package core

// raceEnabled skips the allocation budgets: the detector inflates counts.
const raceEnabled = true
