package sim

// LanesOpened reports how many of k's lanes have held an event. It is
// exported to package sim_test, whose tests build whole worlds from the
// packages that import this one.
func LanesOpened(k *Kernel) int { return k.opened }
