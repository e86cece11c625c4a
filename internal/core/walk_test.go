package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/core"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
)

// TestSeededWalksAudited drives the state table through seeded random
// schedules — 3 clients and 2 files, 24 steps a walk, each step an open, a
// close of an open the client holds or (1 step in 16) a client's death —
// with the auditor as the table's Observer. Every walk must leave the
// auditor silent, and no write-back callback may be wasted: one goes only
// to a client granted caching on a write-open since its last write-back.
func TestSeededWalksAudited(t *testing.T) {
	const seeds, steps = 5000, 24
	clients := []core.ClientID{"A", "B", "C"}
	files := []proto.Handle{{FSID: 1, Ino: 1, Gen: 1}, {FSID: 1, Ino: 2, Gen: 1}}
	type open struct {
		c     core.ClientID
		h     proto.Handle
		write bool
	}
	type grant struct {
		c core.ClientID
		h proto.Handle
	}
	var violations, wasted int
	var first string
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := audit.New(sim.NewKernel(seed), nil)
		tab := core.NewTable(0)
		tab.Observer = a.OnTransition
		var opens []open
		granted := map[grant]bool{} // may hold dirty blocks
		var trace []string
		fail := func(what string) {
			if first == "" {
				first = fmt.Sprintf("seed %d: %s after\n\t%s", seed, what, strings.Join(trace, "\n\t"))
			}
		}
		for step := 0; step < steps; step++ {
			c := clients[rng.Intn(len(clients))]
			switch {
			case rng.Intn(16) == 0:
				trace = append(trace, fmt.Sprintf("%s dies", c))
				tab.ClientDead(c)
				kept := opens[:0]
				for _, o := range opens {
					if o.c != c {
						kept = append(kept, o)
					}
				}
				opens = kept
				for g := range granted {
					if g.c == c {
						delete(granted, g)
					}
				}
			case len(opens) > 0 && rng.Intn(2) == 0:
				i := rng.Intn(len(opens))
				o := opens[i]
				opens = append(opens[:i], opens[i+1:]...)
				trace = append(trace, fmt.Sprintf("%s closes %d write=%v", o.c, o.h.Ino, o.write))
				tab.Close(o.h, o.c, o.write)
			default:
				h, write := files[rng.Intn(len(files))], rng.Intn(2) == 0
				trace = append(trace, fmt.Sprintf("%s opens %d write=%v", c, h.Ino, write))
				res := tab.Open(h, c, write)
				for _, cb := range res.Callbacks {
					if !cb.WriteBack {
						continue
					}
					if !granted[grant{cb.Client, cb.Handle}] {
						wasted++
						fail(fmt.Sprintf("wasted write-back to %s", cb.Client))
					}
					delete(granted, grant{cb.Client, cb.Handle})
				}
				if write && res.CacheEnabled {
					granted[grant{c, h}] = true
				}
				opens = append(opens, open{c, h, write})
			}
		}
		if vs := a.Violations(); len(vs) > 0 {
			violations += len(vs)
			fail(vs[0].String())
		}
	}
	if violations > 0 || wasted > 0 {
		t.Errorf("%d walks: %d violations, %d wasted write-backs; first, %s", seeds, violations, wasted, first)
	}
}
