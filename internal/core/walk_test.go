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

// The schedules' small world: three clients and two files. A client's
// index is its ID's letter, a file's its inode number less one.
var (
	clients = []core.ClientID{"A", "B", "C"}
	files   = []proto.Handle{{FSID: 1, Ino: 1, Gen: 1}, {FSID: 1, Ino: 2, Gen: 1}}
)

// grants records which (client, file) pairs may hold dirty blocks: a
// write-open the table let the client cache sets the pair's bit, and a
// write-back callback clears it.
type grants uint8

func grantBit(c core.ClientID, h proto.Handle) grants {
	return 1 << (int(c[0]-'A')*len(files) + int(h.Ino-1))
}

func (g grants) has(c core.ClientID, h proto.Handle) bool { return g&grantBit(c, h) != 0 }

// judge referees a schedule: the strict auditor watches the table as its
// Observer, and the grants catch a wasted write-back — one sent to a
// client not granted caching on a write-open since its last write-back.
type judge struct {
	a    *audit.Auditor
	seen int // violations already reported
	g    grants
}

func newJudge() *judge { return &judge{a: audit.New(sim.NewKernel(1), nil)} }

// watch makes the auditor tab's Observer.
func (j *judge) watch(tab *core.Table) { tab.Observer = j.a.OnTransition }

// callbacks settles a batch of callbacks against the grants and describes
// the first wasted write-back ("" if none).
func (j *judge) callbacks(cbs []core.Callback) string {
	wasted := ""
	for _, cb := range cbs {
		if !cb.WriteBack {
			continue
		}
		if !j.g.has(cb.Client, cb.Handle) && wasted == "" {
			wasted = fmt.Sprintf("wasted write-back to %s", cb.Client)
		}
		j.g &^= grantBit(cb.Client, cb.Handle)
	}
	return wasted
}

// opened judges an open's callbacks and records a caching write grant.
func (j *judge) opened(c core.ClientID, h proto.Handle, write bool, res core.OpenResult) string {
	wasted := j.callbacks(res.Callbacks)
	if write && res.CacheEnabled {
		j.g |= grantBit(c, h)
	}
	return wasted
}

// died forgets a dead client's grants: its dirty blocks died with it.
func (j *judge) died(c core.ClientID) {
	for _, h := range files {
		j.g &^= grantBit(c, h)
	}
}

// verdict describes the first violation the auditor recorded since the
// last verdict ("" if none).
func (j *judge) verdict() string {
	vs := j.a.Violations()
	if len(vs) == j.seen {
		return ""
	}
	v := vs[j.seen]
	j.seen = len(vs)
	return v.String()
}

// TestSeededWalksAudited drives the state table through seeded random
// schedules — 24 steps a walk, each step an open, a close of an open the
// client holds or (1 step in 16) a client's death — refereed by the judge.
func TestSeededWalksAudited(t *testing.T) {
	const seeds, steps = 5000, 24
	type open struct {
		c     core.ClientID
		h     proto.Handle
		write bool
	}
	var failed int
	var first string
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		j := newJudge()
		tab := core.NewTable(0)
		j.watch(tab)
		var opens []open
		var trace []string
		bad := ""
		for step := 0; step < steps && bad == ""; step++ {
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
				j.died(c)
			case len(opens) > 0 && rng.Intn(2) == 0:
				i := rng.Intn(len(opens))
				o := opens[i]
				opens = append(opens[:i], opens[i+1:]...)
				trace = append(trace, fmt.Sprintf("%s closes %d write=%v", o.c, o.h.Ino, o.write))
				tab.Close(o.h, o.c, o.write)
			default:
				h, write := files[rng.Intn(len(files))], rng.Intn(2) == 0
				trace = append(trace, fmt.Sprintf("%s opens %d write=%v", c, h.Ino, write))
				bad = j.opened(c, h, write, tab.Open(h, c, write))
				opens = append(opens, open{c, h, write})
			}
			if v := j.verdict(); bad == "" {
				bad = v
			}
		}
		if bad != "" {
			failed++
			if first == "" {
				first = fmt.Sprintf("seed %d: %s after\n\t%s", seed, bad, strings.Join(trace, "\n\t"))
			}
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d walks failed; first, %s", failed, seeds, first)
	}
}
