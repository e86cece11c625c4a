package harness_test

import (
	"fmt"
	"strings"
	"testing"

	"spritelynfs/internal/harness"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/scenario"
	"spritelynfs/internal/sim"
)

// census is the host work of one fleet run: the kernel's counts, events
// withdrawn included, the
// executor's submits, the RPC calls the fleet's clients sent, and the
// wire-image heads every endpoint built, the Pendings and reply heads it
// made and reused, and the timeouts that came due on answered calls
// (rpc.Endpoint.Work), and the cache blocks the clients' caches and the
// server's buffer cache made and reused (cache.Stats). A web-asset file
// is a whole number of words, so no head of a fleet run holds data.
type census struct {
	Pops, Switches, Spawns, Cancelled, Submits, Calls int64
	RPC                                               rpc.Work
	BlocksMade, BlocksReused                          int64
}

// unrecycled returns w as the release checker counts it: what is reused
// otherwise is made.
func unrecycled(w rpc.Work) rpc.Work {
	if !harness.Recycling {
		w.PendingsMade, w.PendingsReused = w.PendingsMade+w.PendingsReused, 0
		w.HeadsMade, w.HeadsReused = w.HeadsMade+w.HeadsReused, 0
	}
	return w
}

// unrecycled returns c as the release checker counts it: the wire's
// Pendings and reply heads, and the cache's blocks, are all made.
func (c census) unrecycled() census {
	c.RPC = unrecycled(c.RPC)
	if !harness.Recycling {
		c.BlocksMade, c.BlocksReused = c.BlocksMade+c.BlocksReused, 0
	}
	return c
}

// diff renders every count that differs from want as a signed difference.
func (c census) diff(want census) string {
	var b strings.Builder
	for _, f := range []struct {
		name      string
		got, want int64
	}{
		{"pops", c.Pops, want.Pops},
		{"switches", c.Switches, want.Switches},
		{"spawns", c.Spawns, want.Spawns},
		{"cancelled", c.Cancelled, want.Cancelled},
		{"submits", c.Submits, want.Submits},
		{"calls", c.Calls, want.Calls},
		{"heads", c.RPC.Heads, want.RPC.Heads},
		{"head bytes", c.RPC.HeadBytes, want.RPC.HeadBytes},
		{"pendings made", c.RPC.PendingsMade, want.RPC.PendingsMade},
		{"pendings reused", c.RPC.PendingsReused, want.RPC.PendingsReused},
		{"reply heads made", c.RPC.HeadsMade, want.RPC.HeadsMade},
		{"reply heads reused", c.RPC.HeadsReused, want.RPC.HeadsReused},
		{"stale timeouts", c.RPC.StaleTimeouts, want.RPC.StaleTimeouts},
		{"blocks made", c.BlocksMade, want.BlocksMade},
		{"blocks reused", c.BlocksReused, want.BlocksReused},
	} {
		if f.got != f.want {
			fmt.Fprintf(&b, " %s %d (%+d)", f.name, f.got, f.got-f.want)
		}
	}
	return b.String()
}

// TestWorkBudgets pins the host-work census of the fleet benchmark's run
// (web-asset, 1,000 clients × 10 ops, 30 s mean think time, seed 1) per
// protocol. The counts are exact for a fixed tree, as virtual time is: a
// change that moves one changes its pin here and says why. A smaller
// fleet would not do: its census is mostly the setup that writes the
// shared population, the same 400 files at any client count. Beside the
// pins, an SNFS fleet whose clients stay clean for 60 s submits no sync
// pass: the sweep has work only where a block is dirty.
func TestWorkBudgets(t *testing.T) {
	pins := []struct {
		pr   harness.Proto
		want census
	}{
		// While every call made its Pending and every reply its head,
		// each was made as often as calls and replies went out: 41,972
		// and 41,972 under NFS, 52,889 and 52,889 under SNFS, none
		// reused. The free lists now grow to the most ever held at once.
		// While the kernel could not withdraw an event, every call answered
		// before its timeout left the event to come due on it, stale, and
		// hold its Pending off the free list until then: pops 361992 and
		// 447188, Pendings made 5697 and 6939 (reused 36275 and 45950),
		// stale timeouts 41968 and 52884. A reply now withdraws its
		// timeout (Cancelled), so a Pending is held no longer than its
		// call: Pendings made is the most calls in flight at once, summed
		// over the endpoints. Each protocol withdraws the timeout of every
		// call answered, 4 (NFS) and 5 (SNFS) more than came due stale:
		// those of calls answered in the run's last second, which ended
		// before they came due. While every new key in a cache made its
		// block, blocks made were 24741 and 24002, none reused. A block
		// that leaves a cache is now the next: the server's evictions and
		// the clients' invalidations hand theirs on, and a buffer it
		// leaves with waits apart for the next write. (SNFS made 16146
		// and reused 7856 while such a block waited with its buffer, so
		// that an insert finding only those made its own.)
		{harness.NFS, census{Pops: 320024, Switches: 142160, Spawns: 1227, Cancelled: 41972, Submits: 10000, Calls: 40771, RPC: rpc.Work{Heads: 41972, HeadBytes: 6036820,
			PendingsMade: 1186, PendingsReused: 40786, HeadsMade: 228, HeadsReused: 41744}, BlocksMade: 2875, BlocksReused: 21866}},
		// While the sweep passed every client every interval, dirty or
		// not: pops 782963, switches 340521, spawns 29, submits 178241.
		{harness.SNFS, census{Pops: 394304, Switches: 172577, Spawns: 28, Cancelled: 52889, Submits: 10298, Calls: 50289, RPC: rpc.Work{Heads: 52889, HeadBytes: 6890632,
			PendingsMade: 1021, PendingsReused: 51868, HeadsMade: 566, HeadsReused: 52323}, BlocksMade: 16141, BlocksReused: 7861}},
	}
	for _, pin := range pins {
		cfg, err := scenario.Named("web-asset")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Clients, cfg.Ops, cfg.Gen.ThinkMean = 1000, 10, 30*sim.Second
		res, err := scenario.Run(pin.pr, harness.Default(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := res.Work
		got := census{w.Pops, w.Switches, w.Spawns, w.Cancelled, w.Submits, res.CallsSent, w.RPC, w.BlocksMade, w.BlocksReused}
		if d := got.diff(pin.want.unrecycled()); d != "" {
			t.Errorf("%v fleet census moved:%s", pin.pr, d)
		}
		t.Logf("%v: %.2f pops and %.2f switches per RPC", pin.pr,
			float64(got.Pops)/float64(got.Calls), float64(got.Switches)/float64(got.Calls))
	}

	// With delayed closes armed a pass has work with nothing dirty, and
	// each client's runs every interval: 11 each before 60 s.
	for _, delayedClose := range []bool{false, true} {
		pm := harness.Default()
		pm.SNFS.DelayedClose = delayedClose
		f := harness.BuildFleet(harness.SNFS, pm, harness.FleetOptions{Clients: 4, SyncInterval: 5 * sim.Second})
		if err := f.W.Run(func(p *sim.Proc) error { p.Sleep(60 * sim.Second); return nil }); err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if delayedClose {
			want = 44
		}
		if n := f.Work().Submits; n != want {
			t.Errorf("4 clean clients (delayed close %v) submitted %d sync passes in 60 s, want %d", delayedClose, n, want)
		}
	}
}

// TestAndrewHeadWork pins the wire-image work (rpc.Endpoint.Work) of one
// RunAndrew per protocol, /tmp remote, seed 1: the heads built outside a
// Pending and the bytes copied into heads, the Pendings and reply heads
// made and reused, and the stale timeouts, setup included. A short block
// goes out as its message's tail, so no head holds file data: what the
// heads carry is headers, names and attributes.
func TestAndrewHeadWork(t *testing.T) {
	for _, pin := range []struct {
		pr   harness.Proto
		want rpc.Work
	}{
		// While a tail whose length is not a multiple of 4 was encoded
		// inline, its WRITE's call head did not fit a Pending, and both
		// that head and its READ reply's held the data: heads 7358,
		// 6657 and 7104, head bytes 2904228, 1421844 and 1673428. Every
		// head now is a reply's, one per call served. While none was
		// recycled, each call made its Pending and each reply its head:
		// 7153, 6504 and 6899 of each. While each answered call's timeout
		// came due on it, stale (7139, 6499 and 6885 of them), and held
		// its Pending until then, Pendings made were 156, 165 and 165;
		// now a reply withdraws the timeout, and they are the most calls
		// in flight at once.
		{harness.NFS, rpc.Work{Heads: 7153, HeadBytes: 1054520, PendingsMade: 5, PendingsReused: 7148, HeadsMade: 220, HeadsReused: 6933}},
		{harness.SNFS, rpc.Work{Heads: 6504, HeadBytes: 868596, PendingsMade: 2, PendingsReused: 6502, HeadsMade: 172, HeadsReused: 6332}},
		{harness.RFS, rpc.Work{Heads: 6899, HeadBytes: 930216, PendingsMade: 5, PendingsReused: 6894, HeadsMade: 162, HeadsReused: 6737}},
	} {
		run, err := harness.RunAndrew(pin.pr, true, harness.Default())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := run.RPC, unrecycled(pin.want); got != want {
			t.Errorf("%v andrew: heads %d (%+d), head bytes %d (%+d), pendings made %d (%+d) and reused %d (%+d), reply heads made %d (%+d) and reused %d (%+d), stale timeouts %d (%+d)", pin.pr,
				got.Heads, got.Heads-want.Heads, got.HeadBytes, got.HeadBytes-want.HeadBytes,
				got.PendingsMade, got.PendingsMade-want.PendingsMade, got.PendingsReused, got.PendingsReused-want.PendingsReused,
				got.HeadsMade, got.HeadsMade-want.HeadsMade, got.HeadsReused, got.HeadsReused-want.HeadsReused,
				got.StaleTimeouts, got.StaleTimeouts-want.StaleTimeouts)
		}
	}
}

// buffers is what a client's block cache made and reused of the buffers
// its blocks' bytes live in (cache.Stats), in one sort and one Andrew run.
type buffers struct {
	SortMade, SortReused, AndrewMade, AndrewReused int64
}

// unrecycled returns b as the release checker counts it: every buffer is
// made.
func (b buffers) unrecycled() buffers {
	if !harness.Recycling {
		b.SortMade, b.SortReused = b.SortMade+b.SortReused, 0
		b.AndrewMade, b.AndrewReused = b.AndrewMade+b.AndrewReused, 0
	}
	return b
}

// TestCacheBufferWork pins the buffers the measurement client's cache
// made and reused over one RunSort (Table 5-3's largest input, update
// daemon on) and one RunAndrew (/tmp remote) per protocol, seed 1, setup
// included: one per new block a write makes, and one per copy of a frozen
// block or growth of a short one that a write forces.
func TestCacheBufferWork(t *testing.T) {
	for _, pin := range []struct {
		pr   harness.Proto
		want buffers
	}{
		// While a block left the cache with its buffer, which the
		// collector took, every buffer was made: 1,760 per sort and 629
		// per Andrew run under each protocol. A cancelled or invalidated
		// block's buffer is now the next; NFS and RFS still make every
		// one, for each block they write is sent, and so frozen.
		{harness.NFS, buffers{SortMade: 1760, AndrewMade: 629}},
		{harness.SNFS, buffers{SortMade: 1323, SortReused: 437, AndrewMade: 274, AndrewReused: 355}},
		{harness.RFS, buffers{SortMade: 1760, AndrewMade: 629}},
	} {
		pm := harness.Default()
		srt, err := harness.RunSort(pin.pr, pm.SortSizes[len(pm.SortSizes)-1], true, pm)
		if err != nil {
			t.Fatal(err)
		}
		and, err := harness.RunAndrew(pin.pr, true, pm)
		if err != nil {
			t.Fatal(err)
		}
		got := buffers{srt.Cache.BuffersMade, srt.Cache.BuffersReused, and.Cache.BuffersMade, and.Cache.BuffersReused}
		if want := pin.want.unrecycled(); got != want {
			t.Errorf("%v: buffers %+v, want %+v", pin.pr, got, want)
		}
	}
}
