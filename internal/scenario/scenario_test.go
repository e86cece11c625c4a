package scenario

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"spritelynfs/internal/harness"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/workload"
)

// TestScenarioDeterminism: the same seed and parameters produce byte-
// identical op traces — every client's stream, every interleaving,
// every completion instant — and the trace is the one recorded while
// each client drew from a source of its own and the sync sweep passed
// every client every interval (its SHA-256 below; a change that moves
// simulated behaviour on purpose records the new one).
func TestScenarioDeterminism(t *testing.T) {
	run := func() []string {
		cfg, err := Named("shared-db")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Clients, cfg.Ops, cfg.Trace = 6, 8, true
		res, err := Run(harness.SNFS, harness.Default(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != int64(cfg.Clients*cfg.Ops) {
			t.Fatalf("completed %d ops, want %d", res.Ops, cfg.Clients*cfg.Ops)
		}
		return res.OpTrace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at line %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	const want = "0a7fb32070c829fe7f8ff6450809a70c38d17fc30564bf3247c41d8f87e5de68"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(a, "\n")))); got != want {
		t.Errorf("op trace moved: SHA-256 %s, want %s; first line %q, last %q", got, want, a[0], a[len(a)-1])
	}
}

// TestScenarioSeedSensitivity: a different seed yields a different
// trace (the determinism test isn't vacuous).
func TestScenarioSeedSensitivity(t *testing.T) {
	run := func(seed int64) []string {
		cfg, _ := Named("web-asset")
		cfg.Clients, cfg.Ops, cfg.Trace = 4, 6, true
		pm := harness.Default()
		pm.Seed = seed
		res, err := Run(harness.NFS, pm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.OpTrace
	}
	a, b := run(1), run(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical op traces")
	}
}

// TestScenarioAllNamed: every preset runs clean (audited) at small N
// under both protocols.
func TestScenarioAllNamed(t *testing.T) {
	for _, name := range Names() {
		for _, pr := range []harness.Proto{harness.NFS, harness.SNFS} {
			cfg, err := Named(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Clients, cfg.Ops = 4, 6
			pm := harness.Default()
			if pr == harness.SNFS {
				pm.Audit = true
			}
			res, err := Run(pr, pm, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, pr, err)
			}
			if res.Errors != 0 {
				t.Errorf("%s/%s: %d op errors", name, pr, res.Errors)
			}
			if res.Ops != int64(cfg.Clients*cfg.Ops) {
				t.Errorf("%s/%s: completed %d ops, want %d", name, pr, res.Ops, cfg.Clients*cfg.Ops)
			}
		}
	}
}

// TestGenZipfRankFrequency: the popularity sampler actually skews —
// low ranks are drawn more often than high ranks, monotonically across
// rank decades.
func TestGenZipfRankFrequency(t *testing.T) {
	g := workload.NewGen(1, 0, workload.GenConfig{
		SharedFiles: 1000,
		ZipfS:       1.2, ZipfV: 1,
		ReadFrac: 1,
	})
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		op := g.Next()
		counts[op.File]++
	}
	decade := func(lo, hi int) int {
		total := 0
		for i := lo; i < hi; i++ {
			total += counts[i]
		}
		return total
	}
	d0, d1, d2 := decade(0, 10), decade(10, 100), decade(100, 1000)
	if !(counts[0] > counts[9]) || !(d0 > d1) || !(d1 > d2) {
		t.Errorf("rank-frequency not Zipf-like: top=%d rank9=%d decades=%d/%d/%d",
			counts[0], counts[9], d0, d1, d2)
	}
}

// TestGenStreamsIndependent: two clients of the same run draw different
// streams, and the same client is reproducible.
func TestGenStreamsIndependent(t *testing.T) {
	cfg := workload.GenConfig{SharedFiles: 100, ZipfS: 1.2, ZipfV: 1, ReadFrac: 0.5, ThinkMean: 10 * sim.Millisecond}
	draw := func(client int) []string {
		g := workload.NewGen(7, client, cfg)
		var ops []string
		for i := 0; i < 32; i++ {
			ops = append(ops, g.Next().String())
		}
		return ops
	}
	a1, a2, b := draw(3), draw(3), draw(4)
	sameAs := func(x, y []string) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !sameAs(a1, a2) {
		t.Error("same (seed, client) not reproducible")
	}
	if sameAs(a1, b) {
		t.Error("adjacent clients drew identical streams")
	}
}
