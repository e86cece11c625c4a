package workload

import (
	"fmt"
	"math/rand"

	"spritelynfs/internal/sim"
)

// OpKind classifies one generated file operation. Each op is a whole
// open→transfer→close cycle (the unit both client protocols account
// consistency against).
type OpKind uint8

// The generated op kinds.
const (
	OpRead OpKind = iota
	OpWrite
)

func (k OpKind) String() string {
	if k == OpWrite {
		return "write"
	}
	return "read"
}

// Op is one generated operation: think for Think, then run Kind against
// the target file. Shared targets index the scenario's common Zipf-
// ranked population; private targets index the generating client's own
// file serials (never contended).
type Op struct {
	Kind   OpKind
	Shared bool
	File   int
	Think  sim.Duration
}

// String renders the op for byte-comparable trace files.
func (o Op) String() string {
	t := "priv"
	if o.Shared {
		t = "shared"
	}
	return fmt.Sprintf("%s %s/%d think=%d", o.Kind, t, o.File, int64(o.Think))
}

// GenConfig parameterizes one client's operation stream.
type GenConfig struct {
	// SharedFiles is the size of the common file population.
	SharedFiles int
	// ZipfS and ZipfV shape file popularity over the shared population
	// (rank-frequency exponent s > 1, offset v ≥ 1): a handful of hot
	// files take most of the accesses, the defining property of web-
	// asset and shared-header traffic.
	ZipfS, ZipfV float64
	// ReadFrac is the probability an op is a read; the rest are writes.
	ReadFrac float64
	// SharedWriteFrac is the probability a write targets the shared
	// population (write-sharing, the case that forces SNFS files
	// uncachable) rather than the client's private files.
	SharedWriteFrac float64
	// ThinkMean is the mean of the exponential think-time distribution
	// separating a client's consecutive ops — the paper's users don't
	// issue back-to-back syscalls forever.
	ThinkMean sim.Duration
}

func (c *GenConfig) fill() {
	if c.SharedFiles == 0 {
		c.SharedFiles = 1
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.1
	}
	if c.ZipfV < 1 {
		c.ZipfV = 1
	}
}

// Gen produces one client's deterministic operation stream. Each client
// owns an independent RNG stream derived from (run seed, client index),
// so a 4,000-client scenario is reproducible op-for-op regardless of
// how the engine interleaves clients, and adding clients never perturbs
// the streams of existing ones.
type Gen struct {
	cfg     GenConfig
	rng     *rand.Rand
	zipf    *rand.Zipf
	private int // next private file serial
}

// NewGen returns client client's stream for run seed seed.
func NewGen(seed int64, client int, cfg GenConfig) *Gen {
	cfg.fill()
	rng := rand.New(rand.NewSource(streamSeed(seed, client)))
	return &Gen{
		cfg:  cfg,
		rng:  rng,
		zipf: rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(cfg.SharedFiles-1)),
	}
}

// Reset reseeds g, in place, to the stream NewGen(seed, client, cfg) would
// draw with g's cfg, so one Gen can draw every client's stream in turn
// without a source per client.
func (g *Gen) Reset(seed int64, client int) {
	g.rng.Seed(streamSeed(seed, client))
	g.private = 0
}

// streamSeed derives client client's source seed from run seed seed,
// SplitMix64-style: it decorrelates per-client streams even for adjacent
// client indices and small seeds.
func streamSeed(seed int64, client int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(client+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0x94D049BB133111EB
	z ^= z >> 27
	return int64(z)
}

// Next draws the client's next operation.
func (g *Gen) Next() Op {
	var op Op
	if g.cfg.ThinkMean > 0 {
		op.Think = sim.Duration(g.rng.ExpFloat64() * float64(g.cfg.ThinkMean))
	}
	if g.rng.Float64() < g.cfg.ReadFrac {
		op.Kind, op.Shared = OpRead, true
		op.File = int(g.zipf.Uint64())
		return op
	}
	op.Kind = OpWrite
	if g.rng.Float64() < g.cfg.SharedWriteFrac {
		op.Shared = true
		op.File = int(g.zipf.Uint64())
		return op
	}
	// Private write: cycle through a small per-client working set so
	// rewrites (cache hits, version bumps) happen too.
	op.File = g.private % 4
	g.private++
	return op
}
