// Package spritelynfs reproduces "Spritely NFS: Experiments with
// Cache-Consistency Protocols" (V. Srinivasan and Jeffrey C. Mogul,
// SOSP 1989) as a runnable system: an NFS client/server pair with the
// reference-port consistency behaviour, a Spritely NFS pair with the
// paper's explicit open/close/callback consistency protocol and server
// state table, a deterministic discrete-event testbed (network, disks,
// CPUs) calibrated to the paper's hardware, and the complete benchmark
// harness that regenerates every table and figure of the evaluation.
//
// Quick start:
//
//	pm := spritelynfs.DefaultParams()
//	world := spritelynfs.NewWorld(spritelynfs.SNFS, true, pm)
//	err := world.Run(func(p *sim.Proc) error {
//	    if err := world.NS.WriteFile(p, "/data/hello", 4096, 8192); err != nil {
//	        return err
//	    }
//	    _, err := world.NS.ReadFile(p, "/data/hello", 8192)
//	    return err
//	})
//
// The experiment entry points (Table51 .. Table56, RunFigure) each build
// fresh worlds and return both raw measurements and a rendered table;
// cmd/snfs-bench's registry wraps them and its test holds their output
// against results/. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured notes.
package spritelynfs

import (
	"spritelynfs/internal/client"
	"spritelynfs/internal/harness"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// Proto selects the file system under test.
type Proto = harness.Proto

// The three configurations the paper compares, plus RFS (the §2.5
// related-work protocol: NFS's write policy with Sprite's consistency).
const (
	Local = harness.Local
	NFS   = harness.NFS
	SNFS  = harness.SNFS
	RFS   = harness.RFS
)

// Params is the calibrated testbed parameter set.
type Params = harness.Params

// World is an assembled testbed (client host, namespace, and — for the
// remote protocols — a server host across the simulated Ethernet).
type World = harness.World

// AndrewRun, SortRun and Figure carry experiment measurements.
type (
	AndrewRun = harness.AndrewRun
	SortRun   = harness.SortRun
	Figure    = harness.Figure
)

// DefaultParams returns the calibrated parameters (Titan-class hosts,
// 10 Mbit/s Ethernet, RA81-class disks, 8 KB transfers, 4 KB server
// blocks, the paper's cache sizes and client policies).
func DefaultParams() Params { return harness.Default() }

// NewWorld builds a testbed for the given protocol; tmpRemote selects
// whether /tmp and /usr/tmp live on the server (the Table 5-1 axis).
func NewWorld(pr Proto, tmpRemote bool, pm Params) *World {
	return harness.Build(pr, tmpRemote, pm)
}

// Experiment entry points, one per table/figure of the paper.
var (
	Table51    = harness.Table51
	Table52    = harness.Table52
	Table53    = harness.Table53
	Table54    = harness.Table54
	Table55    = harness.Table55
	Table56    = harness.Table56
	RunFigure  = harness.RunFigure
	RunAndrew  = harness.RunAndrew
	RunSort    = harness.RunSort
	Micro      = harness.MicroBenchmarks
	Ablations  = harness.Ablations
	WriteShare = harness.WriteShareExperiment
	Scale      = harness.ScaleExperiment
	RFSCompare = harness.RFSExperiment
)

// Seconds converts simulated time to float seconds (re-exported for
// benchmark reporting).
func Seconds(d sim.Duration) float64 { return d.Seconds() }

// Re-exports for building custom topologies (extra client hosts, hybrid
// servers, tuned policies) without reaching into internal packages.
type (
	// Proc is the handle workload code receives inside World.Run.
	Proc = sim.Proc
	// Duration and Time are simulated-clock units (microseconds).
	Duration = sim.Duration
	Time     = sim.Time
	// Namespace is a mount table with the Unix-like file API.
	Namespace = vfs.Namespace
	// File is an open file.
	File = vfs.File
	// Flags control Namespace.Open.
	Flags = vfs.Flags
	// NFSClientOptions and SNFSClientOptions tune the client policies.
	NFSClientOptions  = client.NFSOptions
	SNFSClientOptions = client.SNFSOptions
	// SNFSServerOptions tunes the stateful server (hybrid coexistence,
	// state-table limit, recovery grace period).
	SNFSServerOptions = server.SNFSOptions
	// BuildOptions carries per-world overrides for NewWorldOpt.
	BuildOptions = harness.BuildOptions
)

// Open flags.
const (
	ReadOnly  = vfs.ReadOnly
	WriteOnly = vfs.WriteOnly
	ReadWrite = vfs.ReadWrite
	Create    = vfs.Create
	Truncate  = vfs.Truncate
)

// Simulated-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
)

// NewWorldOpt is NewWorld with overrides (hybrid server, read-ahead).
func NewWorldOpt(pr Proto, tmpRemote bool, pm Params, opt BuildOptions) *World {
	return harness.BuildOpt(pr, tmpRemote, pm, opt)
}
