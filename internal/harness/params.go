// Package harness assembles simulated worlds (server host, client host,
// network, disks, mounts) and runs the paper's experiments against them:
// one runner per table and figure of §5, plus the §5.1 micro-benchmarks
// and ablations of the design choices. The calibrated cost constants
// live here.
package harness

import (
	"io"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/client"
	"spritelynfs/internal/cluster"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/workload"
)

// Proto selects the file system under test.
type Proto = cluster.Proto

// The three configurations of Table 5-1/5-3, plus RFS (the §2.5
// related-work protocol, used by the rfs comparison experiment).
const (
	Local = cluster.Local
	NFS   = cluster.NFS
	SNFS  = cluster.SNFS
	RFS   = cluster.RFS
)

// Params is the full calibrated cost model and sizing of the testbed:
// Titan-class client and server, 10 Mbit/s Ethernet, RA81-class disks,
// 8 kbyte transfers over a 4 kbyte server file system block (§5.2).
type Params struct {
	Seed int64

	// Net models the shared Ethernet.
	Net simnet.Config
	// ServerDisk and ClientDisk model the RA81/RA82 drives.
	ServerDisk disk.Params
	ClientDisk disk.Params
	// Server holds per-op CPU costs; ServerWorkers the nfsd pool.
	Server        server.Config
	ServerWorkers int
	// ServerCacheBytes is the server buffer cache (~3.5 Mbytes in the
	// measured configuration); ClientCacheBytes the client's (~16 M).
	ServerCacheBytes int64
	ClientCacheBytes int64
	// TransferSize is the client cache-block/transfer unit (8 kbytes);
	// ServerBlockSize the server FS natural block (4 kbytes).
	TransferSize    int
	ServerBlockSize int

	// NFS and SNFS are the client policies under test.
	NFS  client.NFSOptions
	SNFS client.SNFSOptions
	// UnstableWrites arms the NFSv3-style unstable WRITE + COMMIT
	// pipeline on remote clients (and write gathering at the server).
	// Off by default so the paper-fidelity tables keep the vintage
	// per-block synchronous write path; the scale experiment turns it
	// on to show the disk-arm bottleneck moving out.
	UnstableWrites bool
	// AttrExtensions arms the attribute extensions on remote clients:
	// post-op attribute piggybacking (lookup/read/readdir replies prime
	// the unified attribute cache, remove/rename/close carry post-op wcc
	// attributes, directory listings use the READDIRPLUS-style procedure)
	// and the compound multi-component lookup (each symlink-free run of a
	// path walk in one round trip). Off by default so the paper-fidelity
	// tables keep the vintage RPC mix; the rpc experiment turns it on to
	// measure the getattr/lookup savings.
	AttrExtensions bool
	// LocalSyncInterval is the /etc/update period for local-disk
	// delayed writes (0 disables — the Table 5-5 configuration).
	LocalSyncInterval sim.Duration

	// Andrew is the benchmark tree/compiler model.
	Andrew workload.AndrewConfig
	// SortSizes are the three input sizes of Table 5-3.
	SortSizes []int
	// SortMemBuffer and SortMergeOrder shape the external sort.
	SortMemBuffer  int
	SortMergeOrder int
	SortCPUPerKB   sim.Duration

	// Audit arms the protocol auditor on SNFS worlds: every state-table
	// transition is replayed through a shadow Table 4-1 machine and every
	// client read is checked against a write ledger. World.Run fails if
	// any invariant is violated.
	Audit bool
	// AuditSink, when non-nil, receives the audit journal as JSONL.
	AuditSink io.Writer
	// AuditSinkFor, when non-nil, supplies a separate journal sink per
	// shard in cluster worlds (falls back to the shared AuditSink).
	AuditSinkFor func(shard int) io.Writer

	// SampleInterval arms the time-series sampler: the experiment
	// runners sample every metrics registry on the sim clock at this
	// period and attach the resulting timeline to the run (emitted as
	// timeline.json by snfs-bench). 0 (the default) disables sampling
	// entirely, keeping the paper-fidelity tables byte-identical.
	SampleInterval sim.Duration
	// FlightCapacity arms an event ring of this many events per server
	// (per shard in cluster worlds), its black box: served calls, state
	// transitions, callbacks, crashes and failover milestones. 0 (the
	// default) disables it.
	FlightCapacity int
	// FlightSink, when non-nil with FlightCapacity armed, receives the
	// ring's dumps: with Audit, the moment the first violation is
	// recorded — read out while it still holds the events leading up to
	// it — and, from RunClusterFailover, the killed shard's at the end.
	FlightSink io.Writer

	// Backups arms primary/backup replication in cluster worlds: every
	// shard gets a standby server fed by an async replication stream and
	// a viewservice that promotes it when the primary stops pinging (see
	// cluster.Config.Backups). Off by default.
	Backups bool
	// ViewLog, when non-nil, receives one text line per view change.
	ViewLog io.Writer

	// Spans arms the causal span recorder: every syscall becomes a root
	// span, the instrumented layers (cache, RPC, server queue/CPU, disk)
	// attach child spans, and the run reports a critical-path breakdown
	// plus a top-K slowest-ops capture. Off (the default) keeps every
	// hot path at one nil check and all paper tables byte-identical.
	Spans bool
	// SpanTopK bounds the slow-op capture (0 = 32).
	SpanTopK int
}

// serverHost is the server host every world of pm is built from.
func (pm Params) serverHost(pr Proto) cluster.ServerSpec {
	return cluster.ServerSpec{
		Proto:      pr,
		Addr:       "server",
		Workers:    pm.ServerWorkers,
		BlockSize:  pm.ServerBlockSize,
		Disk:       pm.ServerDisk,
		CacheBytes: pm.ServerCacheBytes,
		// The write-gathering half of the unstable-write pipeline.
		Gather: pm.UnstableWrites,
		Config: pm.Server,
	}
}

// clientHost is pm's full-size client host: the measurement client's
// cache, read-ahead and policies. The caller names it.
func (pm Params) clientHost(pr Proto) cluster.ClientSpec {
	s := cluster.ClientSpec{
		Proto: pr,
		Config: client.Config{
			BlockSize:  pm.TransferSize,
			CacheBytes: pm.ClientCacheBytes,
			ReadAhead:  true,
		},
		NFS:  pm.NFS,
		SNFS: pm.SNFS,
	}
	if pr != RFS {
		// The post-1989 extensions are NFS and SNFS features; RFS runs
		// as §2.5 describes it.
		s.Config.UnstableWrites = pm.UnstableWrites
		s.Config.AttrExtensions = pm.AttrExtensions
	}
	return s
}

// serverInstruments returns the instruments pm gives server host i of a
// world whose span recorder is spans (i is the shard; a single server is
// 0): the recorder, with pm.FlightCapacity an event ring of its own, and
// with audited an auditor journaling to pm.AuditSinkFor(i), or else to
// pm.AuditSink.
func (pm Params) serverInstruments(k *sim.Kernel, spans *span.Recorder, i int, audited bool) trace.Instruments {
	in := trace.Instruments{Spans: spans}
	if pm.FlightCapacity > 0 {
		in.Tracer = trace.New(k.Now, pm.FlightCapacity)
	}
	if audited {
		sink := pm.AuditSink
		if pm.AuditSinkFor != nil {
			sink = pm.AuditSinkFor(i)
		}
		in.Auditor = audit.New(k, sink)
	}
	return in
}

// dumpFlightOnViolation makes the first violation h's auditor records
// dump to pm.FlightSink, when one is configured, the ring h holds at that
// moment: its own, or a world ring attached since (World.EnableTrace).
func (pm Params) dumpFlightOnViolation(h *cluster.ServerHost) {
	if pm.FlightSink != nil {
		h.FlightDumpOnViolation(func(trigger string) { h.Tracer.DumpTriggered(pm.FlightSink, trigger) })
	}
}

// Default returns the calibrated parameter set.
func Default() Params {
	return Params{
		Seed: 1,
		Net: simnet.Config{
			// ~2 ms protocol/processing latency per message plus
			// 10 Mbit/s serialization on the shared wire.
			PropDelay:   2 * sim.Millisecond,
			BytesPerSec: 1_250_000,
		},
		ServerDisk: disk.RA81(),
		ClientDisk: disk.RA81(),
		Server: server.Config{
			FSID:     1,
			CPUPerOp: 2 * sim.Millisecond,
			CPUPerKB: 150 * sim.Microsecond,
		},
		ServerWorkers:    8,
		ServerCacheBytes: 3500 * 1024,
		ClientCacheBytes: 16 << 20,
		TransferSize:     8 * 1024,
		ServerBlockSize:  4 * 1024,
		NFS: client.NFSOptions{
			// The measured reference port had the invalidate-on-
			// close bug (§5.2).
			InvalidateOnClose: true,
		},
		SNFS: client.SNFSOptions{
			UpdateInterval: 30 * sim.Second,
		},
		LocalSyncInterval: 30 * sim.Second,
		Andrew:            workload.DefaultAndrew(),
		SortSizes:         []int{281 * 1024, 1408 * 1024, 2816 * 1024},
		SortMemBuffer:     128 * 1024,
		SortMergeOrder:    4,
		SortCPUPerKB:      6 * sim.Millisecond,
	}
}
