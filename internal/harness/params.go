// Package harness assembles simulated worlds (server host, client host,
// network, disks, mounts) and runs the paper's experiments against them:
// one runner per table and figure of §5, plus the §5.1 micro-benchmarks
// and ablations of the design choices. The calibrated cost constants
// live here.
package harness

import (
	"io"

	"spritelynfs/internal/client"
	"spritelynfs/internal/cluster"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
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
	// AttrPiggyback arms the post-op attribute piggybacking path on
	// remote clients: lookup/read/readdir replies prime the unified
	// attribute cache, remove/rename/close carry post-op wcc attributes,
	// and directory listings use the READDIRPLUS-style procedure. Off by
	// default so the paper-fidelity tables keep the vintage RPC mix; the
	// rpc experiment turns it on to measure the getattr/lookup savings.
	AttrPiggyback bool
	// LookupPath arms the compound multi-component lookup procedure:
	// path walks resolve each symlink-free run in one round trip instead
	// of one lookup RPC per component. Off by default, as above.
	LookupPath bool
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

	// Bucket is the time-series bucket for Figures 5-1/5-2.
	Bucket sim.Duration

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
	// SampleCapacity bounds each timeline series ring (0 = 1024).
	SampleCapacity int
	// FlightCapacity arms a black-box flight recorder per server (per
	// shard in cluster worlds): a bounded ring of recent RPC, state-
	// table, and callback events. 0 (the default) disables it.
	FlightCapacity int
	// FlightSink, when non-nil with Audit and FlightCapacity armed,
	// receives a flight-recorder dump the moment the first audit
	// violation is recorded — the black box is read out while it still
	// holds the events leading up to the violation.
	FlightSink io.Writer

	// Backups arms primary/backup replication in cluster worlds: every
	// shard gets a standby server fed by an async replication stream and
	// a viewservice that promotes it when the primary stops pinging (see
	// cluster.Config.Backups). Off by default.
	Backups bool
	// ViewInterval is the viewservice ping/tick period (0 = 100 ms).
	ViewInterval sim.Duration
	// ViewDeadPings is how many missed pings declare a server dead
	// (0 = 5).
	ViewDeadPings int
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
		s.Config.AttrPiggyback = pm.AttrPiggyback
		s.Config.LookupPath = pm.LookupPath
	}
	return s
}

// dumpFlightOnViolation makes the first violation in's auditor records
// dump in's flight ring to pm.FlightSink, when one is configured.
func (pm Params) dumpFlightOnViolation(in cluster.Instruments) {
	if pm.FlightSink != nil {
		in.FlightDumpOnViolation(func(trigger string) { in.Flight.WriteText(pm.FlightSink, trigger) })
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
		Bucket:            5 * sim.Second,
	}
}
