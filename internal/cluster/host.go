package cluster

import (
	"fmt"
	"sync/atomic"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/client"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/spanfs"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/tsdb"
	"spritelynfs/internal/vfs"
)

// Every topology this repository runs — the paper's one server and one
// client, a fleet, the federation, replicated shards, the live daemon —
// arranges two machines. NewServerHost and NewClientHost are the only
// places either is assembled or an instrument attached to a protocol
// layer; what differs between topologies is data: the specs.

// Proto selects the file system a host serves or mounts.
type Proto int

// The three configurations of Table 5-1/5-3, plus RFS (the §2.5
// related-work protocol, used by the rfs comparison experiment).
const (
	Local Proto = iota
	NFS
	SNFS
	RFS
)

func (p Proto) String() string {
	switch p {
	case Local:
		return "local"
	case NFS:
		return "NFS"
	case SNFS:
		return "SNFS"
	case RFS:
		return "RFS"
	}
	return "?"
}

// Instruments are the observability sinks a host's layers report to; a
// nil sink is off. Whoever owns the world creates them (one span recorder
// and tracer per world, one auditor and flight ring per shard, one
// registry per server whose series carry no host label) and hands them to
// each host that should feed them.
type Instruments struct {
	Metrics *metrics.Registry
	Flight  *tsdb.FlightRecorder
	Spans   *span.Recorder
	Tracer  *trace.Tracer
	// Auditor shadows one SNFS server's state table and witnesses its
	// clients' syscalls; hosts of the other protocols ignore it.
	Auditor *audit.Auditor
}

// Mount returns fs as a host mounts it: witnessed by the auditor, then
// rooted in one span per syscall so the root covers the whole operation.
// Each wrapper is the identity when its sink is nil.
func (in Instruments) Mount(host string, fs vfs.FS) vfs.FS {
	if in.Auditor != nil {
		fs = in.Auditor.WrapFS(fs)
	}
	return spanfs.WrapFS(in.Spans, host, fs)
}

// FlightDumpOnViolation arranges for the first audit violation (only the
// first: the ring still holds the events that led there) to call dump
// with a header naming it. The auditor holds its lock during the
// callback, so dump may read the recorder and write a sink but never
// reenter the auditor; the guard is atomic because the daemon's auditor
// is reached from several goroutines. A no-op unless both are armed.
func (in Instruments) FlightDumpOnViolation(dump func(trigger string)) {
	if in.Auditor == nil || in.Flight == nil {
		return
	}
	var dumped atomic.Bool
	in.Auditor.OnViolation = func(v audit.Violation) {
		if dumped.Swap(true) {
			return
		}
		dump(fmt.Sprintf("audit violation op=%d %s: %s", v.Op, v.Invariant, v.Detail))
	}
}

// ServerSpec says how one server host differs from another.
type ServerSpec struct {
	Proto Proto
	Addr  simnet.Addr
	// Workers is the nfsd pool (0 = the measured configuration's 8).
	Workers int
	// Store holds the durable bytes. Nil gives the host a fresh store of
	// BlockSize-byte blocks; a backup passes its primary's (a dual-ported
	// disk), keeping a buffer cache and drive model of its own.
	Store     *localfs.Store
	BlockSize int
	Disk      disk.Params
	// CacheBytes sizes the buffer cache.
	CacheBytes int64
	// Gather group-commits synchronous flushes: concurrent COMMIT runs
	// and structural updates share sorted arm sweeps instead of one
	// random op each (the server half of the unstable-write pipeline).
	Gather bool
	// Config is the CPU cost model and the FSID handles carry.
	Config server.Config
	// SNFS configures the state-table machinery (read for SNFS only).
	SNFS server.SNFSOptions
}

// ServerHost is one assembled server machine: endpoint → store → disk →
// buffer cache → protocol server. Exactly one of NFS, SNFS and RFS is
// set; Base is its protocol-independent half.
type ServerHost struct {
	Addr  simnet.Addr
	Media *localfs.Media
	Base  *server.Base
	NFS   *server.NFSServer
	SNFS  *server.SNFSServer
	RFS   *server.RFSServer
	// Instruments holds whatever has been attached so far.
	Instruments
}

// NewServerHost assembles a server host on net. The creation order is
// part of the contract: endpoints and disks register with the kernel as
// they are made, and that order breaks same-instant ties in every replay.
func NewServerHost(k *sim.Kernel, net *simnet.Network, s ServerSpec, in Instruments) *ServerHost {
	if s.Workers == 0 {
		s.Workers = 8
	}
	ep := rpc.NewEndpoint(k, net, s.Addr, rpc.Options{Workers: s.Workers})
	st := s.Store
	if st == nil {
		st = localfs.NewStore(k.Now, s.BlockSize)
	}
	d := disk.New(k, string(s.Addr)+"-disk", s.Disk)
	h := &ServerHost{Addr: s.Addr, Media: localfs.NewMedia(st, d, s.Config.FSID, s.CacheBytes)}
	h.Media.Gather = s.Gather
	switch s.Proto {
	case NFS:
		h.NFS = server.NewNFS(k, ep, h.Media, s.Config)
		h.Base = h.NFS.Base
	case SNFS:
		h.SNFS = server.NewSNFS(k, ep, h.Media, s.Config, s.SNFS)
		h.Base = h.SNFS.Base
	case RFS:
		h.RFS = server.NewRFS(k, ep, h.Media, s.Config)
		h.Base = h.RFS.Base
	default:
		panic(fmt.Sprintf("cluster: no %v server", s.Proto))
	}
	h.Attach(in)
	return h
}

// Attach points every layer of the host at the non-nil sinks of in; any
// of them may be armed after construction (a registry or tracer attached
// at measurement start keeps set-up traffic out of what it records).
func (h *ServerHost) Attach(in Instruments) {
	ep := h.Base.Endpoint()
	if in.Metrics != nil {
		h.Metrics = in.Metrics
		if h.SNFS != nil {
			h.SNFS.EnableMetrics(in.Metrics)
		} else {
			h.Base.EnableMetrics(in.Metrics)
		}
	}
	if in.Flight != nil {
		h.Flight = in.Flight
		h.Base.SetFlight(in.Flight)
	}
	if in.Spans != nil {
		h.Spans = in.Spans
		ep.Spans = in.Spans
		h.Media.Disk().Spans = in.Spans
		h.Base.SetSpans(in.Spans)
	}
	if in.Tracer != nil {
		h.Tracer = in.Tracer
		ep.Tracer = in.Tracer
		h.Base.SetTracer(in.Tracer)
		if h.SNFS != nil {
			h.SNFS.Table().Tracer = in.Tracer
		}
	}
	if in.Auditor != nil && h.SNFS != nil {
		h.Auditor = in.Auditor
		h.SNFS.SetAuditor(in.Auditor)
	}
}

// ClientSpec says how one client host differs from another.
type ClientSpec struct {
	Proto Proto
	Name  simnet.Addr
	// Config names the server and export root and sizes the cache; it
	// carries the post-1989 extension flags (RFS callers leave them off:
	// it runs as §2.5 describes it).
	Config client.Config
	// Exec is the pool that serves the host's callback RPCs: nil gives it
	// four threads of its own, a fleet passes its shared executor.
	Exec *sim.Executor
	// NFS and SNFS are the client policies; only Proto's is read. A fleet
	// passes them with the per-client daemons switched off.
	NFS  client.NFSOptions
	SNFS client.SNFSOptions
}

// ClientHost is one assembled client machine: an RPC endpoint, the
// protocol client over it, and a namespace with the client at "/". FS is
// the protocol client itself and Mount what NS mounts (FS beneath the
// audit and span wrappers); exactly one of NFS, SNFS and RFS is set. With
// a shared Exec the host's steady-state cost is memory only: goroutines
// are borrowed for the duration of each blocking operation.
type ClientHost struct {
	Name  simnet.Addr
	Base  *client.Base
	FS    vfs.FS
	Mount vfs.FS
	NS    *vfs.Namespace
	NFS   *client.NFSClient
	SNFS  *client.SNFSClient
	RFS   *client.RFSClient
}

// NewClientHost assembles a client host on net. Spans and the auditor
// shape the mount, so they are taken here; Attach arms the rest.
func NewClientHost(k *sim.Kernel, net *simnet.Network, s ClientSpec, in Instruments) *ClientHost {
	ep := rpc.NewEndpoint(k, net, s.Name, rpc.Options{Workers: 4, Exec: s.Exec})
	ep.Spans = in.Spans
	h := &ClientHost{Name: s.Name, NS: &vfs.Namespace{}}
	switch s.Proto {
	case NFS:
		h.NFS = client.NewNFS(k, ep, s.Config, s.NFS)
		h.Base, h.FS = h.NFS.Base, h.NFS
	case SNFS:
		h.SNFS = client.NewSNFS(k, ep, s.Config, s.SNFS)
		h.Base, h.FS = h.SNFS.Base, h.SNFS
	case RFS:
		h.RFS = client.NewRFS(k, ep, s.Config)
		h.Base, h.FS = h.RFS.Base, h.RFS
	default:
		panic(fmt.Sprintf("cluster: no %v client", s.Proto))
	}
	h.Base.SetSpans(in.Spans)
	if h.SNFS == nil {
		in.Auditor = nil
	}
	h.Mount = in.Mount(string(s.Name), h.FS)
	h.NS.Mount("/", h.Mount)
	h.Attach(in)
	return h
}

// Attach arms the sinks a client can take after construction: the
// endpoint's call-latency histograms and the cache gauges, and the tracer
// on endpoint and client.
func (h *ClientHost) Attach(in Instruments) {
	if in.Metrics != nil {
		h.Base.EnableMetrics(in.Metrics)
	}
	if in.Tracer != nil {
		h.Base.Endpoint().Tracer = in.Tracer
		h.Base.SetTracer(in.Tracer)
	}
}
