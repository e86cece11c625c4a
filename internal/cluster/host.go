package cluster

import (
	"fmt"

	"spritelynfs/internal/client"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/trace"
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
	trace.Instruments
}

// NewServerHost assembles a server host on net. The creation order is
// part of the contract: endpoints and disks register with the kernel as
// they are made, and that order breaks same-instant ties in every replay.
func NewServerHost(k *sim.Kernel, net *simnet.Network, s ServerSpec, in trace.Instruments) *ServerHost {
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
// at measurement start keeps set-up traffic out of what it records). The
// server arms its endpoint, and an auditor goes to an SNFS server only.
func (h *ServerHost) Attach(in trace.Instruments) {
	if h.SNFS == nil {
		in.Auditor = nil
	}
	trace.Arm(&h.Instruments, in)
	if in.Spans != nil {
		h.Media.Disk().Spans = in.Spans
	}
	if h.SNFS != nil {
		h.SNFS.Attach(in)
	} else {
		h.Base.Attach(in)
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
// auditor's wrapper when one witnesses it); exactly one of NFS, SNFS and
// RFS is set. With a shared Exec the host's steady-state cost is memory
// only: goroutines are borrowed for the duration of each blocking
// operation.
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

// NewClientHost assembles a client host on net. The auditor wraps the
// mount, so it is taken here only; Attach arms the rest.
func NewClientHost(k *sim.Kernel, net *simnet.Network, s ClientSpec, in trace.Instruments) *ClientHost {
	ep := rpc.NewEndpoint(k, net, s.Name, rpc.Options{Workers: 4, Exec: s.Exec})
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
	h.Mount = h.FS
	if in.Auditor != nil && h.SNFS != nil {
		h.Mount = in.Auditor.WrapFS(h.FS)
	}
	h.NS.Mount("/", h.Mount)
	h.Attach(in)
	return h
}

// Attach arms the client and its endpoint with the non-nil sinks of in.
func (h *ClientHost) Attach(in trace.Instruments) { h.Base.Attach(in) }
