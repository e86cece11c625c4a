// Package proto defines the wire protocol shared by NFS and Spritely NFS
// in this reproduction: program and procedure numbers, status codes, file
// handles, attribute records, and the argument/reply messages for every
// procedure, with XDR marshaling throughout.
//
// The NFS subset follows the NFS version 2 protocol the paper's Ultrix
// implementation spoke (RFC 1094). Spritely NFS adds exactly what §3 of
// the paper describes: client-to-server open and close procedures, and a
// server-to-client callback program (the client must run RPC service for
// it). Two further procedures, reopen and serverinfo, support the crash-
// recovery extension sketched in §2.4 (the paper did not implement
// recovery; we do, following the Sprite design it cites).
package proto

import (
	"cmp"
	"errors"
	"fmt"

	"spritelynfs/internal/localfs"
	"spritelynfs/internal/xdr"
)

// RPC program numbers.
const (
	// ProgNFS carries both NFS and the SNFS client-to-server
	// extensions; plain NFS servers reject the extension procedures
	// with PROC_UNAVAIL, which is how a hybrid client discovers it is
	// talking to an unmodified server (§6.1).
	ProgNFS = 100003
	// ProgCallback is served by SNFS *clients*: the server calls it to
	// force write-back and/or cache invalidation.
	ProgCallback = 390100
)

// VersNFS is the protocol version for ProgNFS.
const VersNFS = 2

// ProgNFS procedures. Numbers 0-17 follow RFC 1094; 18+ are the Spritely
// extensions.
const (
	ProcNull     = 0
	ProcGetattr  = 1
	ProcSetattr  = 2
	ProcLookup   = 4
	ProcRead     = 6
	ProcWrite    = 8
	ProcCreate   = 9
	ProcRemove   = 10
	ProcRename   = 11
	ProcMkdir    = 14
	ProcRmdir    = 15
	ProcReadlink = 5
	ProcLink     = 12
	ProcSymlink  = 13
	ProcReaddir  = 16
	ProcStatfs   = 17

	// Spritely NFS extensions (§3.1).
	ProcOpen  = 18
	ProcClose = 19

	// Crash-recovery extensions.
	ProcReopen     = 20
	ProcServerInfo = 21

	// ProcMountRoot stands in for the separate mount protocol: it
	// returns the export's root handle and attributes.
	ProcMountRoot = 22

	// ProcDumpState is an administrative procedure: the SNFS server
	// returns a snapshot of its consistency state table.
	ProcDumpState = 23

	// ProcMetrics is an administrative procedure: the server returns
	// its metrics registry as Prometheus-style text (counters, gauges,
	// and per-procedure latency histograms).
	ProcMetrics = 26

	// ProcAudit is an administrative procedure: the SNFS server returns
	// its protocol auditor's report (events witnessed, invariant
	// violation counts, and the most recent violations).
	ProcAudit = 27

	// ProcShardMap returns the server's current view of the cluster
	// shard map (sharded-federation extension). A standalone server
	// returns an empty map with version 0.
	ProcShardMap = 28

	// ProcCommit forces a file's unstable writes (WriteArgs.Unstable) to
	// stable storage, gathered into merged disk operations, and returns
	// the server's write verifier. A verifier that differs from the one
	// the unstable WRITE replies carried means the server rebooted in
	// between and the data was lost: the client must resend it (the
	// NFSv3 COMMIT contract, grafted onto this paper's crash epoch).
	ProcCommit = 29

	// ProcLookupPath resolves a multi-component path in one round trip
	// (the compound-RPC answer to §5.1's per-component lookup chatter).
	// The server walks the components under the starting directory and
	// stops early at the first symbolic link, returning how far it got;
	// the client expands the link and continues.
	ProcLookupPath = 30

	// ProcReaddirAttrs is a READDIRPLUS-style listing: every entry comes
	// back with its handle and attributes, priming the client's
	// attribute cache without a getattr per entry.
	ProcReaddirAttrs = 31

	// ProcReplStream carries a batch of replication records from a
	// shard's primary to its backup (replicated-shard extension): state-
	// table transitions, committed write/commit costs, and dupcache
	// entries, applied in sequence order so the backup can take over.
	ProcReplStream = 32

	// ProcReplSync is the replication barrier: the primary asks the
	// backup which sequence number it has applied, blocking a view
	// change until the backup has everything (AsyncFS's commit point).
	ProcReplSync = 33
)

// ProgView is the viewservice control plane (replicated-shard
// extension): servers ping it, clients may query it, and it alone
// decides which server is each shard's primary.
const ProgView = 390200

// ProgView procedures.
const (
	ViewProcPing = 1
	ViewProcGet  = 2
)

// ProgCallback procedures (§3.2).
const (
	CbProcNull     = 0
	CbProcCallback = 1
)

// ProcInfo is one procedure's row in its program's table.
type ProcInfo struct {
	// Name labels the procedure in operation counts, metrics and traces.
	Name string
	// Control marks the control plane: a demoted server still answers
	// these (they are how a caller refetches the map and how the
	// replication stream keeps flowing), and none of them is a client
	// healing onto a promoted primary.
	Control bool
	// NonIdempotent marks a procedure whose re-execution can change the
	// outcome: its duplicate-cache entries are replicated to the backup.
	NonIdempotent bool
}

// program is one RPC program's procedure table, indexed by procedure
// number, and the prefix that names a number with no row.
type program struct {
	procs  []ProcInfo
	prefix string
}

var (
	nfsProgram = program{prefix: "proc", procs: []ProcInfo{
		ProcNull:         {Name: "null", Control: true},
		ProcGetattr:      {Name: "getattr"},
		ProcSetattr:      {Name: "setattr", NonIdempotent: true},
		ProcLookup:       {Name: "lookup"},
		ProcReadlink:     {Name: "readlink"},
		ProcRead:         {Name: "read"},
		ProcWrite:        {Name: "write"},
		ProcCreate:       {Name: "create", NonIdempotent: true},
		ProcRemove:       {Name: "remove", NonIdempotent: true},
		ProcRename:       {Name: "rename", NonIdempotent: true},
		ProcLink:         {Name: "link", NonIdempotent: true},
		ProcSymlink:      {Name: "symlink", NonIdempotent: true},
		ProcMkdir:        {Name: "mkdir", NonIdempotent: true},
		ProcRmdir:        {Name: "rmdir", NonIdempotent: true},
		ProcReaddir:      {Name: "readdir"},
		ProcStatfs:       {Name: "statfs"},
		ProcOpen:         {Name: "open", NonIdempotent: true},
		ProcClose:        {Name: "close", NonIdempotent: true},
		ProcReopen:       {Name: "reopen"},
		ProcServerInfo:   {Name: "serverinfo", Control: true},
		ProcMountRoot:    {Name: "mountroot", Control: true},
		ProcDumpState:    {Name: "dumpstate", Control: true},
		ProcMetrics:      {Name: "metrics", Control: true},
		ProcAudit:        {Name: "audit", Control: true},
		ProcShardMap:     {Name: "shardmap", Control: true},
		ProcCommit:       {Name: "commit"},
		ProcLookupPath:   {Name: "lookuppath"},
		ProcReaddirAttrs: {Name: "readdirattrs"},
		ProcReplStream:   {Name: "replstream", Control: true},
		ProcReplSync:     {Name: "replsync", Control: true},
	}}
	callbackProgram = program{prefix: "cb", procs: []ProcInfo{
		CbProcNull:     {Name: "cbnull"},
		CbProcCallback: {Name: "callback"},
	}}
	viewProgram = program{prefix: "view", procs: []ProcInfo{
		ViewProcPing: {Name: "viewping"},
		ViewProcGet:  {Name: "viewget"},
	}}
)

// programOf returns prog's table; any number but the callback and view
// programs reads as ProgNFS.
func programOf(prog uint32) *program {
	if prog == ProgCallback {
		return &callbackProgram
	}
	if prog == ProgView {
		return &viewProgram
	}
	return &nfsProgram
}

// LookupProc returns the row of a (program, procedure) pair, and false
// for a procedure number its program does not define.
func LookupProc(prog, proc uint32) (ProcInfo, bool) {
	t := programOf(prog).procs
	if proc >= uint32(len(t)) || t[proc].Name == "" {
		return ProcInfo{}, false
	}
	return t[proc], true
}

// ProcName returns a human-readable name for a (program, procedure) pair,
// used in operation-count tables.
func ProcName(prog, proc uint32) string {
	if r, ok := LookupProc(prog, proc); ok {
		return r.Name
	}
	return fmt.Sprintf("%s%d", programOf(prog).prefix, proc)
}

// Status is the NFS-level result code carried in every reply.
type Status uint32

// Status codes (the RFC 1094 nfsstat subset we need).
const (
	OK       Status = 0
	ErrPerm  Status = 1
	ErrNoEnt Status = 2
	ErrIO    Status = 5
	ErrExist Status = 17
	// ErrXDev rejects a rename or link whose source and destination
	// live on different shards (NFSERR_XDEV in RFC 1094): namespace
	// operations never span two servers, so neither side is ever left
	// half-applied.
	ErrXDev     Status = 18
	ErrNotDir   Status = 20
	ErrIsDir    Status = 21
	ErrInval    Status = 22
	ErrNotEmpty Status = 66
	ErrStale    Status = 70
	// ErrInconsistent is SNFS-specific: returned from open when the
	// previous writer of the file is dead and its dirty blocks are
	// unrecoverable (§3.2: "it should inform the new client that the
	// file may be in an inconsistent state").
	ErrInconsistent Status = 10001
	// ErrGrace is returned for new opens while a rebooted SNFS server
	// is rebuilding its state table from client reopens; the client
	// retries after a short delay (crash-recovery extension).
	ErrGrace Status = 10002
	// ErrTableFull is returned when the server's state table cannot
	// accommodate another simultaneously open file (§4.3.1).
	ErrTableFull Status = 10003
	// ErrNotHome is the shard-redirect status: the addressed server is
	// not the home of the name being operated on. The client's shard
	// map is stale; it must refetch the map (ProcShardMap) and retry at
	// the owner. Never returned by a standalone server.
	ErrNotHome Status = 10004
	// ErrDemoted is the replication-plane analogue of ErrNotHome: a
	// replication stream or ping reached a server (or was sent by one)
	// that the current shard map no longer names as the shard's
	// primary. The reply carries the newer map so the sender can
	// self-demote (split-brain refusal).
	ErrDemoted Status = 10005
)

// XDR codes s.
func (s *Status) XDR(c xdr.Codec) { c.Uint32((*uint32)(s)) }

var statusNames = map[Status]string{
	OK: "OK", ErrPerm: "EPERM", ErrNoEnt: "ENOENT", ErrIO: "EIO",
	ErrExist: "EEXIST", ErrXDev: "EXDEV", ErrNotDir: "ENOTDIR",
	ErrIsDir: "EISDIR", ErrInval: "EINVAL", ErrNotEmpty: "ENOTEMPTY",
	ErrStale: "ESTALE", ErrInconsistent: "EINCONSISTENT", ErrGrace: "EGRACE",
	ErrTableFull: "ETABLEFULL", ErrNotHome: "ENOTHOME", ErrDemoted: "EDEMOTED",
}

func (s Status) String() string {
	if name, ok := statusNames[s]; ok {
		return name
	}
	return fmt.Sprintf("Status(%d)", uint32(s))
}

// Err converts a non-OK status into an error (nil for OK).
func (s Status) Err() error {
	if s == OK {
		return nil
	}
	return &StatusError{Status: s}
}

// StatusError wraps a protocol status as a Go error.
type StatusError struct{ Status Status }

func (e *StatusError) Error() string { return "nfs: " + e.Status.String() }

// StatusOf extracts the protocol status from an error produced by
// Status.Err, or ErrIO for other errors, or OK for nil.
func StatusOf(err error) Status {
	if err == nil {
		return OK
	}
	if se, ok := err.(*StatusError); ok {
		return se.Status
	}
	return ErrIO
}

// StatusFromErr maps localfs errors onto wire status codes.
func StatusFromErr(err error) Status {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, localfs.ErrNoEnt):
		return ErrNoEnt
	case errors.Is(err, localfs.ErrExist):
		return ErrExist
	case errors.Is(err, localfs.ErrNotDir):
		return ErrNotDir
	case errors.Is(err, localfs.ErrIsDir):
		return ErrIsDir
	case errors.Is(err, localfs.ErrNotEmpty):
		return ErrNotEmpty
	case errors.Is(err, localfs.ErrStale):
		return ErrStale
	case errors.Is(err, localfs.ErrInval):
		return ErrInval
	}
	return ErrIO
}

// Handle identifies a file to the server: filesystem id, inode number,
// and generation (so reused inode numbers yield stale-handle errors).
type Handle struct {
	FSID uint32
	Ino  uint64
	Gen  uint32
}

// IsZero reports whether h is the zero handle.
func (h Handle) IsZero() bool { return h == Handle{} }

// Compare orders handles by (FSID, Ino, Gen): the stable order for loops
// that walk a handle-keyed map and talk to the network per entry.
func (h Handle) Compare(o Handle) int {
	return cmp.Or(cmp.Compare(h.FSID, o.FSID), cmp.Compare(h.Ino, o.Ino), cmp.Compare(h.Gen, o.Gen))
}

// Less reports whether h comes before o in Compare's order.
func (h Handle) Less(o Handle) bool { return h.Compare(o) < 0 }

func (h Handle) String() string { return fmt.Sprintf("fh(%d:%d.%d)", h.FSID, h.Ino, h.Gen) }

// XDR codes h.
func (h *Handle) XDR(c xdr.Codec) {
	c.Uint32(&h.FSID)
	c.Uint64(&h.Ino)
	c.Uint32(&h.Gen)
}

// Fattr is the wire attribute record.
type Fattr struct {
	Type      uint32 // 1 regular, 2 directory (matches localfs.FileType)
	Mode      uint32
	Nlink     uint32
	Size      int64
	Blocks    int64
	BlockSize uint32
	Fileid    uint64
	Gen       uint32
	Atime     int64 // microseconds of simulated time
	Mtime     int64
	Ctime     int64
}

// IsDir reports whether the attributes describe a directory.
func (f Fattr) IsDir() bool { return f.Type == uint32(localfs.TypeDirectory) }

// XDR codes f.
func (f *Fattr) XDR(c xdr.Codec) {
	c.Uint32(&f.Type)
	c.Uint32(&f.Mode)
	c.Uint32(&f.Nlink)
	c.Int64(&f.Size)
	c.Int64(&f.Blocks)
	c.Uint32(&f.BlockSize)
	c.Uint64(&f.Fileid)
	c.Uint32(&f.Gen)
	c.Int64(&f.Atime)
	c.Int64(&f.Mtime)
	c.Int64(&f.Ctime)
}

// FattrFromAttr converts a localfs attribute record for the wire.
func FattrFromAttr(a localfs.Attr, blockSize int) Fattr {
	return Fattr{
		Type:      uint32(a.Type),
		Mode:      a.Mode,
		Nlink:     a.Nlink,
		Size:      a.Size,
		Blocks:    a.Blocks,
		BlockSize: uint32(blockSize),
		Fileid:    a.Ino,
		Gen:       a.Gen,
		Atime:     int64(a.Atime),
		Mtime:     int64(a.Mtime),
		Ctime:     int64(a.Ctime),
	}
}
