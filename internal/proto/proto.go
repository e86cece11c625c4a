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

	// ProcLock and ProcUnlock are the advisory locking extension the
	// paper's §2.2 presumes ("provided that some other mechanism, such
	// as file locking, serializes the reads and writes"). Locks are
	// polled, not blocking: a denied request returns Granted=false and
	// the client retries.
	ProcLock   = 24
	ProcUnlock = 25

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

// ProcName returns a human-readable name for a (program, procedure) pair,
// used in operation-count tables.
func ProcName(prog, proc uint32) string {
	if prog == ProgCallback {
		switch proc {
		case CbProcNull:
			return "cbnull"
		case CbProcCallback:
			return "callback"
		}
		return fmt.Sprintf("cb%d", proc)
	}
	if prog == ProgView {
		switch proc {
		case ViewProcPing:
			return "viewping"
		case ViewProcGet:
			return "viewget"
		}
		return fmt.Sprintf("view%d", proc)
	}
	switch proc {
	case ProcNull:
		return "null"
	case ProcGetattr:
		return "getattr"
	case ProcSetattr:
		return "setattr"
	case ProcLookup:
		return "lookup"
	case ProcRead:
		return "read"
	case ProcWrite:
		return "write"
	case ProcCreate:
		return "create"
	case ProcRemove:
		return "remove"
	case ProcRename:
		return "rename"
	case ProcMkdir:
		return "mkdir"
	case ProcRmdir:
		return "rmdir"
	case ProcReaddir:
		return "readdir"
	case ProcStatfs:
		return "statfs"
	case ProcReadlink:
		return "readlink"
	case ProcLink:
		return "link"
	case ProcSymlink:
		return "symlink"
	case ProcOpen:
		return "open"
	case ProcClose:
		return "close"
	case ProcReopen:
		return "reopen"
	case ProcServerInfo:
		return "serverinfo"
	case ProcMountRoot:
		return "mountroot"
	case ProcDumpState:
		return "dumpstate"
	case ProcLock:
		return "lock"
	case ProcUnlock:
		return "unlock"
	case ProcMetrics:
		return "metrics"
	case ProcAudit:
		return "audit"
	case ProcCommit:
		return "commit"
	case ProcShardMap:
		return "shardmap"
	case ProcLookupPath:
		return "lookuppath"
	case ProcReaddirAttrs:
		return "readdirattrs"
	case ProcReplStream:
		return "replstream"
	case ProcReplSync:
		return "replsync"
	}
	return fmt.Sprintf("proc%d", proc)
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

func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case ErrPerm:
		return "EPERM"
	case ErrNoEnt:
		return "ENOENT"
	case ErrIO:
		return "EIO"
	case ErrExist:
		return "EEXIST"
	case ErrXDev:
		return "EXDEV"
	case ErrNotDir:
		return "ENOTDIR"
	case ErrIsDir:
		return "EISDIR"
	case ErrInval:
		return "EINVAL"
	case ErrNotEmpty:
		return "ENOTEMPTY"
	case ErrStale:
		return "ESTALE"
	case ErrInconsistent:
		return "EINCONSISTENT"
	case ErrGrace:
		return "EGRACE"
	case ErrTableFull:
		return "ETABLEFULL"
	case ErrNotHome:
		return "ENOTHOME"
	case ErrDemoted:
		return "EDEMOTED"
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
	case errorIs(err, localfs.ErrNoEnt):
		return ErrNoEnt
	case errorIs(err, localfs.ErrExist):
		return ErrExist
	case errorIs(err, localfs.ErrNotDir):
		return ErrNotDir
	case errorIs(err, localfs.ErrIsDir):
		return ErrIsDir
	case errorIs(err, localfs.ErrNotEmpty):
		return ErrNotEmpty
	case errorIs(err, localfs.ErrStale):
		return ErrStale
	case errorIs(err, localfs.ErrInval):
		return ErrInval
	}
	return ErrIO
}

// errorIs is errors.Is without the import weight in hot paths.
func errorIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
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

// Less orders handles by (FSID, Ino, Gen): the stable order for loops
// that walk a handle-keyed map and talk to the network per entry.
func (h Handle) Less(o Handle) bool {
	if h.FSID != o.FSID {
		return h.FSID < o.FSID
	}
	if h.Ino != o.Ino {
		return h.Ino < o.Ino
	}
	return h.Gen < o.Gen
}

func (h Handle) String() string { return fmt.Sprintf("fh(%d:%d.%d)", h.FSID, h.Ino, h.Gen) }

// Encode writes h.
func (h Handle) Encode(e *xdr.Encoder) {
	e.Uint32(h.FSID)
	e.Uint64(h.Ino)
	e.Uint32(h.Gen)
}

// DecodeHandle reads a Handle.
func DecodeHandle(d *xdr.Decoder) Handle {
	return Handle{FSID: d.Uint32(), Ino: d.Uint64(), Gen: d.Uint32()}
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

// Encode writes f.
func (f Fattr) Encode(e *xdr.Encoder) {
	e.Uint32(f.Type)
	e.Uint32(f.Mode)
	e.Uint32(f.Nlink)
	e.Int64(f.Size)
	e.Int64(f.Blocks)
	e.Uint32(f.BlockSize)
	e.Uint64(f.Fileid)
	e.Uint32(f.Gen)
	e.Int64(f.Atime)
	e.Int64(f.Mtime)
	e.Int64(f.Ctime)
}

// DecodeFattr reads an Fattr.
func DecodeFattr(d *xdr.Decoder) Fattr {
	return Fattr{
		Type:      d.Uint32(),
		Mode:      d.Uint32(),
		Nlink:     d.Uint32(),
		Size:      d.Int64(),
		Blocks:    d.Int64(),
		BlockSize: d.Uint32(),
		Fileid:    d.Uint64(),
		Gen:       d.Uint32(),
		Atime:     d.Int64(),
		Mtime:     d.Int64(),
		Ctime:     d.Int64(),
	}
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
