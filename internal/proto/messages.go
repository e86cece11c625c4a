package proto

import "spritelynfs/internal/xdr"

// Message is implemented by every argument and reply type: its one XDR
// method both encodes and decodes it (xdr.Codec).
type Message interface {
	XDR(c xdr.Codec)
}

// Marshal encodes m into a fresh buffer.
func Marshal(m Message) []byte {
	e := xdr.NewEncoder()
	m.XDR(e.Codec())
	return e.Bytes()
}

// The named decoders and (*WriteArgs).Encode are the benchmark's: bench/
// calls them, and they go once it calls XDR instead.

// DecodeHandleReply reads a HandleReply.
func DecodeHandleReply(d *xdr.Decoder) (r HandleReply) { r.XDR(d.Codec()); return }

// DecodeAttrReply reads an AttrReply.
func DecodeAttrReply(d *xdr.Decoder) (r AttrReply) { r.XDR(d.Codec()); return }

// DecodeReadReply reads a ReadReply.
func DecodeReadReply(d *xdr.Decoder) (r ReadReply) { r.XDR(d.Codec()); return }

// DecodeWriteReply reads a WriteReply.
func DecodeWriteReply(d *xdr.Decoder) (r WriteReply) { r.XDR(d.Codec()); return }

// DecodeWriteArgs reads WriteArgs.
func DecodeWriteArgs(d *xdr.Decoder) (a WriteArgs) { a.XDR(d.Codec()); return }

// Encode writes m.
func (m *WriteArgs) Encode(e *xdr.Encoder) { m.XDR(e.Codec()) }

// ---- generic replies ----

// StatusReply is a bare status (remove, rename, rmdir, close, callback).
type StatusReply struct {
	Status Status
}

func (m *StatusReply) XDR(c xdr.Codec) { m.Status.XDR(c) }

// AttrReply carries a status plus attributes (getattr, setattr, write).
type AttrReply struct {
	Status Status
	Attr   Fattr
}

func (m *AttrReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK {
		m.Attr.XDR(c)
	}
}

// HandleReply carries a status plus handle and attributes (lookup, create,
// mkdir).
type HandleReply struct {
	Status Status
	Handle Handle
	Attr   Fattr
}

func (m *HandleReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK {
		m.Handle.XDR(c)
		m.Attr.XDR(c)
	}
}

// ---- per-procedure arguments and replies ----

// HandleArgs is a bare file handle (getattr, statfs).
type HandleArgs struct {
	Handle Handle
}

func (m *HandleArgs) XDR(c xdr.Codec) { m.Handle.XDR(c) }

// SetattrArgs changes size and/or mode.
type SetattrArgs struct {
	Handle  Handle
	SetSize bool
	Size    int64
	SetMode bool
	Mode    uint32
}

func (m *SetattrArgs) XDR(c xdr.Codec) {
	m.Handle.XDR(c)
	c.Bool(&m.SetSize)
	c.Int64(&m.Size)
	c.Bool(&m.SetMode)
	c.Uint32(&m.Mode)
}

// DirOpArgs names an entry in a directory (lookup, remove, rmdir).
//
// WantAttr asks the server for post-op wcc attributes in the reply
// (remove/rmdir answer with a WccReply instead of a bare StatusReply).
// It is an optional trailing flag (xdr.Codec.OptionalBool), so a vintage
// request is byte-identical and an old server simply ignores requests it
// never sees.
type DirOpArgs struct {
	Dir      Handle
	Name     string
	WantAttr bool
}

func (m *DirOpArgs) XDR(c xdr.Codec) {
	m.Dir.XDR(c)
	c.String(&m.Name)
	c.OptionalBool(&m.WantAttr)
}

// CreateArgs makes a file or directory.
type CreateArgs struct {
	Dir  Handle
	Name string
	Mode uint32
}

func (m *CreateArgs) XDR(c xdr.Codec) {
	m.Dir.XDR(c)
	c.String(&m.Name)
	c.Uint32(&m.Mode)
}

// RenameArgs moves a directory entry. WantAttr (optional trailing flag,
// see DirOpArgs) requests post-op attributes for both directories.
type RenameArgs struct {
	SrcDir   Handle
	SrcName  string
	DstDir   Handle
	DstName  string
	WantAttr bool
}

func (m *RenameArgs) XDR(c xdr.Codec) {
	m.SrcDir.XDR(c)
	c.String(&m.SrcName)
	m.DstDir.XDR(c)
	c.String(&m.DstName)
	c.OptionalBool(&m.WantAttr)
}

// ReadArgs reads a byte range.
type ReadArgs struct {
	Handle Handle
	Offset int64
	Count  uint32
}

func (m *ReadArgs) XDR(c xdr.Codec) {
	m.Handle.XDR(c)
	c.Int64(&m.Offset)
	c.Uint32(&m.Count)
}

// ReadReply returns file data plus fresh attributes.
//
// Data, the last field, is the image's tail (xdr.Codec.Tail): the server
// sends its store's page, which the read froze, by reference, with the
// wire bytes of an inline opaque. Decoded, Data is a zero-copy, read-only
// view of the tail or of the image, frozen (a duplicate cache may resend
// it): keep it, but copy what you change or hand to an application; a
// transport that reuses receive buffers copies first (DESIGN.md §13, §14).
type ReadReply struct {
	Status Status
	Attr   Fattr
	Data   []byte
}

func (m *ReadReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK {
		m.Attr.XDR(c)
		c.Tail(&m.Data)
	}
}

// WriteArgs writes a byte range. By default (Unstable false) the server
// must put the data on stable storage before replying — the original NFS
// contract of §2.1. With Unstable set, the server may buffer the data in
// memory and reply immediately; the client keeps its copy until a COMMIT
// under the same write verifier succeeds.
//
// In RFC 1813's WRITE3args order, stable before data, Data is last: the
// call image's tail (xdr.Codec.Tail), the client's frozen cache block by
// reference, which the server keeps as its file's page (WriteFrozen). A
// handler copies it to change it (DESIGN.md §13, §14).
type WriteArgs struct {
	Handle   Handle
	Offset   int64
	Unstable bool
	Data     []byte
}

func (m *WriteArgs) XDR(c xdr.Codec) {
	m.Handle.XDR(c)
	c.Int64(&m.Offset)
	c.Bool(&m.Unstable)
	c.Tail(&m.Data)
}

// WriteReply answers a WRITE: attributes after the write, whether the
// data is already on stable storage, and the server's write verifier
// (its crash epoch). Committed is always true for stable writes; for
// unstable writes it is false until a COMMIT lands the data.
type WriteReply struct {
	Status    Status
	Attr      Fattr
	Committed bool
	Verifier  uint64
}

func (m *WriteReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK {
		m.Attr.XDR(c)
		c.Bool(&m.Committed)
		c.Uint64(&m.Verifier)
	}
}

// CommitArgs asks the server to force every unstable write it holds for
// Handle to stable storage (whole-file commit; this reproduction does
// not need NFSv3's byte-range refinement).
type CommitArgs struct {
	Handle Handle
}

func (m *CommitArgs) XDR(c xdr.Codec) { m.Handle.XDR(c) }

// CommitReply carries the write verifier under which the commit ran. If
// it differs from the verifier the client recorded when it sent the
// unstable writes, the server rebooted and dropped them: the client must
// redrive the data.
type CommitReply struct {
	Status   Status
	Verifier uint64
}

func (m *CommitReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK {
		c.Uint64(&m.Verifier)
	}
}

// DirEntry is one readdir result entry.
type DirEntry struct {
	Name   string
	Fileid uint64
}

// ReaddirReply lists a whole directory (this reproduction does not need
// the RFC 1094 cookie continuation, directories fit in one reply).
type ReaddirReply struct {
	Status  Status
	Entries []DirEntry
}

func (m *ReaddirReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status != OK {
		return
	}
	xdr.Count(c, &m.Entries, 1<<20)
	for i := range m.Entries {
		c.String(&m.Entries[i].Name)
		c.Uint64(&m.Entries[i].Fileid)
	}
}

// StatfsReply reports file system capacity.
type StatfsReply struct {
	Status    Status
	BlockSize uint32
	Blocks    int64
	BytesUsed int64
}

func (m *StatfsReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK {
		c.Uint32(&m.BlockSize)
		c.Int64(&m.Blocks)
		c.Int64(&m.BytesUsed)
	}
}

// ---- Spritely NFS extensions ----

// OpenArgs announces that a client process opened the file (§3.1).
type OpenArgs struct {
	Handle    Handle
	WriteMode bool // the open intends to write
}

func (m *OpenArgs) XDR(c xdr.Codec) {
	m.Handle.XDR(c)
	c.Bool(&m.WriteMode)
}

// OpenReply tells the client whether it may cache the file, carries the
// version numbers used to validate a cache retained across close/reopen,
// and piggybacks the attributes so no separate getattr is needed (§3.1).
// An ErrInconsistent reply carries the body too (§3.2).
type OpenReply struct {
	Status       Status
	CacheEnabled bool
	Version      uint32 // latest version number
	PrevVersion  uint32 // version before this open (valid cache for the writer itself)
	Attr         Fattr
}

func (m *OpenReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK || m.Status == ErrInconsistent {
		c.Bool(&m.CacheEnabled)
		c.Uint32(&m.Version)
		c.Uint32(&m.PrevVersion)
		m.Attr.XDR(c)
	}
}

// CloseArgs tells the server the client is done with the handle; the
// write-mode flag of the matching open must be supplied because a handle
// may be open several times in different modes (§3.1). WantAttr
// (optional trailing flag, see DirOpArgs) requests the file's post-op
// attributes in a WccReply.
type CloseArgs struct {
	Handle    Handle
	WriteMode bool
	WantAttr  bool
}

func (m *CloseArgs) XDR(c xdr.Codec) {
	m.Handle.XDR(c)
	c.Bool(&m.WriteMode)
	c.OptionalBool(&m.WantAttr)
}

// CallbackArgs is the server-to-client request (§3.2): write back dirty
// blocks, invalidate the cache and stop caching, or (an extension, §6.2)
// release a delayed-close file so the server can reclaim its state entry.
type CallbackArgs struct {
	Handle     Handle
	WriteBack  bool
	Invalidate bool
	Release    bool
}

func (m *CallbackArgs) XDR(c xdr.Codec) {
	m.Handle.XDR(c)
	c.Bool(&m.WriteBack)
	c.Bool(&m.Invalidate)
	c.Bool(&m.Release)
}

// ---- crash-recovery extensions ----

// ReopenArgs re-registers a client's open state after a server restart:
// the clients together know who is caching what, and the server rebuilds
// its table from them (§2.4).
type ReopenArgs struct {
	Handle   Handle
	Readers  uint32 // processes holding the file open for read at this client
	Writers  uint32 // ditto for write
	Version  uint32 // version of the client's cached copy
	HasDirty bool   // the client holds dirty blocks for the file
}

func (m *ReopenArgs) XDR(c xdr.Codec) {
	m.Handle.XDR(c)
	c.Uint32(&m.Readers)
	c.Uint32(&m.Writers)
	c.Uint32(&m.Version)
	c.Bool(&m.HasDirty)
}

// ServerInfoReply identifies the server incarnation; a changed epoch
// tells a client the server rebooted and state must be recovered.
type ServerInfoReply struct {
	Status  Status
	Epoch   uint64
	InGrace bool // server is in its recovery grace period
}

func (m *ServerInfoReply) XDR(c xdr.Codec) {
	m.Status.XDR(c)
	c.Uint64(&m.Epoch)
	c.Bool(&m.InGrace)
}

// ---- administrative dump (SNFS) ----

// DumpClient is one client registration in a dumped state-table entry.
type DumpClient struct {
	Client  string
	Readers uint32
	Writers uint32
	Caching bool
}

// DumpEntry is one state-table entry in a DumpStateReply.
type DumpEntry struct {
	Handle       Handle
	State        uint32 // core.FileState numeric value
	StateName    string
	Version      uint32
	LastWriter   string
	Inconsistent bool
	Clients      []DumpClient
}

// DumpStateReply carries the server's state-table snapshot.
type DumpStateReply struct {
	Status  Status
	Epoch   uint64
	Entries []DumpEntry
}

func (m *DumpStateReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status != OK {
		return
	}
	c.Uint64(&m.Epoch)
	xdr.Count(c, &m.Entries, 1<<20)
	for i := range m.Entries {
		ent := &m.Entries[i]
		ent.Handle.XDR(c)
		c.Uint32(&ent.State)
		c.String(&ent.StateName)
		c.Uint32(&ent.Version)
		c.String(&ent.LastWriter)
		c.Bool(&ent.Inconsistent)
		xdr.Count(c, &ent.Clients, 1<<16)
		for j := range ent.Clients {
			cl := &ent.Clients[j]
			c.String(&cl.Client)
			c.Uint32(&cl.Readers)
			c.Uint32(&cl.Writers)
			c.Bool(&cl.Caching)
		}
	}
}

// ---- links (RFC 1094 procedures 5, 12, 13) ----

// LinkArgs creates a hard link to an existing file.
type LinkArgs struct {
	From   Handle // the file being linked to
	ToDir  Handle
	ToName string
}

func (m *LinkArgs) XDR(c xdr.Codec) {
	m.From.XDR(c)
	m.ToDir.XDR(c)
	c.String(&m.ToName)
}

// SymlinkArgs creates a symbolic link.
type SymlinkArgs struct {
	Dir    Handle
	Name   string
	Target string
}

func (m *SymlinkArgs) XDR(c xdr.Codec) {
	m.Dir.XDR(c)
	c.String(&m.Name)
	c.String(&m.Target)
}

// ReadlinkReply returns a symlink's target.
type ReadlinkReply struct {
	Status Status
	Target string
}

func (m *ReadlinkReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK {
		c.String(&m.Target)
	}
}

// MetricsReply returns the server's metrics registry as Prometheus-style
// exposition text (ProcMetrics).
type MetricsReply struct {
	Status Status
	Text   string
}

func (m *MetricsReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK {
		c.String(&m.Text)
	}
}

// AuditReply returns the server's protocol-audit report as text
// (ProcAudit).
type AuditReply struct {
	Status Status
	Text   string
}

func (m *AuditReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK {
		c.String(&m.Text)
	}
}

// ---- post-op attributes and compound lookup ----

// WccData is one post-op attribute record: the handle the attributes
// belong to plus the attributes after the operation (the useful half of
// NFSv3's weak cache consistency data; this simulation has no use for
// the pre-op half).
type WccData struct {
	Handle Handle
	Attr   Fattr
}

// WccReply answers remove/rename/close when the request carried the
// want-attr flag: the operation status plus post-op attributes for the
// objects the operation touched (remove: the directory; rename: both
// directories; close: the file). Wcc may be empty even on success — the
// attributes are a cache hint, never required for correctness.
type WccReply struct {
	Status Status
	Wcc    []WccData
}

func (m *WccReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); c.AtEnd() {
		// A bare StatusReply (a server that ignored the want-attr
		// flag, or a shard redirect) is a WccReply with no records.
		return
	}
	xdr.Count(c, &m.Wcc, 16)
	for i := range m.Wcc {
		m.Wcc[i].Handle.XDR(c)
		m.Wcc[i].Attr.XDR(c)
	}
}

// LookupPathArgs resolves Names in order, each under the previous
// component, starting from Dir (ProcLookupPath).
type LookupPathArgs struct {
	Dir   Handle
	Names []string
}

func (m *LookupPathArgs) XDR(c xdr.Codec) {
	m.Dir.XDR(c)
	xdr.Count(c, &m.Names, 1<<12)
	for i := range m.Names {
		c.String(&m.Names[i])
	}
}

// LookupPathReply reports how far the server's walk got. Resolved
// counts the components consumed; Handle/Attr describe the last one
// reached and Parent its containing directory (needed when the walk
// stops at a symbolic link whose target is relative). Resolved <
// len(Names) means the walk stopped early at a symlink; a failed
// component returns its status with nothing resolved.
type LookupPathReply struct {
	Status   Status
	Resolved uint32
	Handle   Handle
	Parent   Handle
	Attr     Fattr
}

func (m *LookupPathReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK {
		c.Uint32(&m.Resolved)
		m.Handle.XDR(c)
		m.Parent.XDR(c)
		m.Attr.XDR(c)
	}
}

// DirEntryAttrs is one ReaddirAttrs result entry: the plain readdir
// entry plus the handle and attributes a stat of it would have fetched.
type DirEntryAttrs struct {
	Name   string
	Handle Handle
	Attr   Fattr
}

// ReaddirAttrsReply lists a directory READDIRPLUS-style
// (ProcReaddirAttrs).
type ReaddirAttrsReply struct {
	Status  Status
	Entries []DirEntryAttrs
}

func (m *ReaddirAttrsReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status != OK {
		return
	}
	xdr.Count(c, &m.Entries, 1<<20)
	for i := range m.Entries {
		c.String(&m.Entries[i].Name)
		m.Entries[i].Handle.XDR(c)
		m.Entries[i].Attr.XDR(c)
	}
}
