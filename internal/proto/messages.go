package proto

import "spritelynfs/internal/xdr"

// Message is implemented by every argument and reply type.
type Message interface {
	Encode(e *xdr.Encoder)
}

// Marshal encodes m into a fresh buffer.
func Marshal(m Message) []byte {
	e := xdr.NewEncoder()
	m.Encode(e)
	return e.Bytes()
}

// ---- generic replies ----

// StatusReply is a bare status (remove, rename, rmdir, close, callback).
type StatusReply struct {
	Status Status
}

func (m *StatusReply) Encode(e *xdr.Encoder) { e.Uint32(uint32(m.Status)) }

// DecodeStatusReply reads a StatusReply.
func DecodeStatusReply(d *xdr.Decoder) StatusReply {
	return StatusReply{Status: Status(d.Uint32())}
}

// AttrReply carries a status plus attributes (getattr, setattr, write).
type AttrReply struct {
	Status Status
	Attr   Fattr
}

func (m *AttrReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK {
		m.Attr.Encode(e)
	}
}

// DecodeAttrReply reads an AttrReply.
func DecodeAttrReply(d *xdr.Decoder) AttrReply {
	r := AttrReply{Status: Status(d.Uint32())}
	if r.Status == OK {
		r.Attr = DecodeFattr(d)
	}
	return r
}

// HandleReply carries a status plus handle and attributes (lookup, create,
// mkdir).
type HandleReply struct {
	Status Status
	Handle Handle
	Attr   Fattr
}

func (m *HandleReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK {
		m.Handle.Encode(e)
		m.Attr.Encode(e)
	}
}

// DecodeHandleReply reads a HandleReply.
func DecodeHandleReply(d *xdr.Decoder) HandleReply {
	r := HandleReply{Status: Status(d.Uint32())}
	if r.Status == OK {
		r.Handle = DecodeHandle(d)
		r.Attr = DecodeFattr(d)
	}
	return r
}

// ---- per-procedure arguments and replies ----

// HandleArgs is a bare file handle (getattr, statfs).
type HandleArgs struct {
	Handle Handle
}

func (m *HandleArgs) Encode(e *xdr.Encoder) { m.Handle.Encode(e) }

// DecodeHandleArgs reads HandleArgs.
func DecodeHandleArgs(d *xdr.Decoder) HandleArgs {
	return HandleArgs{Handle: DecodeHandle(d)}
}

// SetattrArgs changes size and/or mode.
type SetattrArgs struct {
	Handle  Handle
	SetSize bool
	Size    int64
	SetMode bool
	Mode    uint32
}

func (m *SetattrArgs) Encode(e *xdr.Encoder) {
	m.Handle.Encode(e)
	e.Bool(m.SetSize)
	e.Int64(m.Size)
	e.Bool(m.SetMode)
	e.Uint32(m.Mode)
}

// DecodeSetattrArgs reads SetattrArgs.
func DecodeSetattrArgs(d *xdr.Decoder) SetattrArgs {
	return SetattrArgs{
		Handle:  DecodeHandle(d),
		SetSize: d.Bool(),
		Size:    d.Int64(),
		SetMode: d.Bool(),
		Mode:    d.Uint32(),
	}
}

// DirOpArgs names an entry in a directory (lookup, remove, rmdir).
//
// WantAttr asks the server for post-op wcc attributes in the reply
// (remove/rmdir answer with a WccReply instead of a bare StatusReply).
// It is encoded as an optional trailing flag — absent when false — so a
// vintage request is byte-identical and an old server simply ignores
// requests it never sees.
type DirOpArgs struct {
	Dir      Handle
	Name     string
	WantAttr bool
}

func (m *DirOpArgs) Encode(e *xdr.Encoder) {
	m.Dir.Encode(e)
	e.String(m.Name)
	if m.WantAttr {
		e.Bool(true)
	}
}

// DecodeDirOpArgs reads DirOpArgs (without the optional trailing
// want-attr flag; callers that honor wcc call DecodeWantAttr after).
func DecodeDirOpArgs(d *xdr.Decoder) DirOpArgs {
	return DirOpArgs{Dir: DecodeHandle(d), Name: d.String()}
}

// DecodeWantAttr reads the optional trailing want-attr flag of
// DirOpArgs/RenameArgs/CloseArgs: absent (a vintage request) means
// false.
func DecodeWantAttr(d *xdr.Decoder) bool {
	if d.Err() != nil || d.Remaining() < 4 {
		return false
	}
	return d.Bool()
}

// CreateArgs makes a file or directory.
type CreateArgs struct {
	Dir  Handle
	Name string
	Mode uint32
}

func (m *CreateArgs) Encode(e *xdr.Encoder) {
	m.Dir.Encode(e)
	e.String(m.Name)
	e.Uint32(m.Mode)
}

// DecodeCreateArgs reads CreateArgs.
func DecodeCreateArgs(d *xdr.Decoder) CreateArgs {
	return CreateArgs{Dir: DecodeHandle(d), Name: d.String(), Mode: d.Uint32()}
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

func (m *RenameArgs) Encode(e *xdr.Encoder) {
	m.SrcDir.Encode(e)
	e.String(m.SrcName)
	m.DstDir.Encode(e)
	e.String(m.DstName)
	if m.WantAttr {
		e.Bool(true)
	}
}

// DecodeRenameArgs reads RenameArgs.
func DecodeRenameArgs(d *xdr.Decoder) RenameArgs {
	return RenameArgs{
		SrcDir:  DecodeHandle(d),
		SrcName: d.String(),
		DstDir:  DecodeHandle(d),
		DstName: d.String(),
	}
}

// ReadArgs reads a byte range.
type ReadArgs struct {
	Handle Handle
	Offset int64
	Count  uint32
}

func (m *ReadArgs) Encode(e *xdr.Encoder) {
	m.Handle.Encode(e)
	e.Int64(m.Offset)
	e.Uint32(m.Count)
}

// DecodeReadArgs reads ReadArgs.
func DecodeReadArgs(d *xdr.Decoder) ReadArgs {
	return ReadArgs{Handle: DecodeHandle(d), Offset: d.Int64(), Count: d.Uint32()}
}

// ReadReply returns file data plus fresh attributes.
type ReadReply struct {
	Status Status
	Attr   Fattr
	Data   []byte
}

func (m *ReadReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK {
		m.Attr.Encode(e)
		e.Opaque(m.Data)
	}
}

// DecodeReadReply reads a ReadReply. Data is a zero-copy, read-only view
// into the decoder's buffer (xdr.Decoder.OpaqueRef). On the simulated
// transport the wire image is GC-owned and frozen — the sender's
// duplicate cache may resend it — so callers may retain the view but
// must copy what they mean to change or hand to an application; a
// transport that pools or reuses its receive buffers must copy the body
// before recycling (see DESIGN.md §13, §14).
func DecodeReadReply(d *xdr.Decoder) ReadReply {
	r := ReadReply{Status: Status(d.Uint32())}
	if r.Status == OK {
		r.Attr = DecodeFattr(d)
		r.Data = d.OpaqueRef()
	}
	return r
}

// WriteArgs writes a byte range. By default (Unstable false) the server
// must put the data on stable storage before replying — the original NFS
// contract of §2.1. With Unstable set, the server may buffer the data in
// memory and reply immediately; the client keeps its copy until a COMMIT
// under the same write verifier succeeds.
type WriteArgs struct {
	Handle   Handle
	Offset   int64
	Data     []byte
	Unstable bool
}

func (m *WriteArgs) Encode(e *xdr.Encoder) {
	m.Handle.Encode(e)
	e.Int64(m.Offset)
	e.Opaque(m.Data)
	e.Bool(m.Unstable)
}

// DecodeWriteArgs reads WriteArgs. Data is a zero-copy view into the
// decoder's buffer: the server consumes it within the handler
// (localfs.Store.WriteAt copies into the file), so no WRITE ever pays a
// payload copy at decode. A handler that needs the data past its return
// must copy (see DESIGN.md §13).
func DecodeWriteArgs(d *xdr.Decoder) WriteArgs {
	return WriteArgs{Handle: DecodeHandle(d), Offset: d.Int64(), Data: d.OpaqueRef(), Unstable: d.Bool()}
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

func (m *WriteReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK {
		m.Attr.Encode(e)
		e.Bool(m.Committed)
		e.Uint64(m.Verifier)
	}
}

// DecodeWriteReply reads a WriteReply.
func DecodeWriteReply(d *xdr.Decoder) WriteReply {
	r := WriteReply{Status: Status(d.Uint32())}
	if r.Status == OK {
		r.Attr = DecodeFattr(d)
		r.Committed = d.Bool()
		r.Verifier = d.Uint64()
	}
	return r
}

// CommitArgs asks the server to force every unstable write it holds for
// Handle to stable storage (whole-file commit; this reproduction does
// not need NFSv3's byte-range refinement).
type CommitArgs struct {
	Handle Handle
}

func (m *CommitArgs) Encode(e *xdr.Encoder) { m.Handle.Encode(e) }

// DecodeCommitArgs reads CommitArgs.
func DecodeCommitArgs(d *xdr.Decoder) CommitArgs {
	return CommitArgs{Handle: DecodeHandle(d)}
}

// CommitReply carries the write verifier under which the commit ran. If
// it differs from the verifier the client recorded when it sent the
// unstable writes, the server rebooted and dropped them: the client must
// redrive the data.
type CommitReply struct {
	Status   Status
	Verifier uint64
}

func (m *CommitReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK {
		e.Uint64(m.Verifier)
	}
}

// DecodeCommitReply reads a CommitReply.
func DecodeCommitReply(d *xdr.Decoder) CommitReply {
	r := CommitReply{Status: Status(d.Uint32())}
	if r.Status == OK {
		r.Verifier = d.Uint64()
	}
	return r
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

func (m *ReaddirReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK {
		e.Uint32(uint32(len(m.Entries)))
		for _, ent := range m.Entries {
			e.String(ent.Name)
			e.Uint64(ent.Fileid)
		}
	}
}

// DecodeReaddirReply reads a ReaddirReply.
func DecodeReaddirReply(d *xdr.Decoder) ReaddirReply {
	r := ReaddirReply{Status: Status(d.Uint32())}
	if r.Status != OK {
		return r
	}
	n := d.Uint32()
	if n > 1<<20 {
		return ReaddirReply{Status: ErrIO}
	}
	r.Entries = make([]DirEntry, 0, min(n, 1024))
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		r.Entries = append(r.Entries, DirEntry{Name: d.String(), Fileid: d.Uint64()})
	}
	return r
}

// StatfsReply reports file system capacity.
type StatfsReply struct {
	Status    Status
	BlockSize uint32
	Blocks    int64
	BytesUsed int64
}

func (m *StatfsReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK {
		e.Uint32(m.BlockSize)
		e.Int64(m.Blocks)
		e.Int64(m.BytesUsed)
	}
}

// DecodeStatfsReply reads a StatfsReply.
func DecodeStatfsReply(d *xdr.Decoder) StatfsReply {
	r := StatfsReply{Status: Status(d.Uint32())}
	if r.Status == OK {
		r.BlockSize = d.Uint32()
		r.Blocks = d.Int64()
		r.BytesUsed = d.Int64()
	}
	return r
}

// ---- Spritely NFS extensions ----

// OpenArgs announces that a client process opened the file (§3.1).
type OpenArgs struct {
	Handle    Handle
	WriteMode bool // the open intends to write
}

func (m *OpenArgs) Encode(e *xdr.Encoder) {
	m.Handle.Encode(e)
	e.Bool(m.WriteMode)
}

// DecodeOpenArgs reads OpenArgs.
func DecodeOpenArgs(d *xdr.Decoder) OpenArgs {
	return OpenArgs{Handle: DecodeHandle(d), WriteMode: d.Bool()}
}

// OpenReply tells the client whether it may cache the file, carries the
// version numbers used to validate a cache retained across close/reopen,
// and piggybacks the attributes so no separate getattr is needed (§3.1).
type OpenReply struct {
	Status       Status
	CacheEnabled bool
	Version      uint32 // latest version number
	PrevVersion  uint32 // version before this open (valid cache for the writer itself)
	Attr         Fattr
}

func (m *OpenReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK || m.Status == ErrInconsistent {
		e.Bool(m.CacheEnabled)
		e.Uint32(m.Version)
		e.Uint32(m.PrevVersion)
		m.Attr.Encode(e)
	}
}

// DecodeOpenReply reads an OpenReply.
func DecodeOpenReply(d *xdr.Decoder) OpenReply {
	r := OpenReply{Status: Status(d.Uint32())}
	if r.Status == OK || r.Status == ErrInconsistent {
		r.CacheEnabled = d.Bool()
		r.Version = d.Uint32()
		r.PrevVersion = d.Uint32()
		r.Attr = DecodeFattr(d)
	}
	return r
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

func (m *CloseArgs) Encode(e *xdr.Encoder) {
	m.Handle.Encode(e)
	e.Bool(m.WriteMode)
	if m.WantAttr {
		e.Bool(true)
	}
}

// DecodeCloseArgs reads CloseArgs.
func DecodeCloseArgs(d *xdr.Decoder) CloseArgs {
	return CloseArgs{Handle: DecodeHandle(d), WriteMode: d.Bool()}
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

func (m *CallbackArgs) Encode(e *xdr.Encoder) {
	m.Handle.Encode(e)
	e.Bool(m.WriteBack)
	e.Bool(m.Invalidate)
	e.Bool(m.Release)
}

// DecodeCallbackArgs reads CallbackArgs.
func DecodeCallbackArgs(d *xdr.Decoder) CallbackArgs {
	return CallbackArgs{
		Handle:     DecodeHandle(d),
		WriteBack:  d.Bool(),
		Invalidate: d.Bool(),
		Release:    d.Bool(),
	}
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

func (m *ReopenArgs) Encode(e *xdr.Encoder) {
	m.Handle.Encode(e)
	e.Uint32(m.Readers)
	e.Uint32(m.Writers)
	e.Uint32(m.Version)
	e.Bool(m.HasDirty)
}

// DecodeReopenArgs reads ReopenArgs.
func DecodeReopenArgs(d *xdr.Decoder) ReopenArgs {
	return ReopenArgs{
		Handle:   DecodeHandle(d),
		Readers:  d.Uint32(),
		Writers:  d.Uint32(),
		Version:  d.Uint32(),
		HasDirty: d.Bool(),
	}
}

// ServerInfoReply identifies the server incarnation; a changed epoch
// tells a client the server rebooted and state must be recovered.
type ServerInfoReply struct {
	Status  Status
	Epoch   uint64
	InGrace bool // server is in its recovery grace period
}

func (m *ServerInfoReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	e.Uint64(m.Epoch)
	e.Bool(m.InGrace)
}

// DecodeServerInfoReply reads a ServerInfoReply.
func DecodeServerInfoReply(d *xdr.Decoder) ServerInfoReply {
	return ServerInfoReply{Status: Status(d.Uint32()), Epoch: d.Uint64(), InGrace: d.Bool()}
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

func (m *DumpStateReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status != OK {
		return
	}
	e.Uint64(m.Epoch)
	e.Uint32(uint32(len(m.Entries)))
	for _, ent := range m.Entries {
		ent.Handle.Encode(e)
		e.Uint32(ent.State)
		e.String(ent.StateName)
		e.Uint32(ent.Version)
		e.String(ent.LastWriter)
		e.Bool(ent.Inconsistent)
		e.Uint32(uint32(len(ent.Clients)))
		for _, c := range ent.Clients {
			e.String(c.Client)
			e.Uint32(c.Readers)
			e.Uint32(c.Writers)
			e.Bool(c.Caching)
		}
	}
}

// DecodeDumpStateReply reads a DumpStateReply.
func DecodeDumpStateReply(d *xdr.Decoder) DumpStateReply {
	r := DumpStateReply{Status: Status(d.Uint32())}
	if r.Status != OK {
		return r
	}
	r.Epoch = d.Uint64()
	n := d.Uint32()
	if n > 1<<20 {
		return DumpStateReply{Status: ErrIO}
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		ent := DumpEntry{
			Handle:       DecodeHandle(d),
			State:        d.Uint32(),
			StateName:    d.String(),
			Version:      d.Uint32(),
			LastWriter:   d.String(),
			Inconsistent: d.Bool(),
		}
		m := d.Uint32()
		if m > 1<<16 {
			return DumpStateReply{Status: ErrIO}
		}
		for j := uint32(0); j < m && d.Err() == nil; j++ {
			ent.Clients = append(ent.Clients, DumpClient{
				Client:  d.String(),
				Readers: d.Uint32(),
				Writers: d.Uint32(),
				Caching: d.Bool(),
			})
		}
		r.Entries = append(r.Entries, ent)
	}
	return r
}

// ---- advisory locking extension ----

// LockArgs requests (or releases) an advisory lock on a file.
type LockArgs struct {
	Handle    Handle
	Exclusive bool
}

func (m *LockArgs) Encode(e *xdr.Encoder) {
	m.Handle.Encode(e)
	e.Bool(m.Exclusive)
}

// DecodeLockArgs reads LockArgs.
func DecodeLockArgs(d *xdr.Decoder) LockArgs {
	return LockArgs{Handle: DecodeHandle(d), Exclusive: d.Bool()}
}

// LockReply reports whether the lock was granted (a denial is not an
// error: the client polls).
type LockReply struct {
	Status  Status
	Granted bool
}

func (m *LockReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	e.Bool(m.Granted)
}

// DecodeLockReply reads a LockReply.
func DecodeLockReply(d *xdr.Decoder) LockReply {
	return LockReply{Status: Status(d.Uint32()), Granted: d.Bool()}
}

// ---- links (RFC 1094 procedures 5, 12, 13) ----

// LinkArgs creates a hard link to an existing file.
type LinkArgs struct {
	From   Handle // the file being linked to
	ToDir  Handle
	ToName string
}

func (m *LinkArgs) Encode(e *xdr.Encoder) {
	m.From.Encode(e)
	m.ToDir.Encode(e)
	e.String(m.ToName)
}

// DecodeLinkArgs reads LinkArgs.
func DecodeLinkArgs(d *xdr.Decoder) LinkArgs {
	return LinkArgs{From: DecodeHandle(d), ToDir: DecodeHandle(d), ToName: d.String()}
}

// SymlinkArgs creates a symbolic link.
type SymlinkArgs struct {
	Dir    Handle
	Name   string
	Target string
}

func (m *SymlinkArgs) Encode(e *xdr.Encoder) {
	m.Dir.Encode(e)
	e.String(m.Name)
	e.String(m.Target)
}

// DecodeSymlinkArgs reads SymlinkArgs.
func DecodeSymlinkArgs(d *xdr.Decoder) SymlinkArgs {
	return SymlinkArgs{Dir: DecodeHandle(d), Name: d.String(), Target: d.String()}
}

// ReadlinkReply returns a symlink's target.
type ReadlinkReply struct {
	Status Status
	Target string
}

func (m *ReadlinkReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK {
		e.String(m.Target)
	}
}

// DecodeReadlinkReply reads a ReadlinkReply.
func DecodeReadlinkReply(d *xdr.Decoder) ReadlinkReply {
	r := ReadlinkReply{Status: Status(d.Uint32())}
	if r.Status == OK {
		r.Target = d.String()
	}
	return r
}

// MetricsReply returns the server's metrics registry as Prometheus-style
// exposition text (ProcMetrics).
type MetricsReply struct {
	Status Status
	Text   string
}

func (m *MetricsReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK {
		e.String(m.Text)
	}
}

// DecodeMetricsReply reads a MetricsReply.
func DecodeMetricsReply(d *xdr.Decoder) MetricsReply {
	r := MetricsReply{Status: Status(d.Uint32())}
	if r.Status == OK {
		r.Text = d.String()
	}
	return r
}

// AuditReply returns the server's protocol-audit report as text
// (ProcAudit).
type AuditReply struct {
	Status Status
	Text   string
}

func (m *AuditReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK {
		e.String(m.Text)
	}
}

// DecodeAuditReply reads an AuditReply.
func DecodeAuditReply(d *xdr.Decoder) AuditReply {
	r := AuditReply{Status: Status(d.Uint32())}
	if r.Status == OK {
		r.Text = d.String()
	}
	return r
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

func (m *WccReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	e.Uint32(uint32(len(m.Wcc)))
	for _, w := range m.Wcc {
		w.Handle.Encode(e)
		w.Attr.Encode(e)
	}
}

// DecodeWccReply reads a WccReply.
func DecodeWccReply(d *xdr.Decoder) WccReply {
	r := WccReply{Status: Status(d.Uint32())}
	if d.Err() != nil || d.Remaining() == 0 {
		// A bare StatusReply (a server that ignored the want-attr
		// flag, or a shard redirect) is a WccReply with no records.
		return r
	}
	n := d.Uint32()
	if n > 16 {
		return WccReply{Status: ErrIO}
	}
	for i := uint32(0); i < n; i++ {
		r.Wcc = append(r.Wcc, WccData{Handle: DecodeHandle(d), Attr: DecodeFattr(d)})
	}
	return r
}

// LookupPathArgs resolves Names in order, each under the previous
// component, starting from Dir (ProcLookupPath).
type LookupPathArgs struct {
	Dir   Handle
	Names []string
}

func (m *LookupPathArgs) Encode(e *xdr.Encoder) {
	m.Dir.Encode(e)
	e.Uint32(uint32(len(m.Names)))
	for _, n := range m.Names {
		e.String(n)
	}
}

// DecodeLookupPathArgs reads LookupPathArgs.
func DecodeLookupPathArgs(d *xdr.Decoder) LookupPathArgs {
	a := LookupPathArgs{Dir: DecodeHandle(d)}
	n := d.Uint32()
	if n > 1<<12 {
		d.Raw() // poison: consume the rest so Err callers see garbage
		return LookupPathArgs{}
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		a.Names = append(a.Names, d.String())
	}
	return a
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

func (m *LookupPathReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK {
		e.Uint32(m.Resolved)
		m.Handle.Encode(e)
		m.Parent.Encode(e)
		m.Attr.Encode(e)
	}
}

// DecodeLookupPathReply reads a LookupPathReply.
func DecodeLookupPathReply(d *xdr.Decoder) LookupPathReply {
	r := LookupPathReply{Status: Status(d.Uint32())}
	if r.Status == OK {
		r.Resolved = d.Uint32()
		r.Handle = DecodeHandle(d)
		r.Parent = DecodeHandle(d)
		r.Attr = DecodeFattr(d)
	}
	return r
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

func (m *ReaddirAttrsReply) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(m.Status))
	if m.Status == OK {
		e.Uint32(uint32(len(m.Entries)))
		for _, ent := range m.Entries {
			e.String(ent.Name)
			ent.Handle.Encode(e)
			ent.Attr.Encode(e)
		}
	}
}

// DecodeReaddirAttrsReply reads a ReaddirAttrsReply.
func DecodeReaddirAttrsReply(d *xdr.Decoder) ReaddirAttrsReply {
	r := ReaddirAttrsReply{Status: Status(d.Uint32())}
	if r.Status != OK {
		return r
	}
	n := d.Uint32()
	if n > 1<<20 {
		return ReaddirAttrsReply{Status: ErrIO}
	}
	r.Entries = make([]DirEntryAttrs, 0, min(n, 1024))
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		r.Entries = append(r.Entries, DirEntryAttrs{
			Name:   d.String(),
			Handle: DecodeHandle(d),
			Attr:   DecodeFattr(d),
		})
	}
	return r
}
