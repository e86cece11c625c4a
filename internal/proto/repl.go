package proto

import "spritelynfs/internal/xdr"

// Replication and viewservice messages (replicated-shard extension).
//
// A shard's primary streams ReplRecords to its backup over ProcReplStream:
// every state-table transition, every write/commit the primary charged to
// its media, and the dupcache entry of every non-idempotent reply. The
// stream is asynchronous and bounded; ProcReplSync is the barrier that
// makes it synchronous exactly when a view change demands it.
//
// The viewservice (ProgView) hears periodic pings from every server and
// answers with the current view and shard map; a primary acks a view by
// echoing its number in ViewSeen.

// Replication record kinds.
const (
	ReplTransition = 0 // a core.TransitionEvent projection
	ReplWrite      = 1 // a write charged to the primary's media
	ReplCommit     = 2 // a COMMIT gathering a file's unstable blocks
	ReplDup        = 3 // a dupcache entry for a non-idempotent reply
)

// ReplRecord is one replicated event. Kind selects which field group is
// meaningful; the wire image always carries all of them (they are small
// and a union would buy little in a simulator).
type ReplRecord struct {
	Seq  uint64
	Kind uint32

	// ReplTransition fields: enough of a core.TransitionEvent for the
	// backup to mirror the table entry it results in.
	Event      string
	Handle     Handle
	Client     string
	To         uint32 // core.FileState after the transition
	Version    uint32
	Readers    uint32
	Writers    uint32
	LastWriter string
	HasDirty   bool
	Dropped    bool

	// ReplWrite / ReplCommit fields.
	Ino      uint64
	Offset   int64
	Length   uint32
	Unstable bool

	// ReplDup fields: the cached reply wire image keyed by (From, Xid).
	From string
	Xid  uint32
	Wire []byte
}

// XDR codes r. Decoded, Wire is a copy: a backup keeps it in its
// duplicate cache (rpc.Endpoint.SeedDup) long after the batch is gone.
func (r *ReplRecord) XDR(c xdr.Codec) {
	c.Uint64(&r.Seq)
	c.Uint32(&r.Kind)
	c.String(&r.Event)
	r.Handle.XDR(c)
	c.String(&r.Client)
	c.Uint32(&r.To)
	c.Uint32(&r.Version)
	c.Uint32(&r.Readers)
	c.Uint32(&r.Writers)
	c.String(&r.LastWriter)
	c.Bool(&r.HasDirty)
	c.Bool(&r.Dropped)
	c.Uint64(&r.Ino)
	c.Int64(&r.Offset)
	c.Uint32(&r.Length)
	c.Bool(&r.Unstable)
	c.String(&r.From)
	c.Uint32(&r.Xid)
	c.Opaque(&r.Wire)
}

// ReplStreamArgs is one batch of the primary→backup replication stream.
// Epoch and Verifier are the primary's current incarnation numbers; the
// backup remembers them so promotion can bump past both sides' history.
type ReplStreamArgs struct {
	Shard    uint32
	Epoch    uint64
	Verifier uint64
	Records  []ReplRecord
}

func (m *ReplStreamArgs) XDR(c xdr.Codec) {
	c.Uint32(&m.Shard)
	c.Uint64(&m.Epoch)
	c.Uint64(&m.Verifier)
	xdr.Count(c, &m.Records, 1<<20)
	for i := range m.Records {
		m.Records[i].XDR(c)
	}
}

// ReplStreamReply acks a stream batch. Status ErrDemoted means the
// receiver is now the shard's primary (per a newer map, carried in Map):
// the sender must stop streaming and install the map.
type ReplStreamReply struct {
	Status  Status
	Applied uint64 // highest contiguous sequence number applied
	Map     ShardMap
}

func (m *ReplStreamReply) XDR(c xdr.Codec) {
	m.Status.XDR(c)
	c.Uint64(&m.Applied)
	if m.Status == ErrDemoted {
		m.Map.XDR(c)
	}
}

// ReplSyncArgs asks the backup whether it has applied through Seq.
type ReplSyncArgs struct {
	Shard uint32
	Seq   uint64
}

func (m *ReplSyncArgs) XDR(c xdr.Codec) {
	c.Uint32(&m.Shard)
	c.Uint64(&m.Seq)
}

// ReplSyncReply reports the backup's replication progress.
type ReplSyncReply struct {
	Status  Status
	Applied uint64
	Synced  bool // Applied >= the Seq asked about, with no gap
}

func (m *ReplSyncReply) XDR(c xdr.Codec) {
	m.Status.XDR(c)
	c.Uint64(&m.Applied)
	c.Bool(&m.Synced)
}

// View is one numbered (primary, backup) assignment for a shard. Views
// only move forward; view i+1 is never published until the primary of
// view i acked it (or is being declared dead by that very change).
type View struct {
	Num     uint64
	Primary string
	Backup  string
}

func (v *View) XDR(c xdr.Codec) {
	c.Uint64(&v.Num)
	c.String(&v.Primary)
	c.String(&v.Backup)
}

// ViewPingArgs is a server's periodic liveness report to the viewservice.
type ViewPingArgs struct {
	Shard    uint32
	Addr     string
	ViewSeen uint64 // highest view number this server has acted on
	Synced   bool   // primaries: backup confirmed caught up
	Lag      uint32 // primaries: replication records queued, not yet acked
}

func (m *ViewPingArgs) XDR(c xdr.Codec) {
	c.Uint32(&m.Shard)
	c.String(&m.Addr)
	c.Uint64(&m.ViewSeen)
	c.Bool(&m.Synced)
	c.Uint32(&m.Lag)
}

// ViewPingReply carries the shard's current view and the cluster map.
type ViewPingReply struct {
	Status Status
	View   View
	Map    ShardMap
}

func (m *ViewPingReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status == OK {
		m.View.XDR(c)
		m.Map.XDR(c)
	}
}

// ShardView is one shard's row in a ViewGetReply.
type ShardView struct {
	Shard  uint32
	View   View
	Synced bool
	Lag    uint32
}

func (v *ShardView) XDR(c xdr.Codec) {
	c.Uint32(&v.Shard)
	v.View.XDR(c)
	c.Bool(&v.Synced)
	c.Uint32(&v.Lag)
}

// ViewGetArgs is the (empty) argument of ViewProcGet.
type ViewGetArgs struct{}

func (m *ViewGetArgs) XDR(xdr.Codec) {}

// ViewGetReply is the whole control-plane picture: every shard's view
// plus the current map. Clients use it to heal onto a new primary when
// the old one is too dead to answer ErrNotHome.
type ViewGetReply struct {
	Status Status
	Views  []ShardView
	Map    ShardMap
}

func (m *ViewGetReply) XDR(c xdr.Codec) {
	if m.Status.XDR(c); m.Status != OK {
		return
	}
	xdr.Count(c, &m.Views, 1<<20)
	for i := range m.Views {
		m.Views[i].XDR(c)
	}
	m.Map.XDR(c)
}
