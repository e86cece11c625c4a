package localfs

import (
	"spritelynfs/internal/cache"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/sim"
)

// Media charges simulated disk costs for file system activity, with a
// buffer cache deciding which reads hit memory and which reach the disk.
// The same layer serves two roles:
//
//   - On the server, writes are synchronous (the NFS requirement that data
//     be on stable storage before the RPC returns) and the cache acts as a
//     read cache, the paper's 3.5 Mbyte server buffer cache.
//   - On a client's local disk, data writes are delayed in the cache and
//     flushed by the periodic update daemon or on eviction — the
//     traditional Unix policy the paper compares against. Deleting a file
//     cancels its delayed writes, but structural (metadata) writes still
//     happen, which is why local-disk sort never quite reaches SNFS's
//     infinite-write-delay performance in Table 5-5.
type Media struct {
	store *Store
	d     *disk.Disk
	c     *cache.Cache
	sched *disk.Scheduler
	fsid  uint32

	// MetaBytes is the size charged per structural update (directory
	// block + inode).
	MetaBytes int
	// MetaSync makes metadata updates synchronous (true on servers and
	// for local Unix semantics).
	MetaSync bool
	// Gather enables group commit of synchronous flushes (the server
	// half of write gathering): while the arm is busy with one batch,
	// later COMMIT runs and metadata updates wait and are folded into
	// the next sorted sweep (Disk.WriteBatch), so N concurrent
	// synchronous updates cost ~2 arm sweeps instead of N random
	// operations. Off by default to keep the vintage one-op-per-update
	// behavior of the measured configuration.
	Gather bool

	// group-commit state: a leader drains batches while followers wait
	// on the signal for the sweep that will carry their update.
	gateLeader  bool
	gateWaiters int
	gateSig     *sim.Signal
	// metaPending counts structural updates awaiting the next sweep.
	metaPending int

	// delayed write accounting
	syncedThrough sim.Time
}

// NewMedia wraps store with disk d and a buffer cache of cacheBytes.
func NewMedia(store *Store, d *disk.Disk, fsid uint32, cacheBytes int64) *Media {
	blocks := 0
	if cacheBytes > 0 {
		blocks = int(cacheBytes / int64(store.BlockSize()))
		if blocks < 1 {
			blocks = 1
		}
	}
	return &Media{
		store:     store,
		d:         d,
		c:         cache.New(blocks),
		sched:     disk.NewScheduler(d),
		fsid:      fsid,
		MetaBytes: 512,
		MetaSync:  true,
	}
}

// Store returns the underlying namespace layer.
func (m *Media) Store() *Store { return m.store }

// Disk returns the underlying simulated disk.
func (m *Media) Disk() *disk.Disk { return m.d }

// Sched returns the write-gathering scheduler (for stats inspection).
func (m *Media) Sched() *disk.Scheduler { return m.sched }

func (m *Media) key(ino uint64, block int64) cache.Key {
	return cache.Key{FS: m.fsid, Ino: ino, Block: block}
}

// blockRange returns the block span [first, last] covering off..off+n-1.
func (m *Media) blockRange(off int64, n int) (int64, int64) {
	bs := int64(m.store.BlockSize())
	if n <= 0 {
		b := off / bs
		return b, b - 1 // empty range
	}
	return off / bs, (off + int64(n) - 1) / bs
}

// ChargeRead charges p for reading n bytes of file ino at off: blocks
// resident in the buffer cache are free, missing blocks pay one disk
// access per contiguous run plus transfer time and become resident.
func (m *Media) ChargeRead(p *sim.Proc, ino uint64, off int64, n int) {
	first, last := m.blockRange(off, n)
	bs := m.store.BlockSize()
	missRun := 0
	flush := func() {
		if missRun > 0 {
			m.d.Read(p, missRun*bs)
			missRun = 0
		}
	}
	for b := first; b <= last; b++ {
		if _, ok := m.c.Lookup(m.key(ino, b)); ok {
			flush()
			continue
		}
		missRun++
		_, evicted := m.c.Insert(m.key(ino, b), nil, bs)
		m.writeBackEvicted(evicted)
	}
	flush()
}

// ChargeWriteSync charges p for a synchronous write of n bytes at off.
// Each file system block pays its own disk access: the vintage Unix FS
// under the server wrote blocks individually with no clustering, which
// is a large part of why synchronous NFS writes hurt (§2.1). The written
// blocks become resident and clean.
func (m *Media) ChargeWriteSync(p *sim.Proc, ino uint64, off int64, n int) {
	first, last := m.blockRange(off, n)
	bs := m.store.BlockSize()
	for b := first; b <= last; b++ {
		m.d.Write(p, bs)
		m.c.MarkClean(m.key(ino, b)) // a sync write also cleans any delayed copy
		_, evicted := m.c.Insert(m.key(ino, b), nil, bs)
		m.writeBackEvicted(evicted)
	}
}

// ChargeWriteDelayed records a delayed write of n bytes at off: the blocks
// become resident and dirty at time now, with no disk activity until a
// sync, an eviction, or cancellation.
func (m *Media) ChargeWriteDelayed(now sim.Time, ino uint64, off int64, n int) {
	first, last := m.blockRange(off, n)
	bs := m.store.BlockSize()
	for b := first; b <= last; b++ {
		k := m.key(ino, b)
		_, evicted := m.c.Insert(k, nil, bs)
		m.c.MarkDirty(k, now)
		m.writeBackEvicted(evicted)
	}
}

// ChargeWriteUnstable records an unstable WRITE (the NFSv3-style fast
// path): the data lands in the server buffer cache, dirty, and the RPC
// may return without any disk activity. Durability comes later, when a
// COMMIT gathers the file's dirty blocks into merged arm operations —
// or never, if the server crashes first, which is why the reply carries
// a write verifier the client checks at COMMIT time.
func (m *Media) ChargeWriteUnstable(now sim.Time, ino uint64, off int64, n int) {
	m.ChargeWriteDelayed(now, ino, off, n)
}

// CommitFile flushes every dirty block of ino through the write-gathering
// scheduler, blocking p for one arm operation per contiguous run instead
// of one per block (the COMMIT half of the unstable-WRITE/COMMIT
// pipeline). It returns the number of blocks made durable.
func (m *Media) CommitFile(p *sim.Proc, ino uint64) int {
	dirty := m.c.DirtyBlocks(m.fsid, ino)
	if len(dirty) == 0 {
		return 0
	}
	for _, b := range dirty {
		m.sched.Enqueue(disk.Req{Ino: ino, Block: b.Key.Block, Bytes: b.Len})
		m.c.MarkClean(b.Key)
	}
	if m.Gather {
		// Group commit: concurrent COMMITs (and metadata updates)
		// share sorted arm sweeps instead of queueing one random
		// operation each.
		m.gatherSync(p)
	} else {
		m.sched.FlushSync(p)
	}
	return len(dirty)
}

// DropDirty models a crash: every dirty buffer — unstable writes that
// were never committed, delayed metadata — vanishes before reaching the
// disk. Residency is dropped too (a rebooted server starts with a cold
// cache). It returns the number of blocks lost; clients holding the
// verifier issued before the crash are expected to redrive that data.
func (m *Media) DropDirty() int {
	lost := 0
	for {
		dirty := m.c.AllDirty()
		if len(dirty) == 0 {
			break
		}
		ino := dirty[0].Key.Ino
		lost += m.c.CancelDirty(m.fsid, ino)
		m.c.InvalidateFile(m.fsid, ino)
	}
	return lost
}

// writeBackEvicted pushes evicted dirty blocks to the disk asynchronously
// (the kernel flushing buffers to reclaim them never blocks the evicting
// process directly in our model; the disk queue delay is what matters).
func (m *Media) writeBackEvicted(evicted []*cache.Block) {
	for _, b := range evicted {
		if b.Dirty {
			m.d.WriteAsync(b.Len, nil)
		}
	}
}

// SyncFile synchronously writes back all dirty blocks of ino, blocking p.
func (m *Media) SyncFile(p *sim.Proc, ino uint64) {
	dirty := m.c.DirtyBlocks(m.fsid, ino)
	if len(dirty) == 0 {
		return
	}
	total := 0
	for _, b := range dirty {
		total += b.Len
		m.c.MarkClean(b.Key)
	}
	m.d.Write(p, total)
}

// SyncOlderThan asynchronously writes back every dirty block dirtied at or
// before cutoff (the update daemon's periodic pass) and returns the number
// of blocks flushed. Contiguous runs within one file coalesce into single
// disk operations, as the real sync path's sorted writes do.
func (m *Media) SyncOlderThan(cutoff sim.Time) int {
	dirty := m.c.DirtyOlderThan(cutoff)
	for _, b := range dirty {
		m.sched.Enqueue(disk.Req{Ino: b.Key.Ino, Block: b.Key.Block, Bytes: b.Len})
		m.c.MarkClean(b.Key)
	}
	m.sched.FlushAsync()
	return len(dirty)
}

// Cancel drops the pending delayed writes of ino (file deleted before
// write-back) and invalidates its residency, returning the number of dirty
// blocks that never reached the disk.
func (m *Media) Cancel(ino uint64) int {
	n := m.c.CancelDirty(m.fsid, ino)
	m.c.InvalidateFile(m.fsid, ino)
	return n
}

// ChargeMeta charges one structural update (create, remove, rename,
// mkdir, directory growth). Synchronous when MetaSync is set, otherwise
// queued asynchronously.
func (m *Media) ChargeMeta(p *sim.Proc) {
	if !m.MetaSync {
		m.d.WriteAsync(m.MetaBytes, nil)
		return
	}
	if !m.Gather {
		m.d.Write(p, m.MetaBytes)
		return
	}
	m.metaPending++
	m.gatherSync(p)
}

// gatherSync is the group-commit gate for synchronous durability in
// Gather mode. The caller has already queued its work (metadata in
// metaPending, data runs in the scheduler). If a leader is at the arm,
// join the next sweep and wait for it to land; otherwise become the
// leader and drain sweeps until nothing new has piled up.
func (m *Media) gatherSync(p *sim.Proc) {
	if m.gateLeader {
		m.gateWaiters++
		m.gateSig.Wait(p)
		return
	}
	m.gateLeader = true
	for {
		sig := m.gateSig
		m.gateSig = sim.NewSignal(p.Kernel())
		m.gateWaiters = 0
		m.flushBatch(p)
		if sig != nil {
			sig.Fire(nil)
		}
		if m.gateWaiters == 0 {
			break
		}
	}
	m.gateLeader = false
}

// flushBatch writes everything pending — queued metadata updates and the
// scheduler's merged data runs — as one sorted arm sweep.
func (m *Media) flushBatch(p *sim.Proc) {
	sizes := make([]int, 0, m.metaPending+4)
	for i := 0; i < m.metaPending; i++ {
		sizes = append(sizes, m.MetaBytes)
	}
	m.metaPending = 0
	sizes = append(sizes, m.sched.RunSizes()...)
	m.d.WriteBatch(p, sizes)
}

// DirtyBlocks reports how many blocks are awaiting write-back.
func (m *Media) DirtyBlocks() int { return m.c.DirtyCount() }
