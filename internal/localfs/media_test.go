package localfs

import (
	"bytes"
	"runtime"
	"testing"

	"spritelynfs/internal/disk"
	"spritelynfs/internal/sim"
)

func newTestMedia(k *sim.Kernel, cacheBytes int64) *Media {
	st := NewStore(k.Now, 4096)
	d := disk.New(k, "d0", disk.Params{AccessTime: 10 * sim.Millisecond, BytesPerSec: 2_000_000})
	return NewMedia(st, d, 1, cacheBytes)
}

func TestReadMissThenHit(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedia(k, 1<<20)
	k.Go("r", func(p *sim.Proc) {
		m.chargeRead(p, 5, 0, 8192) // two blocks, both miss
		if m.Disk().Stats().Reads != 1 {
			t.Errorf("contiguous miss run should be one disk op, got %d", m.Disk().Stats().Reads)
		}
		before := m.Disk().Stats().Reads
		m.chargeRead(p, 5, 0, 8192) // both hit now
		if m.Disk().Stats().Reads != before {
			t.Error("cache hit went to disk")
		}
	})
	k.Run()
}

// TestMediaReadAtKeepsTheReadInstant races a write against a read parked
// on the disk: the write lands during the wait, copying the page the read
// froze, so the read returns the bytes of its read instant and the file
// holds the new ones. A page no read has handed out takes writes in place.
func TestMediaReadAtKeepsTheReadInstant(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedia(k, 1<<20)
	st := m.Store()
	a, _ := st.Create(st.Root(), "f", 0o644)
	old, fresh := bytes.Repeat([]byte{'o'}, 4096), bytes.Repeat([]byte{'n'}, 4096)
	st.WriteAt(a.Ino, 0, old)
	var got []byte
	var wroteAt, readAt sim.Time
	k.Go("reader", func(p *sim.Proc) {
		got, _ = m.ReadAt(p, a.Ino, 0, 4096) // a miss: parks on the disk
		readAt = p.Now()
	})
	k.Go("writer", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		st.WriteAt(a.Ino, 0, fresh)
		wroteAt = p.Now()
	})
	k.Run()
	if m.Disk().Stats().Reads != 1 || wroteAt >= readAt {
		t.Fatalf("the write at %v did not land inside the read's disk wait (read returned at %v, %d disk reads)",
			wroteAt, readAt, m.Disk().Stats().Reads)
	}
	if !bytes.Equal(got, old) {
		t.Errorf("the read returned bytes written during its disk wait")
	}
	if now, _ := st.ReadAt(a.Ino, 0, 4096); !bytes.Equal(now, fresh) {
		t.Errorf("the file lost the write that landed during the read")
	}
	st.WriteAt(a.Ino, 0, old) // copies the page the check above froze
	if allocs := testing.AllocsPerRun(100, func() { st.WriteAt(a.Ino, 0, old) }); allocs != 0 {
		t.Errorf("a write into a page no read holds allocates %.0f objects, want 0", allocs)
	}
}

// TestHeldWriteCopiesOnlyItsPage: while a read of a 64 KiB file waits on
// the disk, a write to another page lands in place and allocates nothing —
// only the page the read handed out is frozen — and a write into that page
// copies it, one page, leaving the view with the bytes of its read instant.
func TestHeldWriteCopiesOnlyItsPage(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedia(k, 1<<20)
	st := m.Store()
	a, _ := st.Create(st.Root(), "f", 0o644)
	old := bytes.Repeat([]byte{'o'}, 64<<10)
	st.WriteAt(a.Ino, 0, old)
	var got []byte
	var other, held uint64
	var wroteAt, readAt sim.Time
	k.Go("reader", func(p *sim.Proc) {
		got, _ = m.ReadAt(p, a.Ino, 0, pageSize) // a miss: parks on the disk
		readAt = p.Now()
	})
	k.Go("writer", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		other = allocated(func() { st.WriteAt(a.Ino, 5*pageSize+100, []byte("other page")) })
		held = allocated(func() { st.WriteAt(a.Ino, 100, []byte("held page")) })
		wroteAt = p.Now()
	})
	k.Run()
	if m.Disk().Stats().Reads != 1 || wroteAt >= readAt {
		t.Fatalf("the writes at %v did not land inside the read's disk wait (read returned at %v)", wroteAt, readAt)
	}
	if other >= pageSize {
		t.Errorf("a write to another page during the read allocated %d B, want no page", other)
	}
	if held < pageSize || held >= 2*pageSize {
		t.Errorf("a write into the read's page allocated %d B, want one %d B page", held, pageSize)
	}
	if !bytes.Equal(got, old[:pageSize]) {
		t.Errorf("the held view changed under a write to its page")
	}
	now, _ := st.ReadAt(a.Ino, 0, 64<<10)
	if string(now[100:109]) != "held page" || string(now[5*pageSize+100:5*pageSize+110]) != "other page" {
		t.Errorf("the file lost a write that landed during the read")
	}
}

// allocated reports the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestSyncWriteChargesDisk(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedia(k, 1<<20)
	var elapsed sim.Time
	k.Go("w", func(p *sim.Proc) {
		m.ChargeWriteSync(p, 5, 0, 4096)
		elapsed = p.Now()
	})
	k.Run()
	if elapsed == 0 {
		t.Error("sync write did not block")
	}
	if m.Disk().Stats().Writes != 1 {
		t.Errorf("writes %d", m.Disk().Stats().Writes)
	}
	// The written block is now resident: a read of it is free.
	k2 := sim.NewKernel(1)
	_ = k2
}

func TestDelayedWriteDefersDisk(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedia(k, 1<<20)
	k.Go("w", func(p *sim.Proc) {
		m.ChargeWriteDelayed(p.Now(), 5, 0, 12288)
		if m.Disk().Stats().Writes != 0 {
			t.Error("delayed write touched disk")
		}
		if m.DirtyBlocks() != 3 {
			t.Errorf("dirty blocks %d, want 3", m.DirtyBlocks())
		}
		m.SyncFile(p, 5)
		if m.Disk().Stats().Writes != 1 {
			t.Errorf("sync flush ops %d, want 1 batched write", m.Disk().Stats().Writes)
		}
		if m.DirtyBlocks() != 0 {
			t.Error("blocks still dirty after sync")
		}
	})
	k.Run()
}

func TestCancelAvoidsDiskEntirely(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedia(k, 1<<20)
	k.Go("w", func(p *sim.Proc) {
		m.ChargeWriteDelayed(p.Now(), 5, 0, 40960)
		n := m.Cancel(5)
		if n != 10 {
			t.Errorf("cancelled %d blocks, want 10", n)
		}
		if m.Disk().Stats().Writes != 0 {
			t.Error("cancelled writes reached disk")
		}
	})
	k.Run()
}

func TestSyncOlderThanIsAgeSelective(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedia(k, 1<<20)
	k.Go("w", func(p *sim.Proc) {
		m.ChargeWriteDelayed(p.Now(), 1, 0, 4096) // dirtied at t=0
		p.Sleep(40 * sim.Second)
		m.ChargeWriteDelayed(p.Now(), 2, 0, 4096) // dirtied at t=40s
		n := m.SyncOlderThan(p.Now().Add(-30 * sim.Second))
		if n != 1 {
			t.Errorf("flushed %d blocks, want only the 40s-old one", n)
		}
	})
	k.Run()
}

func TestEvictionWritesBackDirty(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedia(k, 2*4096) // tiny cache: 2 blocks
	k.Go("w", func(p *sim.Proc) {
		m.ChargeWriteDelayed(p.Now(), 1, 0, 4096)
		m.ChargeWriteDelayed(p.Now(), 2, 0, 4096)
		m.ChargeWriteDelayed(p.Now(), 3, 0, 4096) // evicts file 1's block
		if m.Disk().Stats().Writes != 1 {
			t.Errorf("evicted dirty block writes %d, want 1", m.Disk().Stats().Writes)
		}
	})
	k.Run()
}

func TestMetaSyncVsAsync(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedia(k, 1<<20)
	var syncTime, asyncTime sim.Time
	k.Go("w", func(p *sim.Proc) {
		start := p.Now()
		m.ChargeMeta(p)
		syncTime = p.Now() - start

		m.MetaSync = false
		start = p.Now()
		m.ChargeMeta(p)
		asyncTime = p.Now() - start
	})
	k.Run()
	if syncTime == 0 {
		t.Error("sync metadata write did not block")
	}
	if asyncTime != 0 {
		t.Error("async metadata write blocked")
	}
	if m.Disk().Stats().Writes != 2 {
		t.Errorf("meta writes %d, want 2", m.Disk().Stats().Writes)
	}
}

func TestCommitFileGathersRuns(t *testing.T) {
	// Six adjacent unstable blocks commit in one arm operation; the
	// blocks come out clean and a second commit is free.
	k := sim.NewKernel(1)
	m := newTestMedia(k, 1<<20)
	k.Go("w", func(p *sim.Proc) {
		m.ChargeWriteUnstable(p.Now(), 5, 0, 6*4096)
		if got := m.Disk().Stats().Writes; got != 0 {
			t.Errorf("unstable write touched disk: %d ops", got)
		}
		if n := m.CommitFile(p, 5); n != 6 {
			t.Errorf("committed %d blocks, want 6", n)
		}
		ds := m.Disk().Stats()
		if ds.Writes != 1 || ds.BytesWritten != 6*4096 {
			t.Errorf("disk stats after commit: %+v", ds)
		}
		if n := m.CommitFile(p, 5); n != 0 {
			t.Errorf("second commit flushed %d blocks, want 0", n)
		}
		st := m.Sched().Stats()
		if st.Requests != 6 || st.Merged != 5 || st.Ops != 1 {
			t.Errorf("scheduler stats %+v", st)
		}
	})
	k.Run()
}

func TestDropDirtyLosesUncommitted(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedia(k, 1<<20)
	k.Go("w", func(p *sim.Proc) {
		m.ChargeWriteUnstable(p.Now(), 5, 0, 2*4096)
		m.ChargeWriteUnstable(p.Now(), 9, 0, 4096)
		if lost := m.DropDirty(); lost != 3 {
			t.Errorf("crash lost %d blocks, want 3", lost)
		}
		if m.DirtyBlocks() != 0 {
			t.Errorf("%d dirty blocks survived the crash", m.DirtyBlocks())
		}
		if m.Disk().Stats().Writes != 0 {
			t.Error("crash-dropped data reached the disk")
		}
		// Committed data is unaffected by a later crash.
		m.ChargeWriteUnstable(p.Now(), 5, 0, 4096)
		m.CommitFile(p, 5)
		if lost := m.DropDirty(); lost != 0 {
			t.Errorf("crash after commit lost %d blocks", lost)
		}
	})
	k.Run()
}

func TestGatherGroupCommitsMeta(t *testing.T) {
	// Eight concurrent metadata updates in Gather mode: the first
	// becomes the sweep leader, the other seven join a second batch.
	// Total arm time = leader's op + one sweep of seven, instead of
	// eight full random accesses.
	k := sim.NewKernel(1)
	st := NewStore(k.Now, 4096)
	d := disk.New(k, "d0", disk.Params{
		AccessTime: 10 * sim.Millisecond, BytesPerSec: 2_000_000,
		SweepAccessTime: 5 * sim.Millisecond,
	})
	m := NewMedia(st, d, 1, 1<<20)
	m.Gather = true
	var wg sim.WaitGroup
	wg.Add(8)
	for i := 0; i < 8; i++ {
		k.Go("meta", func(p *sim.Proc) {
			defer wg.Done()
			m.ChargeMeta(p)
		})
	}
	var done sim.Time
	k.Go("waiter", func(p *sim.Proc) {
		wg.Wait(p)
		done = p.Now()
	})
	k.Run()
	serial := sim.Time(0).Add(8 * (10*sim.Millisecond + sim.Duration(512*int64(sim.Second)/2_000_000)))
	if done >= serial {
		t.Errorf("gather took %v, no better than %v serial", done, serial)
	}
	if st := m.Disk().Stats(); st.Writes != 8 || st.BytesWritten != 8*512 {
		t.Errorf("disk stats %+v", st)
	}
}

func TestGatherCommitsShareSweep(t *testing.T) {
	// Two files committed concurrently in Gather mode: the second
	// commit's run joins the sweep after the leader's, so its blocks
	// are durable when CommitFile returns but the arm never saw two
	// independent random accesses back to back.
	k := sim.NewKernel(1)
	m := newTestMedia(k, 1<<20)
	m.Gather = true
	now := sim.Time(0)
	m.ChargeWriteUnstable(now, 7, 0, 3*4096)
	m.ChargeWriteUnstable(now, 9, 0, 3*4096)
	var wg sim.WaitGroup
	wg.Add(2)
	for _, ino := range []uint64{7, 9} {
		ino := ino
		k.Go("commit", func(p *sim.Proc) {
			defer wg.Done()
			if got := m.CommitFile(p, ino); got != 3 {
				t.Errorf("commit ino %d flushed %d blocks, want 3", ino, got)
			}
		})
	}
	k.Go("waiter", func(p *sim.Proc) { wg.Wait(p) })
	k.Run()
	if m.DirtyBlocks() != 0 {
		t.Errorf("%d dirty blocks after commits", m.DirtyBlocks())
	}
	st := m.Sched().Stats()
	if st.Requests != 6 || st.Ops != 2 {
		t.Errorf("scheduler stats %+v", st)
	}
}
