package disk

import (
	"testing"

	"spritelynfs/internal/sim"
)

func TestReadCost(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: 10 * sim.Millisecond, BytesPerSec: 1_000_000})
	var done sim.Time
	k.Go("reader", func(p *sim.Proc) {
		d.Read(p, 4096)
		done = p.Now()
	})
	k.Run()
	// 10ms access + 4096us transfer.
	want := sim.Time(10*sim.Millisecond + 4096*sim.Microsecond)
	if done != want {
		t.Errorf("read completed at %v, want %v", done, want)
	}
	s := d.Stats()
	if s.Reads != 1 || s.BytesRead != 4096 {
		t.Errorf("stats %+v", s)
	}
}

func TestWritesQueueOnArm(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: 10 * sim.Millisecond})
	var completions []sim.Time
	for i := 0; i < 3; i++ {
		k.Go("writer", func(p *sim.Proc) {
			d.Write(p, 512)
			completions = append(completions, p.Now())
		})
	}
	k.Run()
	want := []sim.Time{
		sim.Time(10 * sim.Millisecond),
		sim.Time(20 * sim.Millisecond),
		sim.Time(30 * sim.Millisecond),
	}
	for i := range want {
		if completions[i] != want[i] {
			t.Errorf("write %d at %v, want %v", i, completions[i], want[i])
		}
	}
}

// stamp records the instant it comes due.
type stamp struct {
	k  *sim.Kernel
	at sim.Time
}

func (s *stamp) Due() { s.at = s.k.Now() }

func TestWriteAsyncDoesNotBlock(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: 50 * sim.Millisecond})
	var callerAt sim.Time
	media := &stamp{k: k}
	k.Go("writer", func(p *sim.Proc) {
		d.WriteAsync(4096, media)
		callerAt = p.Now()
	})
	k.Run()
	if callerAt != 0 {
		t.Errorf("async write blocked the caller until %v", callerAt)
	}
	if media.at != sim.Time(50*sim.Millisecond) {
		t.Errorf("media write at %v, want 50ms", media.at)
	}
}

func TestAsyncThenSyncQueue(t *testing.T) {
	// A synchronous read issued while async writes occupy the arm must
	// wait behind them — the mechanism by which background write-back
	// delays foreground reads.
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: 10 * sim.Millisecond})
	var readDone sim.Time
	k.Go("mix", func(p *sim.Proc) {
		d.WriteAsync(0, nil)
		d.WriteAsync(0, nil)
		d.Read(p, 0)
		readDone = p.Now()
	})
	k.Run()
	if readDone != sim.Time(30*sim.Millisecond) {
		t.Errorf("read done at %v, want 30ms (behind two writes)", readDone)
	}
}

func TestRA81Parameters(t *testing.T) {
	p := RA81()
	if p.AccessTime != 28*sim.Millisecond || p.BytesPerSec != 2_200_000 {
		t.Errorf("RA81 params %+v changed", p)
	}
}

func TestUtilization(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: sim.Second})
	k.Go("w", func(p *sim.Proc) {
		d.Write(p, 0)
		p.Sleep(sim.Second) // idle second
	})
	k.Run()
	if u := d.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("utilization %f, want ~0.5", u)
	}
}

func TestQueueDelayStats(t *testing.T) {
	// Two back-to-back sync writes: the second waits a full service time.
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: 10 * sim.Millisecond})
	for i := 0; i < 2; i++ {
		k.Go("writer", func(p *sim.Proc) { d.Write(p, 0) })
	}
	k.Run()
	if got := d.Stats().QueueDelay; got != 10*sim.Millisecond {
		t.Errorf("sync queue delay %v, want 10ms", got)
	}
}

func TestQueueDelayAsyncStats(t *testing.T) {
	// Three async writes enqueued at t=0: delays 0, 10ms, 20ms.
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: 10 * sim.Millisecond})
	k.Go("writer", func(p *sim.Proc) {
		d.WriteAsync(0, nil)
		d.WriteAsync(0, nil)
		d.WriteAsync(0, nil)
	})
	k.Run()
	if got := d.Stats().QueueDelayAsync; got != 30*sim.Millisecond {
		t.Errorf("async queue delay %v, want 30ms", got)
	}
}

func TestSchedulerMergesAdjacentSameFile(t *testing.T) {
	// Six adjacent 4K blocks of one file: one arm op of 24K instead of six.
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: 10 * sim.Millisecond, BytesPerSec: 1 << 20})
	s := NewScheduler(d)
	for b := int64(0); b < 6; b++ {
		s.Enqueue(Req{Ino: 7, Block: b, Bytes: 4096})
	}
	if len(s.pending) != 6 {
		t.Fatalf("depth %d, want 6", len(s.pending))
	}
	var ops int
	k.Go("flusher", func(p *sim.Proc) { ops = s.FlushSync(p) })
	k.Run()
	if ops != 1 {
		t.Fatalf("flush issued %d ops, want 1", ops)
	}
	st := s.Stats()
	if st.Requests != 6 || st.Merged != 5 || st.Ops != 1 || st.Flushes != 1 || st.MaxDepth != 6 {
		t.Errorf("stats %+v", st)
	}
	if got := st.GatherRatio(); got != 6 {
		t.Errorf("gather ratio %f, want 6", got)
	}
	ds := d.Stats()
	if ds.Writes != 1 || ds.BytesWritten != 6*4096 {
		t.Errorf("disk stats %+v", ds)
	}
}

func TestSchedulerSplitsAcrossFilesAndGaps(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: 10 * sim.Millisecond})
	s := NewScheduler(d)
	// File 1 blocks 0,1 (one run); file 1 block 5 (gap → new run);
	// file 2 block 6 (different file → new run even though adjacent number).
	s.Enqueue(Req{Ino: 1, Block: 1, Bytes: 4096})
	s.Enqueue(Req{Ino: 2, Block: 6, Bytes: 4096})
	s.Enqueue(Req{Ino: 1, Block: 0, Bytes: 4096})
	s.Enqueue(Req{Ino: 1, Block: 5, Bytes: 4096})
	var ops int
	k.Go("flusher", func(p *sim.Proc) { ops = s.FlushSync(p) })
	k.Run()
	if ops != 3 {
		t.Errorf("flush issued %d ops, want 3", ops)
	}
	if st := s.Stats(); st.Merged != 1 {
		t.Errorf("merged %d, want 1", st.Merged)
	}
}

func TestSchedulerCollapsesDuplicateBlock(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: 10 * sim.Millisecond, BytesPerSec: 1 << 20})
	s := NewScheduler(d)
	s.Enqueue(Req{Ino: 3, Block: 2, Bytes: 1024})
	s.Enqueue(Req{Ino: 3, Block: 2, Bytes: 4096}) // rewrite, larger extent
	k.Go("flusher", func(p *sim.Proc) { s.FlushSync(p) })
	k.Run()
	if st := s.Stats(); st.Ops != 1 || st.Merged != 1 {
		t.Errorf("stats %+v", st)
	}
	if ds := d.Stats(); ds.BytesWritten != 4096 {
		t.Errorf("bytes written %d, want 4096 (duplicate collapsed)", ds.BytesWritten)
	}
}

func TestSchedulerFlushAsync(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: 10 * sim.Millisecond})
	s := NewScheduler(d)
	s.Enqueue(Req{Ino: 1, Block: 0, Bytes: 4096})
	s.Enqueue(Req{Ino: 1, Block: 1, Bytes: 4096})
	var callerAt sim.Time
	k.Go("flusher", func(p *sim.Proc) {
		if got := s.FlushAsync(); got != 1 {
			t.Errorf("async flush issued %d ops, want 1", got)
		}
		callerAt = p.Now()
	})
	k.Run()
	if callerAt != 0 {
		t.Errorf("async flush blocked the caller until %v", callerAt)
	}
	if len(s.pending) != 0 {
		t.Errorf("queue depth %d after flush", len(s.pending))
	}
}

func TestWriteBatchSweepPricing(t *testing.T) {
	// Three ops in one sorted sweep: the first pays full access, the
	// rest pay the sweep access. No transfer rate keeps the math exact.
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: 28 * sim.Millisecond, SweepAccessTime: 14 * sim.Millisecond})
	var done sim.Time
	k.Go("w", func(p *sim.Proc) {
		d.WriteBatch(p, []int{512, 512, 4096})
		done = p.Now()
	})
	k.Run()
	if want := 28*sim.Millisecond + 2*14*sim.Millisecond; done != sim.Time(0).Add(want) {
		t.Errorf("sweep of 3 took %v, want %v", done, want)
	}
	if st := d.Stats(); st.Writes != 3 || st.BytesWritten != 5120 {
		t.Errorf("stats %+v", st)
	}
}

func TestWriteBatchNoSweepAdvantage(t *testing.T) {
	// SweepAccessTime zero: a batch degenerates to independent writes.
	k := sim.NewKernel(1)
	d := New(k, "d0", Params{AccessTime: 10 * sim.Millisecond})
	var done sim.Time
	k.Go("w", func(p *sim.Proc) {
		d.WriteBatch(p, []int{512, 512})
		done = p.Now()
	})
	k.Run()
	if want := 20 * sim.Millisecond; done != sim.Time(0).Add(want) {
		t.Errorf("batch took %v, want %v", done, want)
	}
}
