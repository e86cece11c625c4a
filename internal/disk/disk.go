// Package disk models a 1989-class disk (the paper's RA81/RA82 drives):
// a single arm with an average access time per operation plus a transfer
// time proportional to the bytes moved. Operations serialize FIFO on the
// arm, so a burst of synchronous NFS writes queues exactly the way it did
// on the paper's server.
package disk

import (
	"spritelynfs/internal/sim"
	"spritelynfs/internal/span"
)

// Params is the disk cost model.
type Params struct {
	// AccessTime is the average positioning cost (seek + rotational
	// latency) charged once per operation.
	AccessTime sim.Duration
	// BytesPerSec is the media transfer rate.
	BytesPerSec int64
	// SweepAccessTime is the positioning cost for operations issued as
	// part of a sorted batch (WriteBatch): after the first op of a
	// sweep the arm moves monotonically, paying roughly track-to-track
	// seek plus rotational latency instead of the random average. Zero
	// means no sweep advantage (every op pays AccessTime).
	SweepAccessTime sim.Duration
}

// RA81 returns parameters approximating the paper's server drives:
// ~28 ms average access, 2.2 MB/s transfer. Within a sorted sweep,
// track-to-track seek (~6 ms) plus half a rotation (8.3 ms at 3600 rpm)
// puts positioning near 14 ms.
func RA81() Params {
	return Params{
		AccessTime:      28 * sim.Millisecond,
		BytesPerSec:     2_200_000,
		SweepAccessTime: 14 * sim.Millisecond,
	}
}

// Stats counts disk activity.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64

	// QueueDelay is the cumulative time blocking operations (Read, Write)
	// spent waiting behind the arm's backlog before service began.
	QueueDelay sim.Duration
	// QueueDelayAsync is the same for WriteAsync operations: the gap
	// between enqueue and service start. Before this was tracked only
	// busy-time was visible, so a gather win (fewer ops, shorter queues)
	// could not be attributed to reduced queueing.
	QueueDelayAsync sim.Duration
}

// Disk is a simulated drive.
type Disk struct {
	k     *sim.Kernel
	name  string
	res   *sim.Resource
	p     Params
	stats Stats
	// Spans, when set, records per-operation queue-wait and arm-time
	// spans for every blocking disk operation (WriteAsync has no waiting
	// process, so its arm time appears only in the busy-time gauge).
	Spans *span.Recorder
}

// New returns a disk named name on kernel k.
func New(k *sim.Kernel, name string, p Params) *Disk {
	return &Disk{k: k, name: name, res: sim.NewResource(k, name), p: p}
}

// Stats returns a snapshot of operation counters.
func (d *Disk) Stats() Stats { return d.stats }

// Utilization reports the fraction of elapsed time the arm was busy.
func (d *Disk) Utilization() float64 { return d.res.Utilization() }

// BusyTime reports cumulative arm busy time.
func (d *Disk) BusyTime() sim.Duration { return d.res.BusyTime() }

// Backlog reports how far the arm's queued work extends past now.
func (d *Disk) Backlog() sim.Duration { return d.res.Backlog() }

func (d *Disk) opCost(bytes int) sim.Duration {
	c := d.p.AccessTime
	if d.p.BytesPerSec > 0 {
		c += sim.Duration(int64(bytes) * int64(sim.Second) / d.p.BytesPerSec)
	}
	return c
}

// Read blocks p for a read of n bytes (queueing plus access plus transfer).
func (d *Disk) Read(p *sim.Proc, n int) {
	d.stats.Reads++
	d.stats.BytesRead += int64(n)
	t0 := d.k.Now()
	qd := d.res.Use(p, d.opCost(n))
	d.stats.QueueDelay += qd
	d.span(p, "read", t0, qd)
}

// Write blocks p for a synchronous write of n bytes.
func (d *Disk) Write(p *sim.Proc, n int) {
	d.stats.Writes++
	d.stats.BytesWritten += int64(n)
	t0 := d.k.Now()
	qd := d.res.Use(p, d.opCost(n))
	d.stats.QueueDelay += qd
	d.span(p, "write", t0, qd)
}

// span splits a completed blocking operation that started at t0 and
// waited qd into its queue-delay and arm-time spans.
func (d *Disk) span(p *sim.Proc, name string, t0 sim.Time, qd sim.Duration) {
	if d.Spans == nil {
		return
	}
	d.Spans.Add(p, d.name, span.DiskQueue, name, t0, t0.Add(qd))
	d.Spans.Add(p, d.name, span.DiskArm, name, t0.Add(qd), d.k.Now())
}

// WriteBatch blocks p for one sorted sweep over sizes: the first
// operation pays the full average access, the rest pay SweepAccessTime
// (the arm is already moving in order). Every operation still pays its
// own transfer time. With SweepAccessTime zero this degenerates to
// len(sizes) independent writes.
func (d *Disk) WriteBatch(p *sim.Proc, sizes []int) {
	if len(sizes) == 0 {
		return
	}
	var total sim.Duration
	for i, n := range sizes {
		c := d.opCost(n)
		if i > 0 && d.p.SweepAccessTime > 0 {
			c += d.p.SweepAccessTime - d.p.AccessTime
		}
		total += c
		d.stats.Writes++
		d.stats.BytesWritten += int64(n)
	}
	t0 := d.k.Now()
	qd := d.res.Use(p, total)
	d.stats.QueueDelay += qd
	d.span(p, "batch", t0, qd)
}

// WriteAsync queues a write of n bytes without blocking anyone (a delayed
// write being flushed in the background). done, if non-nil, comes due
// when the write reaches the media.
func (d *Disk) WriteAsync(n int, done sim.Target) {
	d.stats.Writes++
	d.stats.BytesWritten += int64(n)
	d.stats.QueueDelayAsync += d.res.Backlog()
	d.res.UseAsync(d.opCost(n), done)
}
