package sim

// Resource models a single FIFO server (a CPU, a disk arm) with tracked
// utilization. A process that calls Use queues behind earlier requests,
// occupies the resource for the given service time, and resumes when its
// service completes. Because requests are served in arrival order and the
// resource is work-conserving, queueing delay emerges naturally.
//
// Utilization is recorded as total busy time and, optionally, via a
// per-interval hook so callers can build time series (as the paper does
// for server CPU load in Figures 5-1 and 5-2).
type Resource struct {
	k      *Kernel
	name   string
	freeAt Time // instant the resource finishes its current backlog

	// Busy accounting.
	busy Duration

	// OnBusy, if set, is invoked once per service with the interval
	// during which the resource was occupied by that request.
	OnBusy func(start, end Time)
}

// NewResource returns an idle resource named name.
func NewResource(k *Kernel, name string) *Resource {
	return &Resource{k: k, name: name}
}

// Use occupies the resource for service time d, blocking p through any
// queueing delay plus the service itself. It returns the queueing delay
// experienced.
func (r *Resource) Use(p *Proc, d Duration) Duration {
	if d < 0 {
		d = 0
	}
	now := r.k.now
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	end := start.Add(d)
	r.freeAt = end
	r.busy += d
	if r.OnBusy != nil && d > 0 {
		r.OnBusy(start, end)
	}
	p.Sleep(end.Sub(now))
	return start.Sub(now)
}

// UseAsync occupies the resource for service time d without blocking any
// process; it models work (such as a queued disk write) whose initiator
// does not wait. The completion instant is returned, and fn (if non-nil)
// runs at that instant.
func (r *Resource) UseAsync(d Duration, fn func()) Time {
	if d < 0 {
		d = 0
	}
	start := r.k.now
	if r.freeAt > start {
		start = r.freeAt
	}
	end := start.Add(d)
	r.freeAt = end
	r.busy += d
	if r.OnBusy != nil && d > 0 {
		r.OnBusy(start, end)
	}
	if fn != nil {
		r.k.schedule(end, closure(fn))
	}
	return end
}

// BusyTime returns the cumulative busy time.
func (r *Resource) BusyTime() Duration { return r.busy }

// Utilization returns busy time as a fraction of the elapsed time since
// simulation start (zero if no time has passed).
func (r *Resource) Utilization() float64 {
	if r.k.now == 0 {
		return 0
	}
	return float64(r.busy) / float64(r.k.now)
}

// Backlog returns how far in the future the resource's current queue
// extends (zero if idle).
func (r *Resource) Backlog() Duration {
	if r.freeAt <= r.k.now {
		return 0
	}
	return r.freeAt.Sub(r.k.now)
}
