package sim

// Resource models a single FIFO server (a CPU, a disk arm) with tracked
// utilization. A process that calls Use queues behind earlier requests,
// occupies the resource for the given service time, and resumes when its
// service completes. Because requests are served in arrival order and the
// resource is work-conserving, queueing delay emerges naturally.
//
// Utilization is recorded as total busy time.
type Resource struct {
	k      *Kernel
	name   string
	freeAt Time // instant the resource finishes its current backlog

	// Busy accounting.
	busy Duration

	// The completions of Use and UseAsync. Each comes due at the freeAt
	// it set, and freeAt never goes back, so they wait in a lane.
	lane lane
}

// NewResource returns an idle resource named name.
func NewResource(k *Kernel, name string) *Resource {
	r := &Resource{k: k, name: name}
	r.lane.res = r
	return r
}

// occupy queues service time d behind the backlog and returns the instants
// the service starts and ends.
func (r *Resource) occupy(d Duration) (start, end Time) {
	if d < 0 {
		d = 0
	}
	start = max(r.k.now, r.freeAt)
	end = start.Add(d)
	r.freeAt = end
	r.busy += d
	return start, end
}

// Use occupies the resource for service time d, blocking p through any
// queueing delay plus the service itself. It returns the queueing delay
// experienced.
func (r *Resource) Use(p *Proc, d Duration) Duration {
	now := r.k.now
	start, end := r.occupy(d)
	r.k.push(&r.lane, end, (*procWake)(p))
	p.block()
	return start.Sub(now)
}

// UseAsync occupies the resource for service time d without blocking any
// process; it models work (such as a queued disk write) whose initiator
// does not wait. The completion instant is returned, and t (if non-nil)
// comes due at that instant.
func (r *Resource) UseAsync(d Duration, t Target) Time {
	_, end := r.occupy(d)
	if t != nil {
		r.k.push(&r.lane, end, t)
	}
	return end
}

// BusyTime returns the cumulative busy time, counting the queued service
// of the backlog as already done.
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
