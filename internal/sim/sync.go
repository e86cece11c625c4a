package sim

// Queue is an unbounded FIFO queue connecting simulation processes.
// Put never blocks; Get blocks the calling process until an item is
// available. Put may be called from scheduler context (inside an event,
// e.g. a network delivery) or from a running process.
type Queue[T any] struct {
	k       *Kernel
	items   []T
	waiters []*Proc
}

// NewQueue returns an empty queue bound to kernel k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	return &Queue[T]{k: k}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends v and wakes one waiting process, if any.
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		p := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.k.wake(p)
	}
}

// Get removes and returns the head item, blocking p until one exists.
func (q *Queue[T]) Get(p *Proc) T {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p)
		p.block()
	}
	v := q.items[0]
	q.items = q.items[1:]
	// If items remain and other processes are waiting, keep the chain of
	// wake-ups going (a Put wakes only one waiter).
	if len(q.items) > 0 && len(q.waiters) > 0 {
		next := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.k.wake(next)
	}
	return v
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Signal is a one-shot broadcast event: any number of processes wait until
// it fires. Firing an already-fired signal is a no-op. A fired Signal can
// carry an arbitrary value to its waiters (a fetched block, a run's
// result). It has no timed wait: the one waiter that needs a deadline, an
// RPC caller, keeps its wait in the call's own state (rpc.Pending, on
// Proc.Park) and allocates no signal.
type Signal struct {
	k       *Kernel
	fired   bool
	value   any
	waiters []*Proc
}

// NewSignal returns an unfired signal bound to kernel k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Fire marks the signal fired with value v and wakes all waiters.
func (s *Signal) Fire(v any) {
	if s.fired {
		return
	}
	s.fired = true
	s.value = v
	for _, p := range s.waiters {
		s.k.wake(p)
	}
	s.waiters = nil
}

// Wait blocks p until the signal fires, then returns the fired value.
func (s *Signal) Wait(p *Proc) any {
	for !s.fired {
		s.waiters = append(s.waiters, p)
		p.block()
	}
	return s.value
}

// Mutex is a mutual-exclusion lock for simulation processes. Unlike
// sync.Mutex it may be held across blocking operations (sleeps, RPCs);
// contending processes queue FIFO.
type Mutex struct {
	k       *Kernel
	holder  *Proc
	waiters []*Proc
}

// NewMutex returns an unlocked mutex bound to kernel k.
func NewMutex(k *Kernel) *Mutex { return &Mutex{k: k} }

// Lock acquires the mutex, blocking p until it is free.
func (m *Mutex) Lock(p *Proc) {
	for m.holder != nil {
		m.waiters = append(m.waiters, p)
		p.block()
	}
	m.holder = p
}

// Unlock releases the mutex and wakes the next waiter. It panics if the
// mutex is not held.
func (m *Mutex) Unlock() {
	if m.holder == nil {
		panic("sim: unlock of unlocked mutex")
	}
	m.holder = nil
	if len(m.waiters) > 0 {
		p := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.k.wake(p)
	}
}

// Semaphore is a counting semaphore for simulation processes.
type Semaphore struct {
	k       *Kernel
	cap     int
	count   int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(k *Kernel, n int) *Semaphore {
	return &Semaphore{k: k, cap: n, count: n}
}

// InUse reports how many permits are currently held.
func (s *Semaphore) InUse() int { return s.cap - s.count }

// Acquire takes one permit, blocking p until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.count == 0 {
		s.waiters = append(s.waiters, p)
		p.block()
	}
	s.count--
}

// TryAcquire takes a permit without blocking, reporting success.
func (s *Semaphore) TryAcquire() bool {
	if s.count == 0 {
		return false
	}
	s.count--
	return true
}

// Release returns one permit and wakes a waiter.
func (s *Semaphore) Release() {
	s.count++
	if len(s.waiters) > 0 {
		p := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.k.wake(p)
	}
}

// WaitGroup tracks a set of processes and lets another process wait for
// all of them to call Done.
type WaitGroup struct {
	k       *Kernel
	n       int
	waiters []*Proc
}

// NewWaitGroup returns a wait group with an initial count of n.
func NewWaitGroup(k *Kernel, n int) *WaitGroup {
	return &WaitGroup{k: k, n: n}
}

// Add increases the pending count by delta.
func (w *WaitGroup) Add(delta int) { w.n += delta }

// Done decrements the pending count, waking waiters when it reaches zero.
func (w *WaitGroup) Done() {
	w.n--
	if w.n < 0 {
		panic("sim: WaitGroup counter below zero")
	}
	if w.n == 0 {
		for _, p := range w.waiters {
			w.k.wake(p)
		}
		w.waiters = nil
	}
}

// Pending reports the current count.
func (w *WaitGroup) Pending() int { return w.n }

// Wait blocks p until the pending count reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n > 0 {
		w.waiters = append(w.waiters, p)
		p.block()
	}
}
