package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"sync"
)

// A Target is the typed form of an event: an object its scheduler already
// owns — a pooled message in flight, a call's state — scheduled in place of
// a closure that would only capture it, so scheduling allocates nothing.
// The kernel calls Due in scheduler context at the instant the target was
// scheduled for; like a closure event it must not block. A target scheduled
// twice comes due twice: it tells the occasions apart by its own state.
type Target interface {
	Due()
}

// An event is what the kernel runs at a virtual instant: a Target. A
// closure is one (closure), a process to resume is one (procWake), and
// neither conversion allocates, both being pointer-shaped. Events run in
// the scheduler goroutine and must not block; to run blocking code, an
// event resumes a process (see switchTo).
//
// Every schedule takes one seq whatever the event's form and whichever
// structure holds it — the heap or a lane — so replacing a closure by the
// target it captured, or moving an event from the heap to a lane, never
// changes the (at, seq) pop order.
type event struct {
	at  Time
	seq uint64
	run Target
}

// closure is an event given as a func.
type closure func()

func (fn closure) Due() { fn() }

// procWake is a process standing as the event that resumes it. It is a
// type of its own so that Due is not a method of Proc.
type procWake Proc

func (w *procWake) Due() {
	p := (*Proc)(w)
	p.k.switchTo(p)
}

// Kernel is a discrete-event simulation scheduler. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now Time
	seq uint64

	// The event queue: a heap, and lanes beside it (see lane). Every
	// pending event is in exactly one of them; next pops the least.
	heap    eventHeap
	instant lane    // the same-instant lane
	fixed   []*lane // the fixed-delay lanes, one per delay, in order of first use
	lanes   []*lane // the non-empty lanes, in no order
	opened  int     // lanes that have held an event, read by this package's tests

	procs   map[*Proc]bool
	idle    []*coro // coroutines whose process exited, for GoAt to reuse
	stopped bool
	running *Proc // process currently executing, nil when scheduler runs
	rng     *rand.Rand
	nextID  int
	opSeq   uint64 // causal operation ID counter (see Proc.BeginOp)

	// Realtime-mode injection (see Inject / RunRealtime).
	injectMu sync.Mutex
	injected []func()
	injectCh chan struct{}
	turns    uint64 // RunRealtime loop turns, read by this package's tests

	onPark func(p *Proc) // see OnPark; nil but in tests
	work   KernelWork
}

// KernelWork counts the host work a kernel has done. For a fixed seed and
// tree each count is exact, as virtual time is, so a change that moves
// host work shows as a signed count where wall time would wander.
type KernelWork struct {
	Pops      int64 // events taken off the queue and run
	Switches  int64 // resumptions of a live process
	Spawns    int64 // processes created
	Cancelled int64 // events withdrawn before they came due (Cancel)
}

// Work returns the kernel's host-work counts so far.
func (k *Kernel) Work() KernelWork { return k.work }

// NewKernel returns a kernel whose deterministic random stream is seeded
// with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		procs:    make(map[*Proc]bool),
		rng:      rand.New(rand.NewSource(seed)),
		injectCh: make(chan struct{}, 1),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// OnPark makes fn run in every process the kernel resumes from a park,
// before it goes on: there fn may start another process and park to wait
// for it, so what that process does lands while the resumed one still
// waits. fn sees its own parks too. It is a test's instrument, nil
// otherwise, and a park then costs one nil check.
func (k *Kernel) OnPark(fn func(p *Proc)) { k.onPark = fn }

// Rand returns the kernel's deterministic random stream. It must only be
// used from simulation processes or events, never concurrently from outside
// the simulation.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// NewOpID mints the next causal operation ID. IDs start at 1 so that 0
// always means "no operation".
func (k *Kernel) NewOpID() uint64 {
	k.opSeq++
	return k.opSeq
}

// CurrentOp returns the causal operation ID of the currently running
// process, or 0 when the scheduler (or an untagged process) is in
// control. Code that observes protocol events from inside the simulation
// — the state-table observer, for example — uses this to attribute the
// event to the syscall that caused it.
func (k *Kernel) CurrentOp() uint64 {
	if k.running == nil {
		return 0
	}
	return k.running.op
}

// schedule enqueues t to come due at time at: in the same-instant lane
// if at is now (or past), in the heap otherwise. It may be called from the
// scheduler goroutine or from the currently running process.
func (k *Kernel) schedule(at Time, t Target) {
	if at <= k.now {
		k.push(&k.instant, k.now, t)
		return
	}
	k.seq++
	k.heap.push(event{at: at, seq: k.seq, run: t})
}

// After schedules fn to run d from now in scheduler context. fn must not
// block; to start blocking work, use Go.
func (k *Kernel) After(d Duration, fn func()) {
	k.schedule(k.now.Add(d), closure(fn))
}

// AfterFixed schedules t to come due d from now, in the kernel's lane for
// delay d, where a schedule costs O(1) instead of a heap sift, and so
// does withdrawing it by the Timer it returns (Cancel). d must be a
// constant of the caller's program — a configured propagation delay, a
// timeout — not a value drawn per call: the lane is in time order only
// because now + d never goes back, and each distinct d opens a lane that
// every later event pays to scan. A delay that varies goes to After.
func (k *Kernel) AfterFixed(d Duration, t Target) Timer {
	return k.push(k.fixedLane(d), k.now.Add(d), t)
}

// Go creates a new process named name and schedules it to start
// immediately. The process function runs on its own coroutine but under
// cooperative scheduling: it only executes while no other process does.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.GoAt(k.now, name, fn)
}

// GoAt is Go with an explicit start time.
func (k *Kernel) GoAt(at Time, name string, fn func(p *Proc)) *Proc {
	k.nextID++
	k.work.Spawns++
	p := &Proc{k: k, id: k.nextID, name: name}
	var c *coro
	if n := len(k.idle); n > 0 {
		c = k.idle[n-1]
		k.idle = k.idle[:n-1]
	} else {
		c = k.newCoro()
	}
	c.p, c.fn, p.co = p, fn, c
	k.procs[p] = true
	k.schedule(at, (*procWake)(p))
	return p
}

// A coro is a pooled runtime coroutine (iter.Pull) that processes run on.
// The scheduler enters it with next and a blocking process leaves it with
// yield: a process switch is a direct goroutine handoff, with no pass
// through the Go scheduler. A coroutine runs one process at a time; when
// the process exits, the coroutine parks on the kernel's idle list for the
// next GoAt, so a spawn costs the Proc alone once the pool is warm. The
// pool lives until killAll stops it at the end of Run.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc         // the process GoAt gave the coroutine to run next
	fn    func(p *Proc) // p's body
}

// newCoro makes a coroutine whose body runs processes until stopped.
func (k *Kernel) newCoro() *coro {
	c := new(coro)
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			p, fn := c.p, c.fn
			c.p, c.fn = nil, nil
			p.exec(fn)
			delete(k.procs, p)
			p.dead = true
			k.running = nil
			k.idle = append(k.idle, c)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// exec runs fn as p, unless p was killed before it started. The kill
// sentinel is recovered; any other panic is left to unwind the coroutine,
// and next re-raises it on the scheduler's goroutine, from Run.
func (p *Proc) exec(fn func(p *Proc)) {
	defer func() {
		if p.killed {
			if r := recover(); r != nil && r != errKilled {
				panic(r)
			}
		}
	}()
	if !p.killed {
		fn(p)
	}
}

// switchTo transfers control to p and waits until p blocks or exits. It
// must be called from scheduler context (inside an event).
func (k *Kernel) switchTo(p *Proc) {
	if p.dead {
		return
	}
	k.work.Switches++
	k.running = p
	p.co.next()
}

// wake schedules p to resume at the current instant.
func (k *Kernel) wake(p *Proc) {
	k.push(&k.instant, k.now, (*procWake)(p))
}

// Run drives the simulation until no events remain or Stop is called.
// It returns the final virtual time. Any processes still blocked when the
// event queue drains are killed (their stacks unwound) and the idle
// coroutines stopped, so a kernel never leaks goroutines. A panic in a
// process body surfaces from Run with its original value.
func (k *Kernel) Run() Time {
	for !k.stopped {
		e, ok := k.next(maxTime)
		if !ok {
			break
		}
		k.now = e.at
		e.run.Due()
	}
	k.killAll()
	return k.now
}

// Stop requests that the simulation end. It may be called from a process
// or an event; the kernel finishes the current step and Run returns after
// unwinding all remaining processes.
func (k *Kernel) Stop() { k.stopped = true }

// killAll unwinds every live process, in creation order, then stops the
// idle coroutines. Called with scheduler in control. The order matters
// for determinism: unwinding runs each victim's deferred functions, and
// map iteration order would make any observable teardown effect (final
// flushes, log lines, trace events) vary run to run even under a fixed
// seed.
func (k *Kernel) killAll() {
	for len(k.procs) > 0 {
		victims := make([]*Proc, 0, len(k.procs))
		for p := range k.procs {
			if p != k.running {
				victims = append(victims, p)
			}
		}
		if len(victims) == 0 {
			break
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
		for _, victim := range victims {
			if victim.dead {
				continue
			}
			victim.killed = true
			// A process is either parked inside block() or has been
			// scheduled to start but never ran. In both cases resuming it
			// lets the kill sentinel propagate.
			k.switchTo(victim)
		}
		// Unwinding may have spawned fresh processes; sweep again.
	}
	for _, c := range k.idle {
		c.stop()
	}
	clear(k.idle)
	k.idle = k.idle[:0]
}

// errKilled is the sentinel panic value used to unwind killed processes.
var errKilled = fmt.Errorf("sim: process killed")
