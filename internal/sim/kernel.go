package sim

import (
	"fmt"
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
// Every schedule takes one seq whatever the event's form, so replacing a
// closure by the target it captured never changes the (at, seq) pop order.
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
	now     Time
	seq     uint64
	events  eventHeap
	parked  chan struct{} // a process signals here when it blocks or exits
	procs   map[*Proc]bool
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
}

// popEvent removes and returns the earliest event.
func (k *Kernel) popEvent() event {
	return k.events.pop()
}

// NewKernel returns a kernel whose deterministic random stream is seeded
// with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		parked:   make(chan struct{}),
		procs:    make(map[*Proc]bool),
		rng:      rand.New(rand.NewSource(seed)),
		injectCh: make(chan struct{}, 1),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

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

// schedule enqueues t to come due at time at. It may be called from the
// scheduler goroutine or from the currently running process.
func (k *Kernel) schedule(at Time, t Target) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	k.events.push(event{at: at, seq: k.seq, run: t})
}

// After schedules fn to run d from now in scheduler context. fn must not
// block; to start blocking work, use Go.
func (k *Kernel) After(d Duration, fn func()) {
	k.schedule(k.now.Add(d), closure(fn))
}

// AfterTarget schedules t to come due d from now: After for a caller that
// already holds the object its closure would capture.
func (k *Kernel) AfterTarget(d Duration, t Target) {
	k.schedule(k.now.Add(d), t)
}

// Go creates a new process named name and schedules it to start
// immediately. The process function runs in its own goroutine but under
// cooperative scheduling: it only executes while no other process does.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.GoAt(k.now, name, fn)
}

// GoAt is Go with an explicit start time.
func (k *Kernel) GoAt(at Time, name string, fn func(p *Proc)) *Proc {
	k.nextID++
	p := &Proc{
		k:      k,
		id:     k.nextID,
		name:   fmt.Sprintf("%s#%d", name, k.nextID),
		resume: make(chan struct{}),
	}
	k.procs[p] = true
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil && r != errKilled {
				panic(r)
			}
			delete(k.procs, p)
			p.dead = true
			k.running = nil
			k.parked <- struct{}{}
		}()
		if !p.killed {
			fn(p)
		}
	}()
	k.schedule(at, (*procWake)(p))
	return p
}

// switchTo transfers control to p and waits until p blocks or exits. It
// must be called from scheduler context (inside an event).
func (k *Kernel) switchTo(p *Proc) {
	if p.dead {
		return
	}
	k.running = p
	p.resume <- struct{}{}
	<-k.parked
}

// wake schedules p to resume at the current instant.
func (k *Kernel) wake(p *Proc) {
	k.schedule(k.now, (*procWake)(p))
}

// Run drives the simulation until no events remain or Stop is called.
// It returns the final virtual time. Any processes still blocked when the
// event queue drains are killed (their goroutines unwound) so a kernel
// never leaks goroutines.
func (k *Kernel) Run() Time {
	for len(k.events) > 0 && !k.stopped {
		e := k.events.pop()
		k.now = e.at
		e.run.Due()
	}
	k.killAll()
	return k.now
}

// RunUntil drives the simulation until virtual time t, no events remain,
// or Stop is called. Unlike Run it does not kill blocked processes, so the
// simulation can be resumed with further Run/RunUntil calls.
func (k *Kernel) RunUntil(t Time) Time {
	for len(k.events) > 0 && !k.stopped {
		if k.events[0].at > t {
			k.now = t
			return k.now
		}
		e := k.events.pop()
		k.now = e.at
		e.run.Due()
	}
	if k.now < t {
		k.now = t
	}
	return k.now
}

// Stop requests that the simulation end. It may be called from a process
// or an event; the kernel finishes the current step and Run returns after
// unwinding all remaining processes.
func (k *Kernel) Stop() { k.stopped = true }

// killAll unwinds every live process, in creation order. Called with
// scheduler in control. The order matters for determinism: unwinding
// runs each victim's deferred functions, and map iteration order would
// make any observable teardown effect (final flushes, log lines, trace
// events) vary run to run even under a fixed seed.
func (k *Kernel) killAll() {
	for len(k.procs) > 0 {
		victims := make([]*Proc, 0, len(k.procs))
		for p := range k.procs {
			if p != k.running {
				victims = append(victims, p)
			}
		}
		if len(victims) == 0 {
			return
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
		for _, victim := range victims {
			if victim.dead {
				continue
			}
			victim.killed = true
			// A process is either parked inside block() waiting on
			// p.resume, or has been scheduled to start but never ran. In
			// both cases resuming it lets the kill sentinel propagate.
			k.switchTo(victim)
		}
		// Unwinding may have spawned fresh processes; sweep again.
	}
}

// errKilled is the sentinel panic value used to unwind killed processes.
var errKilled = fmt.Errorf("sim: process killed")
