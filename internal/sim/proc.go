package sim

import "strconv"

// Proc is a simulation process: a cooperative thread of control scheduled
// by a Kernel. A Proc also satisfies the Ctx interface used by protocol
// code that runs both under simulation and in real time.
type Proc struct {
	k      *Kernel
	id     int    // creation sequence (drives deterministic teardown order)
	name   string // as given to Go; Name adds the id
	co     *coro  // the coroutine the process runs on
	killed bool
	dead   bool
	op     uint64 // causal operation ID (0 = none)
}

// Name returns the process's unique name, name#id, for tracing. It is
// formatted on demand, so spawning a process formats nothing.
func (p *Proc) Name() string { return p.name + "#" + strconv.Itoa(p.id) }

// Op returns the causal operation ID the process is currently working on
// behalf of, or 0 if none has been assigned.
func (p *Proc) Op() uint64 { return p.op }

// SetOp tags the process with an existing causal operation ID — used when
// a server worker or callback handler picks up a request that carries an
// op minted elsewhere.
func (p *Proc) SetOp(op uint64) { p.op = op }

// BeginOp mints a fresh causal operation ID at a syscall boundary and
// tags the process with it. Everything the process does until the next
// BeginOp — RPCs, server work, callback fan-out, flushes those callbacks
// trigger — inherits the ID, so one logical operation renders as a single
// causal chain in traces and the audit journal.
func (p *Proc) BeginOp() uint64 {
	p.op = p.k.NewOpID()
	return p.op
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// block parks the process until the kernel resumes it. The caller must
// have arranged for a wake-up (a scheduled event or registration on a wait
// list) before calling block. Every park of every process comes here, and
// so does the kernel's park hook (OnPark).
func (p *Proc) block() {
	p.k.running = nil
	p.co.yield(struct{}{})
	if p.killed {
		panic(errKilled)
	}
	if p.k.onPark != nil {
		p.k.onPark(p)
	}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.k.schedule(p.k.now.Add(d), (*procWake)(p))
	p.block()
}

// Park blocks the process until Unpark. Park and Unpark are what this
// package's own Queue, Signal and Mutex are built from (block and wake),
// exported for a wait object that lives in another package and keeps its
// waiter in a field of its own — an RPC's call state. The caller must have
// recorded p where whoever ends the wait will find it, and rechecks its
// condition when Park returns.
func (p *Proc) Park() { p.block() }

// Unpark schedules a parked process to resume at the current instant. It
// may be called from scheduler context or from a running process, once per
// Park.
func (p *Proc) Unpark() { p.k.wake(p) }
