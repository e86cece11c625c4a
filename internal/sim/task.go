package sim

import "fmt"

// Task is the lightweight sibling of Proc: a state-machine thread of
// control that lives entirely on the kernel's event heap and never
// parks a goroutine. A blocked Proc holds a coroutine, and a coroutine
// is a goroutine with a stack; a Task costs one struct, so a world can
// hold thousands of concurrent clients whose idle time — think time
// between requests, backoff, polling intervals — is just a scheduled
// callback. When a task must run blocking protocol code (a file op
// that sleeps through RPCs and disk), it borrows a pooled process from
// an Executor for exactly the blocking section.
//
// Task callbacks run in scheduler context: they must not block, exactly
// like events scheduled with Kernel.After.
type Task struct {
	k    *Kernel
	name string
	op   uint64
}

// NewTask returns a task handle named name. Creating a task schedules
// nothing; it is purely an identity for attribution and scheduling.
func (k *Kernel) NewTask(name string) *Task {
	return &Task{k: k, name: name}
}

// BeginOp mints a fresh causal operation ID at a logical operation
// boundary, mirroring Proc.BeginOp. Work the task hands to an Executor
// inherits the ID.
func (t *Task) BeginOp() uint64 {
	t.op = t.k.NewOpID()
	return t.op
}

// After schedules fn to run d from now. fn runs in scheduler context and
// must not block; blocking work goes through an Executor.
func (t *Task) After(d Duration, fn func()) {
	t.k.After(d, fn)
}

// Executor runs blocking closures on a pool of reusable simulation
// processes. It is the bridge between state-machine tasks and the
// blocking protocol stack: a task submits a closure, the executor wakes
// an idle pooled process (or spawns one if none is idle) at the current
// virtual instant, and when the closure returns the process parks back
// on the free list and the task's completion callback runs.
//
// The pool never queues work, so submission adds no modeled latency:
// the goroutine count is bounded by the maximum number of
// *concurrently blocked* closures, not by the number of tasks — the
// quantity that stays small when think time dominates. The kernel
// pools the coroutines under its processes too, but only those whose
// process has exited; a worker keeps its process, so a submission to
// an idle worker spawns nothing. The free list is LIFO and all
// hand-offs go through the event heap, so scheduling is deterministic.
//
// Handing a job to an idle worker allocates nothing: the worker is woken
// by a typed event, not a closure. What a submission costs the host is
// therefore what its caller builds for it, and a caller on a hot path
// builds nothing per job — it binds job and done once and keeps what
// varies (an RPC endpoint's accepted call, say) in a queue of its own
// that the job reads when it starts. Jobs start in Submit order.
type Executor struct {
	k       *Kernel
	name    string
	idle    []*execWorker
	spawned int // workers ever created (the goroutine high-water mark)
	active  int // closures currently running or blocked
}

type execWorker struct {
	p    *Proc
	job  func(p *Proc)
	done func()
	op   uint64
}

// NewExecutor returns an empty pool on kernel k. name prefixes the pooled
// processes' trace names.
func NewExecutor(k *Kernel, name string) *Executor {
	return &Executor{k: k, name: name}
}

// Spawned reports how many pooled processes exist — the executor's
// goroutine footprint, equal to the peak concurrency ever reached.
func (ex *Executor) Spawned() int { return ex.spawned }

// Active reports the closures currently running or blocked.
func (ex *Executor) Active() int { return ex.active }

// Submit runs job on a pooled process at the current virtual instant,
// tagged with causal operation ID op (0 for none). When job returns,
// done (if non-nil) runs in the completing process's context at the
// completion instant; it must not block — it is where a state-machine
// task schedules its next step. Submit may be called from scheduler
// context (an event or task callback) or from a running process.
func (ex *Executor) Submit(op uint64, job func(p *Proc), done func()) {
	ex.active++
	if n := len(ex.idle); n > 0 {
		w := ex.idle[n-1]
		ex.idle = ex.idle[:n-1]
		w.job, w.done, w.op = job, done, op
		ex.k.wake(w.p)
		return
	}
	ex.spawned++
	w := &execWorker{job: job, done: done, op: op}
	ex.k.Go(fmt.Sprintf("%s-exec%d", ex.name, ex.spawned), func(p *Proc) {
		w.p = p
		w.run(ex)
	})
}

// run is the pooled process's service loop: run the assigned closure,
// fire the completion callback, park on the free list until the next
// Submit. Parked workers are reclaimed by the kernel's normal teardown.
func (w *execWorker) run(ex *Executor) {
	p := w.p
	for {
		p.SetOp(w.op)
		w.job(p)
		p.SetOp(0)
		w.job = nil
		done := w.done
		w.done = nil
		ex.active--
		// Park on the free list before firing the completion callback,
		// so a done() that immediately submits again reuses this worker
		// (the wake arrives after the block below — hand-offs stay on
		// the event heap).
		ex.idle = append(ex.idle, w)
		if done != nil {
			done()
		}
		p.block()
	}
}
