package sim

import "fmt"

// Executor runs blocking closures on a pool of reusable simulation
// processes. It is the bridge between the blocking protocol stack and a
// state-machine client, one that lives in the event queue (its think
// time, backoff and polling are Kernel.After callbacks) and so holds no
// process while idle: the client submits a closure, the executor wakes
// an idle pooled process (or spawns one if none is idle) at the current
// virtual instant, and when the closure returns the process parks back
// on the free list and the client's completion callback runs.
//
// The pool never queues work, so submission adds no modeled latency:
// the goroutine count is bounded by the maximum number of
// *concurrently blocked* closures, not by the number of clients — the
// quantity that stays small when think time dominates. The kernel
// pools the coroutines under its processes too, but only those whose
// process has exited; a worker keeps its process, so a submission to
// an idle worker spawns nothing. The free list is LIFO and all
// hand-offs go through the event queue, so scheduling is deterministic.
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
	spawned int   // workers ever created (the goroutine high-water mark)
	submits int64 // closures ever submitted
}

// ExecutorWork counts the host work an executor has done (see KernelWork).
type ExecutorWork struct {
	Submits int64 // closures submitted
}

// Work returns the executor's host-work counts so far.
func (ex *Executor) Work() ExecutorWork { return ExecutorWork{Submits: ex.submits} }

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

// Submit runs job on a pooled process at the current virtual instant,
// tagged with causal operation ID op (0 for none). When job returns,
// done (if non-nil) runs in the completing process's context at the
// completion instant; it must not block — it is where a state-machine
// client schedules its next step. Submit may be called from scheduler
// context (an event callback) or from a running process.
func (ex *Executor) Submit(op uint64, job func(p *Proc), done func()) {
	ex.submits++
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
		// Park on the free list before firing the completion callback,
		// so a done() that immediately submits again reuses this worker
		// (the wake arrives after the block below — hand-offs stay in
		// the event queue).
		ex.idle = append(ex.idle, w)
		if done != nil {
			done()
		}
		p.block()
	}
}
