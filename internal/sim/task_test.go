package sim

import (
	"fmt"
	"testing"
)

// TestKillAllCreationOrder pins teardown determinism: processes still
// blocked when the event queue drains are unwound in creation order, not
// map-iteration order.
func TestKillAllCreationOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		k := NewKernel(1)
		var order []int
		for i := 0; i < 16; i++ {
			i := i
			k.Go(fmt.Sprintf("blocked%d", i), func(p *Proc) {
				defer func() { order = append(order, i) }()
				NewSignal(k).Wait(p) // never fires
			})
		}
		k.Run()
		if len(order) != 16 {
			t.Fatalf("trial %d: unwound %d of 16 procs", trial, len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("trial %d: teardown order %v, want creation order", trial, order)
			}
		}
	}
}

// TestKillAllSpawnsDuringTeardown: a defer that spawns a new process
// while unwinding must not leak it — the sweep repeats until quiescent.
func TestKillAllSpawnsDuringTeardown(t *testing.T) {
	k := NewKernel(1)
	respawned := false
	k.Go("original", func(p *Proc) {
		defer func() {
			if !respawned {
				respawned = true
				k.Go("respawn", func(p2 *Proc) {
					NewSignal(k).Wait(p2)
				})
			}
		}()
		NewSignal(k).Wait(p)
	})
	k.Run()
	if len(k.procs) != 0 {
		t.Fatalf("teardown left %d live procs", len(k.procs))
	}
}

// TestExecutorRunsAndCompletes: a submitted closure runs with blocking
// allowed, and the completion callback fires at the closure's finish
// instant.
func TestExecutorRunsAndCompletes(t *testing.T) {
	k := NewKernel(1)
	ex := NewExecutor(k, "t")
	var doneAt Time
	ran := false
	ex.Submit(0, func(p *Proc) {
		p.Sleep(5 * Millisecond)
		ran = true
	}, func() { doneAt = k.Now() })
	k.Run()
	if !ran {
		t.Fatal("closure never ran")
	}
	if doneAt != Time(5*Millisecond) {
		t.Fatalf("done at %v, want 5ms", doneAt)
	}
}

// TestExecutorReusesWorkers: sequential submissions share one pooled
// process; only true concurrency spawns more.
func TestExecutorReusesWorkers(t *testing.T) {
	k := NewKernel(1)
	ex := NewExecutor(k, "t")
	n := 0
	var next func()
	next = func() {
		if n >= 10 {
			return
		}
		n++
		ex.Submit(0, func(p *Proc) { p.Sleep(Millisecond) }, next)
	}
	next()
	k.Run()
	if n != 10 {
		t.Fatalf("ran %d jobs, want 10", n)
	}
	if ex.Spawned() != 1 {
		t.Fatalf("sequential chain spawned %d workers, want 1", ex.Spawned())
	}

	// Ten concurrent jobs need ten workers.
	k2 := NewKernel(1)
	ex2 := NewExecutor(k2, "t")
	for i := 0; i < 10; i++ {
		ex2.Submit(0, func(p *Proc) { p.Sleep(Millisecond) }, nil)
	}
	k2.Run()
	if ex2.Spawned() != 10 || ex2.Peak() != 10 {
		t.Fatalf("concurrent burst: spawned %d peak %d, want 10/10", ex2.Spawned(), ex2.Peak())
	}
}

// TestExecutorOpAttribution: the pooled process carries the submitted
// causal op ID for the duration of the closure and drops it after.
func TestExecutorOpAttribution(t *testing.T) {
	k := NewKernel(1)
	ex := NewExecutor(k, "t")
	task := k.NewTask("client")
	op := task.BeginOp()
	var seen uint64
	ex.Submit(op, func(p *Proc) {
		seen = p.Op()
		p.Sleep(Millisecond)
	}, nil)
	k.Run()
	if seen != op {
		t.Fatalf("closure saw op %d, want %d", seen, op)
	}
}

// thinkTimer is a client's think time as a typed event: it submits the
// client's next job when it comes due.
type thinkTimer struct{ submit func() }

func (t *thinkTimer) Due() { t.submit() }

// TestTaskDeterministicInterleave: kernels running the same mix of task
// callbacks, typed timers and executor jobs produce identical event
// interleavings (observed through a log of (time, label) pairs), whether
// driven by Run or stepped through the same span by RunUntil, and whether
// a think timer is a closure or the typed target that replaces it.
func TestTaskDeterministicInterleave(t *testing.T) {
	run := func(drive func(k *Kernel), typed func(c int) bool) []string {
		k := NewKernel(7)
		ex := NewExecutor(k, "t")
		var log []string
		for c := 0; c < 8; c++ {
			c := c
			steps := 0
			var step func()
			job := func(p *Proc) { p.Sleep(Duration(1+c) * Millisecond) }
			done := func() {
				log = append(log, fmt.Sprintf("%d:%d@%d", c, steps, k.Now()))
				steps++
				if steps < 4 {
					step()
				}
			}
			timer := &thinkTimer{submit: func() { ex.Submit(0, job, done) }}
			step = func() {
				think := Duration(k.Rand().Int63n(int64(10 * Millisecond)))
				if typed(c) {
					k.AfterTarget(think, timer)
				} else {
					k.After(think, timer.submit)
				}
			}
			step()
		}
		drive(k)
		return log
	}
	byRun := func(k *Kernel) { k.Run() }
	byRunUntil := func(k *Kernel) {
		for step := Time(0); step < Time(Second); step += Time(700 * Microsecond) {
			k.RunUntil(step)
		}
	}
	closures := func(int) bool { return false }
	a := run(byRun, closures)
	if len(a) != 32 {
		t.Fatalf("log length %d, want 32", len(a))
	}
	for name, b := range map[string][]string{
		"Run again":         run(byRun, closures),
		"RunUntil":          run(byRunUntil, closures),
		"targets":           run(byRun, func(int) bool { return true }),
		"targets, RunUntil": run(byRunUntil, func(c int) bool { return c%2 == 0 }),
	} {
		if len(b) != len(a) {
			t.Fatalf("%s: log length %d, want %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: interleaving diverged at %d: %s vs %s", name, i, a[i], b[i])
			}
		}
	}
}

// TestHeapOrdering: the typed 4-ary heap pops in exact (time, seq) order
// across a large randomized fill/drain mix.
func TestHeapOrdering(t *testing.T) {
	k := NewKernel(3)
	var h eventHeap
	seq := uint64(0)
	for i := 0; i < 5000; i++ {
		seq++
		h.push(event{at: Time(k.rng.Int63n(1000)), seq: seq})
		if i%3 == 2 {
			h.pop()
		}
	}
	var prev event
	first := true
	for len(h) > 0 {
		e := h.pop()
		if !first {
			if e.at < prev.at || (e.at == prev.at && e.seq < prev.seq) {
				t.Fatalf("pop order violated: (%d,%d) after (%d,%d)", e.at, e.seq, prev.at, prev.seq)
			}
		}
		prev, first = e, false
	}
}

// TestWakeupsAllocateNothing holds what the typed event bought: putting a
// process to sleep, through a resource, waking it from a signal, and
// handing a pre-bound job to an idle executor worker all schedule a
// pointer the kernel's caller already owns, so none of them allocates.
func TestWakeupsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const runs = 100
	k := NewKernel(1)
	res, ex := NewResource(k, "cpu"), NewExecutor(k, "x")
	// One parked waiter per signal, made ahead: a Signal is one-shot, and
	// its first Wait allocates the waiter list.
	sigs := make([]*Signal, runs+1) // AllocsPerRun warms up with one extra run
	woken := 0
	for i := range sigs {
		sig := NewSignal(k)
		sigs[i] = sig
		k.Go("waiter", func(p *Proc) {
			sig.Wait(p)
			woken++
			p.Sleep(3600 * Second)
		})
	}
	jobs := 0
	job := func(p *Proc) { jobs++; p.Sleep(Microsecond) }
	measured := map[string]float64{}
	k.Go("driver", func(p *Proc) {
		defer k.Stop()
		p.Sleep(Microsecond) // the waiters park, a first job leaves its worker idle
		ex.Submit(0, job, nil)
		p.Sleep(Millisecond)
		next := 0
		for _, c := range []struct {
			name string
			op   func()
		}{
			{"Proc.Sleep", func() { p.Sleep(Microsecond) }},
			{"Resource.Use", func() { res.Use(p, Microsecond) }},
			{"Signal.Fire and the wake", func() {
				sigs[next].Fire(nil)
				next++
				p.Sleep(Microsecond) // the waiter runs, and sleeps in its turn
			}},
			{"Executor.Submit onto an idle worker", func() {
				ex.Submit(0, job, nil)
				p.Sleep(Millisecond) // the job runs and its worker parks again
			}},
		} {
			measured[c.name] = testing.AllocsPerRun(runs, c.op)
		}
	})
	k.Run()
	for name, allocs := range measured {
		if allocs != 0 {
			t.Errorf("%s allocates %v objects, want 0", name, allocs)
		}
	}
	if len(measured) != 4 || woken != runs+1 || jobs != runs+2 || ex.Spawned() != 1 {
		t.Errorf("measured %d cases, woke %d of %d waiters, ran %d of %d jobs on %d workers: the cases did not run as written",
			len(measured), woken, runs+1, jobs, runs+2, ex.Spawned())
	}
}
