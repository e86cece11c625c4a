package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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
				new(Signal).Wait(p) // never fires
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
					new(Signal).Wait(p2)
				})
			}
		}()
		new(Signal).Wait(p)
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
	if ex2.Spawned() != 10 || len(ex2.idle) != 10 {
		t.Fatalf("concurrent burst: spawned %d, %d back on the free list, want 10/10", ex2.Spawned(), len(ex2.idle))
	}
}

// TestExecutorOpAttribution: the pooled process carries the submitted
// causal op ID for the duration of the closure and drops it after.
func TestExecutorOpAttribution(t *testing.T) {
	k := NewKernel(1)
	ex := NewExecutor(k, "t")
	op := k.NewOpID()
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
// a think timer is a closure or a typed target scheduled in its place.
func TestTaskDeterministicInterleave(t *testing.T) {
	run := func(typed func(c int) bool) []string {
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
					k.schedule(k.now.Add(think), timer)
				} else {
					k.After(think, timer.submit)
				}
			}
			step()
		}
		k.Run()
		return log
	}
	closures := func(int) bool { return false }
	a := run(closures)
	if len(a) != 32 {
		t.Fatalf("log length %d, want 32", len(a))
	}
	for name, b := range map[string][]string{
		"Run again":    run(closures),
		"targets":      run(func(int) bool { return true }),
		"some targets": run(func(c int) bool { return c%2 == 0 }),
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

// logTarget is a typed event that logs its id when it comes due.
type logTarget struct {
	log *[]int
	id  int
}

func (l *logTarget) Due() { *l.log = append(*l.log, l.id) }

// counter is a typed event that counts the times it comes due.
type counter int

func (c *counter) Due() { *c++ }

// TestQueueOrdering: the heap and the lanes beside it pop as one queue in
// exact (at, seq) order. A seeded random mix goes through every entry
// point — After now and later, AfterFixed at three delays, two resources'
// Use and UseAsync, Sleep, Unpark and Go — recording each event's (at,
// seq) as it is scheduled; the ids the events log as they run must come
// in the order of those records sorted, whether Run or RunRealtime drives
// the kernel. Delays are tens of microseconds, so the realtime run takes
// milliseconds of wall time and its late events pile up as due together.
func TestQueueOrdering(t *testing.T) {
	type record struct {
		at  Time
		seq uint64
		id  int
	}
	mix := func(drive func(k *Kernel, done chan struct{})) (want, got []int) {
		k := NewKernel(3)
		rng := rand.New(rand.NewSource(3))
		res := []*Resource{NewResource(k, "cpu"), NewResource(k, "disk")}
		fixed := []Duration{5 * Microsecond, 40 * Microsecond, 90 * Microsecond}
		var recs []record
		var parked []*Proc
		wakeID := map[*Proc]int{}
		done := make(chan struct{})
		// note records the next schedule, due at at, and returns its id.
		// Every schedule of the run is noted, so the run must end with
		// one seq taken per record.
		note := func(at Time) int {
			recs = append(recs, record{at, k.seq + 1, len(recs)})
			return len(recs) - 1
		}
		logged := func(id int) func() { return func() { got = append(got, id) } }
		start := note(0)
		k.Go("driver", func(p *Proc) {
			got = append(got, start)
			for i := 0; i < 3000; i++ {
				d := Duration(rng.Int63n(60)) * Microsecond
				now := k.now
				switch rng.Intn(11) {
				case 0:
					k.After(0, logged(note(now)))
				case 1:
					k.After(d, logged(note(now.Add(d))))
				case 2:
					f := fixed[rng.Intn(len(fixed))]
					k.AfterFixed(f, &logTarget{&got, note(now.Add(f))})
				case 3:
					r := res[rng.Intn(len(res))]
					r.UseAsync(d, &logTarget{&got, note(max(now, r.freeAt).Add(d))})
				case 4, 5: // a process that uses a resource, or sleeps
					r, use := res[rng.Intn(len(res))], rng.Intn(2) == 0
					id := note(now)
					k.Go("user", func(p *Proc) {
						got = append(got, id)
						if use {
							wake := note(max(p.Now(), r.freeAt).Add(d))
							r.Use(p, d)
							got = append(got, wake)
						} else {
							wake := note(p.Now().Add(d))
							p.Sleep(d)
							got = append(got, wake)
						}
					})
				case 6: // a process that parks, for a later Unpark
					id := note(now)
					k.Go("parker", func(p *Proc) {
						got = append(got, id)
						parked = append(parked, p)
						p.Park()
						got = append(got, wakeID[p])
					})
				case 7:
					if len(parked) > 0 {
						j := rng.Intn(len(parked))
						q := parked[j]
						parked = append(parked[:j], parked[j+1:]...)
						wakeID[q] = note(now)
						q.Unpark()
					}
				default: // the driver sleeps, and time moves
					wake := note(now.Add(d))
					p.Sleep(d)
					got = append(got, wake)
				}
			}
			// Outwait every backlog, then end the run.
			last := k.now
			for _, r := range recs {
				last = max(last, r.at)
			}
			wake := note(last.Add(Microsecond))
			p.Sleep(last.Sub(k.now) + Microsecond)
			got = append(got, wake)
			close(done)
		})
		drive(k, done)
		if k.seq != uint64(len(recs)) {
			t.Fatalf("%d schedules took %d seqs, want one each", len(recs), k.seq)
		}
		slices.SortFunc(recs, func(a, b record) int {
			if a.at != b.at {
				return cmp.Compare(a.at, b.at)
			}
			return cmp.Compare(a.seq, b.seq)
		})
		for _, r := range recs {
			want = append(want, r.id)
		}
		return want, got
	}
	for _, d := range []struct {
		name  string
		drive func(k *Kernel, done chan struct{})
	}{
		{"Run", func(k *Kernel, _ chan struct{}) { k.Run() }},
		{"RunRealtime", func(k *Kernel, done chan struct{}) {
			halt := realtime(k)
			<-done
			halt()
		}},
	} {
		want, got := mix(d.drive)
		if len(want) < 3000 {
			t.Fatalf("%s: %d events recorded: the mix did not run as written", d.name, len(want))
		}
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Errorf("%s: %d events ran, %d recorded; first divergence at %d", d.name, len(got), len(want), i)
		}
	}
}

// TestLanePushBackPanics: a lane holds events in time order only because
// its instants never go back, so a push that would go back panics, naming
// the lane and both instants. Only a bug can produce one; here the bug is
// staged by winding a resource's freeAt, and then the clock, backwards.
func TestLanePushBackPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		push func(k *Kernel, r *Resource)
		want string
	}{
		{"resource", func(k *Kernel, r *Resource) {
			r.UseAsync(10*Millisecond, closure(func() {}))
			r.freeAt = 0
			r.UseAsync(Millisecond, closure(func() {}))
		}, `sim: resource "disk" lane pushed back: an event at 0.001000s after one at 0.010000s`},
		{"fixed delay", func(k *Kernel, _ *Resource) {
			k.now = 5 * Time(Millisecond)
			k.AfterFixed(Millisecond, closure(func() {}))
			k.now = 0
			k.AfterFixed(Millisecond, closure(func() {}))
		}, `sim: fixed-delay 0.001000s lane pushed back: an event at 0.001000s after one at 0.006000s`},
	} {
		k := NewKernel(1)
		r := NewResource(k, "disk")
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != c.want {
					t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
				}
			}()
			c.push(k, r)
		}()
	}
}

// TestCancel: an event withdrawn from a fixed-delay lane never runs and
// is never popped, and every other event runs in the (at, seq) order it
// had. A driver pushes 150 events into a 100 µs lane, a microsecond apart,
// each beside one in a 30 µs lane and one in the heap, and withdraws some
// as it goes: at the lane's front, in its middle and at its back, across
// the ring's growths to 64 and 128 slots, a run behind the front that
// goes when the front does, and one that has already come due, which
// Cancel must refuse, as it must a second withdrawal or the zero Timer.
// The survivors must run as they did in a run that withdrew nothing.
func TestCancel(t *testing.T) {
	const n = 150
	plan := map[int][]struct {
		id   int
		want bool
	}{
		5:   {{0, true}, {3, true}, {5, true}},   // front, middle, back
		40:  {{1, true}, {10, true}, {20, true}}, // the front again, after two growths
		70:  {{40, true}, {69, true}},            // across the growth to 128
		120: {{15, false}, {60, true}, {3, false}, {-1, false}},
		149: {{51, true}, {52, true}, {50, true}}, // 50 is the front: 51 and 52 go with it
	}
	run := func(withdraw bool) (got []int, w KernelWork) {
		k := NewKernel(1)
		var timers [n]Timer
		k.Go("driver", func(p *Proc) {
			for i := 0; i < n; i++ {
				timers[i] = k.AfterFixed(100*Microsecond, &logTarget{&got, i})
				k.AfterFixed(30*Microsecond, &logTarget{&got, 1000 + i})
				k.After(Duration(i%7)*20*Microsecond, closure(func() { got = append(got, 2000+i) }))
				for _, c := range plan[i] {
					if !withdraw {
						continue
					}
					var tm Timer
					if c.id >= 0 {
						tm = timers[c.id]
					}
					if ok := k.Cancel(tm); ok != c.want {
						t.Errorf("at %v: Cancel of event %d = %v, want %v", p.Now(), c.id, ok, c.want)
					}
				}
				p.Sleep(Microsecond)
			}
		})
		k.Run()
		return got, k.Work()
	}
	all, w0 := run(false)
	got, w := run(true)
	var want []int
	withdrawn := map[int]bool{}
	for _, cs := range plan {
		for _, c := range cs {
			withdrawn[c.id] = withdrawn[c.id] || c.want
		}
	}
	for _, id := range all {
		if !withdrawn[id] {
			want = append(want, id)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("survivors ran out of order:\n got %v\nwant %v", got, want)
	}
	if cancelled := int64(len(all) - len(want)); w.Cancelled != cancelled || w.Pops != w0.Pops-cancelled {
		t.Errorf("%d withdrawn and %d popped, want %d and %d", w.Cancelled, w.Pops, cancelled, w0.Pops-cancelled)
	}

	// A lane whose one event is withdrawn leaves the set next scans.
	k := NewKernel(1)
	tm := k.AfterFixed(Second, closure(func() { t.Error("a withdrawn event ran") }))
	if !k.Cancel(tm) || len(k.lanes) != 0 || k.Cancel(tm) {
		t.Errorf("the one event withdrawn: %d lanes left non-empty", len(k.lanes))
	}
	if k.Run(); k.Now() != 0 || k.Work().Pops != 0 {
		t.Errorf("a kernel holding only a withdrawn event ran to %v, %d pops", k.Now(), k.Work().Pops)
	}
}

// TestWakeupsAllocateNothing holds what the typed event bought: putting a
// process to sleep, through a resource, waking it from a signal, handing
// a pre-bound job to an idle executor worker, and a target given to
// AfterFixed or UseAsync all schedule a pointer the kernel's caller
// already owns, so none of them allocates. A lane's ring grows on its
// first push, in AllocsPerRun's warm-up run, and never again here.
func TestWakeupsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const runs = 100
	k := NewKernel(1)
	res, ex := NewResource(k, "cpu"), NewExecutor(k, "x")
	// One parked waiter per signal, made ahead: a Signal is one-shot, and
	// its first Wait allocates the waiter list. The signals are zero
	// values in one array, as a signal embedded in its owner's state is.
	sigs := make([]Signal, runs+1) // AllocsPerRun warms up with one extra run
	woken := 0
	for i := range sigs {
		sig := &sigs[i]
		k.Go("waiter", func(p *Proc) {
			sig.Wait(p)
			woken++
			p.Sleep(3600 * Second)
		})
	}
	jobs := 0
	job := func(p *Proc) { jobs++; p.Sleep(Microsecond) }
	fired := new(counter)
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
			{"Kernel.AfterFixed", func() {
				k.AfterFixed(Microsecond, fired)
				p.Sleep(2 * Microsecond)
			}},
			{"Resource.UseAsync with a target", func() {
				res.UseAsync(Microsecond, fired)
				p.Sleep(2 * Microsecond)
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
	if len(measured) != 6 || woken != runs+1 || jobs != runs+2 || ex.Spawned() != 1 || *fired != 2*(runs+1) {
		t.Errorf("measured %d cases, woke %d of %d waiters, ran %d of %d jobs on %d workers, %d of %d targets came due: the cases did not run as written",
			len(measured), woken, runs+1, jobs, runs+2, ex.Spawned(), *fired, 2*(runs+1))
	}
}
