package sim

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Second)
		woke = p.Now()
	})
	end := k.Run()
	if woke != Time(5*Second) {
		t.Errorf("woke at %v, want 5s", woke)
	}
	if end != Time(5*Second) {
		t.Errorf("simulation ended at %v, want 5s", end)
	}
}

// noteTarget is a typed event that logs its name.
type noteTarget struct {
	log  *[]string
	name string
}

func (n *noteTarget) Due() { *n.log = append(*n.log, n.name) }

func TestEventOrderingIsDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel(42)
		var order []string
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("p%d", i)
			d := Duration(i%3) * Millisecond
			k.Go(name, func(p *Proc) {
				p.Sleep(d)
				order = append(order, name)
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 5 {
		t.Fatalf("got %d completions, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order: %v vs %v", a, b)
		}
	}
	// Same sleep => FIFO by creation order; shorter sleeps first.
	want := []string{"p0", "p3", "p1", "p4", "p2"}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("order %v, want %v", a, want)
		}
	}

	// Every form an event takes — closure, typed target, process start,
	// sleep, and each kind of wake — scheduled for one instant runs in
	// the order it was scheduled, whichever loop drives the kernel: a
	// schedule takes one seq whatever it schedules.
	const at = 5 * Millisecond
	mixed := func(drive func(k *Kernel, done chan struct{})) []string {
		k := NewKernel(1)
		var order []string
		note := func(name string) func() { return func() { order = append(order, name) } }
		var sig Signal
		var wg WaitGroup
		wg.Add(1)
		q, mu := NewQueue[int](k), NewMutex(k)
		res, ex := NewResource(k, "r"), NewExecutor(k, "x")
		done := make(chan struct{})
		var parked *Proc
		k.Go("holder", func(p *Proc) { // parks every waiter below before the instant
			mu.Lock(p)
			k.Go("signal", func(p *Proc) { sig.Wait(p); note("signal")() })
			k.Go("queue", func(p *Proc) { q.Get(p); note("queue")() })
			k.Go("waitgroup", func(p *Proc) { wg.Wait(p); note("waitgroup")() })
			k.Go("mutex", func(p *Proc) { mu.Lock(p); note("mutex")() })
			k.Go("park", func(p *Proc) { parked = p; p.Park(); note("park")() })
			k.Go("sleep", func(p *Proc) { p.Sleep(at); note("sleep")() })
			k.Go("use", func(p *Proc) { res.Use(p, at); note("use")() })
			ex.Submit(0, func(p *Proc) {}, nil) // leaves an idle worker behind
			p.Sleep(at)
			// The instant. "sleep" and "use" are already scheduled
			// for it, so they come first; the rest follow in the
			// order of the lines below.
			k.After(0, note("closure"))
			k.AfterTarget(0, &noteTarget{&order, "target"})
			sig.Fire(nil)
			k.Go("start", func(p *Proc) { note("start")() })
			q.Put(1)
			res.UseAsync(0, note("async"))
			wg.Done()
			ex.Submit(0, func(p *Proc) { note("job")() }, nil)
			mu.Unlock()
			parked.Unpark()
			k.After(0, note("closure2"))
			k.After(Millisecond, func() { close(done) })
		})
		drive(k, done)
		return order
	}
	want = []string{"sleep", "use", "closure", "target", "signal", "start", "queue", "async",
		"waitgroup", "job", "mutex", "park", "closure2"}
	drivers := []struct {
		name  string
		drive func(k *Kernel, done chan struct{})
	}{
		{"Run", func(k *Kernel, _ chan struct{}) { k.Run() }},
		{"RunUntil", func(k *Kernel, _ chan struct{}) {
			for step := Time(0); step <= Time(at+Millisecond); step += Time(Millisecond / 2) {
				k.RunUntil(step)
			}
		}},
		{"RunRealtime", func(k *Kernel, done chan struct{}) {
			halt := realtime(k)
			<-done
			halt()
		}},
	}
	for _, d := range drivers {
		if got := mixed(d.drive); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: same-instant order %v, want %v", d.name, got, want)
		}
	}
}

func TestQueueBlocksAndWakes(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var got []int
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(Millisecond)
			q.Put(i * 10)
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("got %v, want [10 20 30]", got)
	}
}

func TestQueueMultipleWaitersFIFO(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var order []int
	for i := 0; i < 3; i++ {
		id := i
		k.Go("w", func(p *Proc) {
			p.Sleep(Duration(id) * Microsecond) // stagger arrival
			v := q.Get(p)
			order = append(order, id*100+v)
		})
	}
	k.Go("put", func(p *Proc) {
		p.Sleep(Millisecond)
		q.Put(1)
		q.Put(2)
		q.Put(3)
	})
	k.Run()
	if len(order) != 3 {
		t.Fatalf("only %d waiters served: %v", len(order), order)
	}
	// Waiters are served in arrival order.
	want := []int{1, 102, 203}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel(1)
	s := new(Signal)
	woken := 0
	for i := 0; i < 4; i++ {
		k.Go("w", func(p *Proc) {
			v := s.Wait(p)
			if v.(string) != "go" {
				t.Errorf("signal value %v", v)
			}
			woken++
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(Second)
		s.Fire("go")
	})
	k.Run()
	if woken != 4 {
		t.Errorf("woke %d waiters, want 4", woken)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	k := NewKernel(1)
	m := NewMutex(k)
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		k.Go("locker", func(p *Proc) {
			m.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(Millisecond) // hold across a blocking op
			inside--
			m.Unlock()
		})
	}
	k.Run()
	if maxInside != 1 {
		t.Errorf("max concurrent holders %d, want 1", maxInside)
	}
}

func TestMutexUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m := NewMutex(NewKernel(1))
	m.Unlock()
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 2)
	inside, maxInside := 0, 0
	for i := 0; i < 6; i++ {
		k.Go("user", func(p *Proc) {
			sem.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(Millisecond)
			inside--
			sem.Release()
		})
	}
	k.Run()
	if maxInside != 2 {
		t.Errorf("max concurrency %d, want 2", maxInside)
	}
}

func TestResourceFIFOQueueing(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "disk")
	var done []Time
	for i := 0; i < 3; i++ {
		k.Go("u", func(p *Proc) {
			r.Use(p, 10*Millisecond)
			done = append(done, p.Now())
		})
	}
	k.Run()
	want := []Time{Time(10 * Millisecond), Time(20 * Millisecond), Time(30 * Millisecond)}
	if len(done) != 3 {
		t.Fatalf("%d completions", len(done))
	}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("completion %d at %v, want %v", i, done[i], want[i])
		}
	}
	if r.BusyTime() != 30*Millisecond {
		t.Errorf("busy time %v, want 30ms", r.BusyTime())
	}
	if u := r.Utilization(); u < 0.999 || u > 1.001 {
		t.Errorf("utilization %f, want ~1", u)
	}
}

func TestResourceUseAsyncOverlapsCaller(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "disk")
	var callerDone, asyncDone Time
	k.Go("u", func(p *Proc) {
		r.UseAsync(20*Millisecond, func() { asyncDone = k.Now() })
		p.Sleep(Millisecond)
		callerDone = p.Now()
	})
	k.Run()
	if callerDone != Time(Millisecond) {
		t.Errorf("caller blocked until %v", callerDone)
	}
	if asyncDone != Time(20*Millisecond) {
		t.Errorf("async completion at %v, want 20ms", asyncDone)
	}
}

func TestStopKillsBlockedProcesses(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	cleanedUp := false
	k.Go("daemon", func(p *Proc) {
		defer func() { cleanedUp = true }()
		for {
			q.Get(p) // blocks forever
		}
	})
	k.Go("main", func(p *Proc) {
		p.Sleep(Second)
		k.Stop()
	})
	k.Run()
	if !cleanedUp {
		t.Error("blocked daemon was not unwound")
	}
}

func TestRunUntilPausesAndResumes(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	k.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(Second)
			ticks++
		}
	})
	k.RunUntil(Time(3500 * Millisecond))
	if ticks != 3 {
		t.Errorf("ticks at 3.5s = %d, want 3", ticks)
	}
	if k.Now() != Time(3500*Millisecond) {
		t.Errorf("now %v, want 3.5s", k.Now())
	}
	k.Run()
	if ticks != 10 {
		t.Errorf("final ticks %d, want 10", ticks)
	}
}

func TestAfterRunsEvent(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.After(7*Second, func() { at = k.Now() })
	k.Run()
	if at != Time(7*Second) {
		t.Errorf("event at %v, want 7s", at)
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel(1)
	var wg WaitGroup
	wg.Add(3)
	var joined Time
	for i := 1; i <= 3; i++ {
		d := Duration(i) * Second
		k.Go("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	k.Go("joiner", func(p *Proc) {
		wg.Wait(p)
		joined = p.Now()
	})
	k.Run()
	if joined != Time(3*Second) {
		t.Errorf("joined at %v, want 3s", joined)
	}
}

func TestNestedSpawn(t *testing.T) {
	k := NewKernel(1)
	var childRan bool
	k.Go("parent", func(p *Proc) {
		k.Go("child", func(c *Proc) {
			c.Sleep(Millisecond)
			childRan = true
		})
		p.Sleep(2 * Millisecond)
	})
	k.Run()
	if !childRan {
		t.Error("child never ran")
	}
}

func TestTimeArithmetic(t *testing.T) {
	tt := Time(0).Add(1500 * Millisecond)
	if tt.Seconds() != 1.5 {
		t.Errorf("Seconds() = %v", tt.Seconds())
	}
	if tt.Sub(Time(Second)) != 500*Millisecond {
		t.Errorf("Sub wrong")
	}
	if (30 * Second).Milliseconds() != 30000 {
		t.Errorf("Milliseconds wrong")
	}
}

// TestSpawnFormatsNoName: a process keeps the name it was given and its
// id, and Name formats name#id only when asked, so a spawn under a
// constant name allocates no string.
func TestSpawnFormatsNoName(t *testing.T) {
	k := NewKernel(1)
	var p *Proc
	k.Go("parent", func(*Proc) {
		p = k.Go("biod-w", func(*Proc) {})
	})
	k.Run()
	if want := "biod-w#" + strconv.Itoa(p.id); p.Name() != want || p.id != 2 {
		t.Errorf("Name() = %q (id %d), want %q", p.Name(), p.id, want)
	}
}

// TestWarmSpawnAllocatesOnlyTheProc: once a process has exited inside a
// Run, its coroutine waits on the kernel's idle list, and the next spawn
// takes it. A spawn then allocates the Proc and nothing else (3 objects
// while each process was a goroutine with a resume channel), whatever
// the spawner's rate: biod-ra and biod-w spawn one per block.
func TestWarmSpawnAllocatesOnlyTheProc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const budget = 1
	k := NewKernel(1)
	fn := func(*Proc) {}
	var allocs float64
	k.Go("parent", func(p *Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			k.Go("biod-w", fn)
			p.Sleep(0) // the child starts, exits and parks its coroutine first
		})
	})
	k.Run()
	if allocs > budget {
		t.Errorf("a warm spawn allocates %v objects, budget %d", allocs, budget)
	}
}

// TestColdSpawnCost pins what a spawn costs when the idle pool is empty,
// as it is for the first spawn after Run: Run stops every idle coroutine
// so that it leaks no goroutine, and the next spawn makes a coroutine
// afresh (iter.Pull's goroutine and closures, the coro, the Proc). That
// cost is paid once per pool slot per Run, so the pool's high-water mark
// bounds it, not the spawn count. A trial can read one or two higher —
// the runtime now and then allocates a goroutine afresh — so the budget
// holds the best of a few.
func TestColdSpawnCost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const budget = 14
	k := NewKernel(1)
	fn := func(*Proc) {}
	best := math.Inf(1)
	for range 5 {
		best = min(best, testing.AllocsPerRun(200, func() {
			k.Go("biod-w", fn)
			k.Run()
		}))
	}
	if best > budget {
		t.Errorf("a cold spawn allocates %v objects, budget %d", best, budget)
	}
}

// TestProcessPanicSurfacesFromRun: a panic in a process body unwinds the
// process's coroutine and re-raises from the scheduler's resume, so it
// leaves Kernel.Run on the caller's goroutine with its original value
// (not a process goroutine's crash of the whole binary).
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ n int }
	k := NewKernel(1)
	k.Go("doomed", func(p *Proc) {
		p.Sleep(Second)
		panic(boom{7})
	})
	defer func() {
		if r := recover(); r != (boom{7}) {
			t.Errorf("Run panicked with %v, want boom{7}", r)
		}
		if k.Now() != Time(Second) {
			t.Errorf("panic surfaced at %v, want 1s", k.Now())
		}
	}()
	k.Run()
	t.Error("Run returned; want the process's panic")
}

// TestRunLeavesNoGoroutine: a thousand sequential processes share one
// pooled coroutine, and Run stops it when the queue drains, so the
// goroutine count returns to where it started.
func TestRunLeavesNoGoroutine(t *testing.T) {
	// Let goroutines still exiting from an earlier test go before
	// counting.
	settle := func() int {
		n := -1
		for n != runtime.NumGoroutine() {
			n = runtime.NumGoroutine()
			time.Sleep(5 * time.Millisecond)
		}
		return n
	}
	before := settle()
	k := NewKernel(1)
	ran := 0
	k.Go("spawner", func(p *Proc) {
		for range 1000 {
			k.Go("child", func(c *Proc) {
				c.Sleep(Millisecond)
				ran++
			})
			p.Sleep(2 * Millisecond)
		}
	})
	k.Run()
	if ran != 1000 {
		t.Fatalf("%d children ran, want 1000", ran)
	}
	if len(k.idle) != 0 {
		t.Errorf("%d idle coroutines after Run, want 0", len(k.idle))
	}
	if after := settle(); after > before {
		t.Errorf("goroutines %d after Run, %d before", after, before)
	}
}
