package sim

import (
	"testing"
	"time"
)

func TestRunRealtimeStops(t *testing.T) {
	k := NewKernel(1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		k.RunRealtime(stop)
		close(done)
	}()
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("RunRealtime did not stop")
	}
}

func TestRunRealtimeRunsInjectedWork(t *testing.T) {
	k := NewKernel(1)
	stop := make(chan struct{})
	go k.RunRealtime(stop)
	defer close(stop)

	ran := make(chan struct{})
	k.Inject(func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("injected work never ran")
	}
}

func TestRunRealtimeTimersFire(t *testing.T) {
	k := NewKernel(1)
	stop := make(chan struct{})
	go k.RunRealtime(stop)
	defer close(stop)

	fired := make(chan Time, 1)
	start := time.Now()
	k.Inject(func() {
		k.Go("timer", func(p *Proc) {
			p.Sleep(20 * Millisecond)
			fired <- p.Now()
		})
	})
	select {
	case <-fired:
		if wall := time.Since(start); wall < 15*time.Millisecond {
			t.Errorf("virtual 20ms sleep took %v wall time; realtime pacing broken", wall)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestRunRealtimeProcessesInteract(t *testing.T) {
	k := NewKernel(1)
	stop := make(chan struct{})
	go k.RunRealtime(stop)
	defer close(stop)

	result := make(chan int, 1)
	k.Inject(func() {
		q := NewQueue[int](k)
		k.Go("producer", func(p *Proc) {
			p.Sleep(Millisecond)
			q.Put(42)
		})
		k.Go("consumer", func(p *Proc) {
			result <- q.Get(p)
		})
	})
	select {
	case v := <-result:
		if v != 42 {
			t.Errorf("got %d", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("processes never rendezvoused")
	}
}

// realtime runs k under RunRealtime and returns the function that stops
// it and waits for RunRealtime to return.
func realtime(k *Kernel) (halt func()) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		k.RunRealtime(stop)
	}()
	return func() {
		close(stop)
		<-done
	}
}

// TestRunRealtimeWaitsAllocateNothing budgets the loop's own waiting:
// whether a wait is short enough to be yielded through or long enough
// to be handed to the host's timer, arming it costs no allocation.
func TestRunRealtimeWaitsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	k := NewKernel(1)
	defer realtime(k)()
	for _, d := range []Duration{Microsecond, 4 * Duration(timerResolution/time.Microsecond)} {
		ran := make(chan struct{}, 1)
		fire := func() { ran <- struct{}{} }
		arm := func() { k.After(d, fire) }
		allocs := testing.AllocsPerRun(100, func() {
			k.Inject(arm)
			<-ran
		})
		if allocs != 0 {
			t.Errorf("a %v wait under RunRealtime allocates %v objects, want 0", d, allocs)
		}
	}
}

// TestRunRealtimeIdleLoopBlocks keeps the short-wait yield from becoming
// a busy loop: with its next event 50 ms away the loop sleeps, taking a
// couple of turns per event and not one per microsecond.
func TestRunRealtimeIdleLoopBlocks(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		k.After(50*Millisecond, tick)
	}
	k.After(50*Millisecond, tick)
	halt := realtime(k)
	time.Sleep(220 * time.Millisecond)
	halt()
	if fired < 3 {
		t.Errorf("%d of 4 timers fired in 220 ms", fired)
	}
	if k.turns > 100 {
		t.Errorf("idle loop took %d turns for %d events: it spins instead of blocking", k.turns, fired)
	}
}
