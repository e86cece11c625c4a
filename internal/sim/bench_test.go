package sim

import "testing"

// BenchmarkKernelEvents measures the bare heap path: schedule one closure
// a microsecond ahead, pop it, run it — no process involved, and no other
// event in the heap. The typed heap keeps it allocation-free beyond the
// closure itself. BenchmarkKernelQueue measures the paths under load.
func BenchmarkKernelEvents(b *testing.B) {
	k := NewKernel(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(Microsecond, tick)
		}
	}
	k.After(Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelQueue times one event through each structure of the
// kernel's queue as a fleet world loads it: 1,000 far timers, a fleet's
// think timers, stay resident in the heap throughout, and a chain of
// events reschedules itself through one path — the same-instant lane
// (After(0, …)), a fixed-delay lane (AfterFixed), a resource's lane
// (UseAsync with a target), or the heap (After at a later instant).
// BenchmarkKernelEvents, whose heap holds one event, cannot see what a
// deep heap costs each event.
func BenchmarkKernelQueue(b *testing.B) {
	for _, c := range []struct {
		name string
		next func(k *Kernel, r *Resource, c *chain)
	}{
		{"same-instant", func(k *Kernel, _ *Resource, c *chain) { k.After(0, c.tick) }},
		{"fixed", func(k *Kernel, _ *Resource, c *chain) { k.AfterFixed(Microsecond, c) }},
		{"resource", func(_ *Kernel, r *Resource, c *chain) { r.UseAsync(Microsecond, c) }},
		{"heap", func(k *Kernel, _ *Resource, c *chain) { k.After(Microsecond, c.tick) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			k := NewKernel(1)
			for i := 0; i < 1000; i++ {
				k.After(Minute+Duration(i), func() {})
			}
			r := NewResource(k, "r")
			ch := &chain{left: b.N}
			ch.tick = ch.Due
			ch.next = func() { c.next(k, r, ch) }
			ch.stop = k.Stop
			ch.next()
			b.ReportAllocs()
			b.ResetTimer()
			k.Run()
		})
	}
}

// chain is an event that schedules its successor until left runs out.
type chain struct {
	left int
	tick func() // Due, bound once
	next func()
	stop func()
}

func (c *chain) Due() {
	if c.left--; c.left > 0 {
		c.next()
	} else {
		c.stop()
	}
}

// BenchmarkProcSwitch measures one full process block/resume cycle (a
// coroutine yield and resume, with no pass through the Go scheduler,
// plus the scheduling event) — what every blocking operation of a
// Proc-based client costs and what the Executor path exists to
// avoid for idle clients. It read 649 ns while a switch was two channel
// handoffs between goroutines.
func BenchmarkProcSwitch(b *testing.B) {
	k := NewKernel(1)
	k.Go("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
		k.Stop()
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkTaskStep measures one step of a state-machine client:
// a scheduled callback that submits a trivial closure to an Executor
// and reschedules itself from the completion callback.
func BenchmarkTaskStep(b *testing.B) {
	k := NewKernel(1)
	ex := NewExecutor(k, "bench")
	n := 0
	var step func()
	step = func() {
		ex.Submit(0, func(p *Proc) {}, func() {
			n++
			if n < b.N {
				k.After(Microsecond, step)
			}
		})
	}
	k.After(Microsecond, step)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkContextSwitch measures one process wake/park round trip — the
// simulation's fundamental cost.
func BenchmarkContextSwitch(b *testing.B) {
	k := NewKernel(1)
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
		k.Stop()
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkQueueHandoff measures a producer/consumer rendezvous.
func BenchmarkQueueHandoff(b *testing.B) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	k.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Sleep(0)
		}
	})
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
		k.Stop()
	})
	b.ResetTimer()
	k.Run()
}
