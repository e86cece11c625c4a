package sim

import "testing"

// BenchmarkKernelEvents measures the bare event-heap path: schedule one
// closure, pop it, run it — no process involved. This is the floor every
// simulated action pays; the typed 4-ary heap keeps it allocation-free
// beyond the closure itself (container/heap boxed every event into an
// `any` on push).
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

// BenchmarkProcSwitch measures one full process block/resume cycle (a
// coroutine yield and resume, with no pass through the Go scheduler,
// plus the scheduling event) — what every blocking operation of a
// Proc-based client costs and what the Task/Executor path exists to
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

// BenchmarkTaskStep measures one state-machine step of a Task client:
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
