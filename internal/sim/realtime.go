package sim

import (
	"runtime"
	"time"
)

// Inject schedules fn to run inside the simulation at the current virtual
// instant. Unlike every other Kernel method it is safe to call from any
// goroutine; it is the bridge by which external inputs (TCP connections
// in the standalone daemon) enter a kernel driven by RunRealtime.
func (k *Kernel) Inject(fn func()) {
	k.injectMu.Lock()
	k.injected = append(k.injected, fn)
	k.injectMu.Unlock()
	select {
	case k.injectCh <- struct{}{}:
	default:
	}
}

// timerResolution is the shortest wait RunRealtime hands to the host's
// timers. A runtime timer comes due 45–120 µs after it was asked to, so
// a shorter wait yields the processor and re-reads the clock instead.
const timerResolution = 50 * time.Microsecond

// RunRealtime drives the simulation paced to the wall clock: an event
// scheduled at virtual time T runs no earlier than T after the call
// began, and injected work runs as soon as it arrives. It returns when
// stop is closed. Virtual durations are interpreted 1:1 as wall time: a
// modelled cost is a real wait of that length, so a daemon serves at
// the host's speed exactly when its resources are configured to cost
// next to nothing, while timers (retransmission, sync intervals) behave
// like real timers.
//
// An idle loop blocks: on the next injection when no event is pending,
// and on one reused timer as well when the next event is timerResolution
// or more away. Only a shorter wait is spent yielding.
func (k *Kernel) RunRealtime(stop <-chan struct{}) {
	start := time.Now()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	var pending []func()
	for {
		select {
		case <-stop:
			return
		default:
		}
		k.turns++
		// Fold in externally injected work, handing the drained slice
		// back for Inject to fill again.
		k.injectMu.Lock()
		pending, k.injected = k.injected, pending[:0]
		k.injectMu.Unlock()
		wallNow := Time(time.Since(start).Microseconds())
		if wallNow > k.now {
			k.now = wallNow
		}
		for i, fn := range pending {
			pending[i] = nil
			fn()
		}
		// Run everything that is due.
		ran := false
		for len(k.events) > 0 && k.events[0].at <= k.now {
			k.popEvent().run.Due()
			ran = true
		}
		if ran {
			continue // time has passed and injections may have arrived meanwhile
		}
		// Wait for the next event, an injection, or stop.
		var due <-chan time.Time
		if len(k.events) > 0 {
			delay := time.Duration(k.events[0].at-k.now) * time.Microsecond
			if delay < timerResolution {
				runtime.Gosched()
				continue
			}
			timer.Reset(delay)
			due = timer.C
		}
		select {
		case <-stop:
			return
		case <-due:
		case <-k.injectCh:
			// The timer goes back to the next turn stopped and drained.
			if due != nil && !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
	}
}
