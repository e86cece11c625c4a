package sim

import (
	"fmt"
	"math"
)

// maxTime is a limit no event's instant exceeds, for a next that pops
// whatever is least.
const maxTime = Time(math.MaxInt64)

// A lane is a FIFO ring of events whose instants never go back: each push
// comes due no earlier than the push before it, and takes the kernel's next
// seq, so the ring is sorted by (at, seq) by construction and a push or a
// pop costs O(1) where the heap pays a sift. There are three kinds, each
// sorted for its own reason:
//
//   - the kernel's same-instant lane takes every event scheduled for now,
//     and now never goes back;
//   - a Resource's lane takes its completions, which come due at freeAt,
//     and freeAt never goes back;
//   - a fixed-delay lane takes AfterFixed's events of one delay d, which
//     come due at now + d.
//
// A push that would go back is a bug in its caller, and panics.
//
// An event can be withdrawn in place (Cancel): its slot keeps its instant
// and seq but loses its target, and is dropped, never run, when it
// reaches the front. A non-empty lane's front is always live, so next
// reads it as it would an unwithdrawn one, and every event that survives
// comes due in the (at, seq) order it had.
type lane struct {
	ring []event // a power-of-two length once the lane is first used
	head int     // index of the front event in ring
	n    int     // events held, withdrawn ones behind the front included
	base uint64  // the position of the front: events removed so far
	last Time    // the instant of the last push
	slot int     // index in Kernel.lanes while n > 0

	// What the lane is, for the panic: a resource's, a fixed-delay lane
	// of delay, or else the same-instant lane.
	res   *Resource
	fixed bool
	delay Duration
}

func (l *lane) String() string {
	switch {
	case l.res != nil:
		return fmt.Sprintf("resource %q", l.res.name)
	case l.fixed:
		return "fixed-delay " + l.delay.String()
	default:
		return "same-instant"
	}
}

// A Timer names an event AfterFixed scheduled, for Cancel: its lane and
// its position there, counted from the lane's first push, so that ring
// growth, which moves the event's index, leaves the position as it was.
// The zero Timer names no event.
type Timer struct {
	l   *lane
	pos uint64
}

// push appends t to come due at at in lane l, or in the same-instant lane
// when at is now, so a zero-cost service or a zero delay adds no lane to
// next's scan. It takes one seq, as any schedule does, and returns the
// event's Timer.
func (k *Kernel) push(l *lane, at Time, t Target) Timer {
	if at <= k.now {
		l, at = &k.instant, k.now
	}
	if at < l.last {
		panic(fmt.Sprintf("sim: %v lane pushed back: an event at %v after one at %v", l, at, l.last))
	}
	l.last = at
	k.seq++
	if l.n == len(l.ring) {
		if l.ring == nil {
			k.opened++
		}
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = event{at: at, seq: k.seq, run: t}
	if l.n++; l.n == 1 {
		l.slot = len(k.lanes)
		k.lanes = append(k.lanes, l)
	}
	return Timer{l, l.base + uint64(l.n-1)}
}

// grow doubles the ring, unwrapping it to start at index 0.
func (l *lane) grow() {
	ring := make([]event, max(2*len(l.ring), 16))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// shift removes and returns l's front event.
func (k *Kernel) shift(l *lane) event {
	e := l.ring[l.head]
	l.ring[l.head].run = nil // release the target for GC
	k.advance(l)
	return e
}

// advance removes l's front event, and the withdrawn ones behind it, so
// that the front is live again. A lane it empties leaves the kernel's set
// of non-empty lanes.
func (k *Kernel) advance(l *lane) {
	for {
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.base++
		if l.n--; l.n == 0 || l.ring[l.head].run != nil {
			break
		}
	}
	if l.n == 0 {
		last := k.lanes[len(k.lanes)-1]
		last.slot = l.slot
		k.lanes[l.slot] = last
		k.lanes[len(k.lanes)-1] = nil
		k.lanes = k.lanes[:len(k.lanes)-1]
	}
}

// Cancel withdraws the event t names, in O(1): it is never run and never
// counted as a pop, and every other event comes due as it would have. It
// reports whether it withdrew one: false for the zero Timer, or for an
// event that has come due or was withdrawn already.
func (k *Kernel) Cancel(t Timer) bool {
	l := t.l
	if l == nil || t.pos < l.base || t.pos-l.base >= uint64(l.n) {
		return false
	}
	e := &l.ring[(l.head+int(t.pos-l.base))&(len(l.ring)-1)]
	if e.run == nil {
		return false
	}
	e.run = nil
	k.work.Cancelled++
	if t.pos == l.base {
		k.advance(l)
	}
	return true
}

// fixedLane returns the lane of delay d, opening it on first use. A kernel
// has one per constant its program schedules with, a handful, so a scan
// finds it.
func (k *Kernel) fixedLane(d Duration) *lane {
	for _, l := range k.fixed {
		if l.delay == d {
			return l
		}
	}
	l := &lane{fixed: true, delay: d}
	k.fixed = append(k.fixed, l)
	return l
}

// next removes and returns the least pending event by (at, seq), found
// among the heap's top and the fronts of the non-empty lanes in one scan,
// if it comes due no later than limit. When it comes due later, next
// removes nothing and returns an event with only at set, to say when. With
// nothing pending, ok is false.
func (k *Kernel) next(limit Time) (e event, ok bool) {
	var top *event
	var from *lane
	if len(k.heap) > 0 {
		top = &k.heap[0]
	}
	for _, l := range k.lanes {
		if f := &l.ring[l.head]; top == nil || f.before(top) {
			top, from = f, l
		}
	}
	switch {
	case top == nil:
		return event{}, false
	case top.at > limit:
		return event{at: top.at}, true
	}
	k.work.Pops++
	if from == nil {
		return k.heap.pop(), true
	}
	return k.shift(from), true
}
