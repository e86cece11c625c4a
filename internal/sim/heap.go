package sim

// eventHeap is a typed 4-ary min-heap of events ordered by (at, seq). It
// holds only the events no lane can (see lane): those scheduled for a
// later instant by After, Sleep or GoAt, at a delay that varies from call
// to call — a client's think time, a sweep's first phase offset, a sleep.
// In a fleet world the think timers keep it a thousand or more entries
// deep, which is why every event that can go in a lane does: there a push
// and a pop are O(1), here each is a sift through the tree.
//
// It is typed, not container/heap, so that a push boxes no event into an
// `any` and a comparison is a direct call. The comparator is a total order
// — seq is unique per kernel — so the pop sequence depends only on the
// events, not on the heap's shape. A 4-ary shape halves the tree depth,
// trading a few extra comparisons per sift-down for fewer cache-missing
// levels. Push and pop move a hole up or down the tree and write the
// moving event once, where it stops.
type eventHeap []event

// before is the (at, seq) total order.
func (e *event) before(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// push adds e, sifting a hole up from the end to where e belongs.
func (h *eventHeap) push(e event) {
	a := append(*h, event{})
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = e
	*h = a
}

// pop removes and returns the minimum event, sifting a hole down from the
// root to where the last event belongs.
func (h *eventHeap) pop() event {
	a := *h
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = event{} // release the target for GC
	a = a[:n]
	*h = a
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if a[c].before(&a[min]) {
				min = c
			}
		}
		if !a[min].before(&last) {
			break
		}
		a[i] = a[min]
		i = min
	}
	a[i] = last
	return top
}
