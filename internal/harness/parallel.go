package harness

import (
	"runtime"
	"sync"
)

// Worlds are independent kernels with no shared mutable state, so
// experiments that build several run them on every core.

// call is one queued fn(i) and the count its Parallel is waiting on.
type call struct {
	run  func()
	left *int
}

var (
	poolMu  sync.Mutex
	poolCv  = sync.NewCond(&poolMu)
	queue   []call // accepted, not started; oldest first
	workers int    // goroutines draining queue, beside the callers
)

// Parallel runs fn(0) … fn(n-1), which must be independent of one another,
// on up to GOMAXPROCS goroutines and returns the lowest-numbered error.
// Each fn assembles its result by index (a slot of a slice the caller
// owns), so the outcome does not depend on the width. The caller works
// too — on whatever is queued, its own calls or a nested Parallel's — so
// a nested call runs inline when no other goroutine is free and spreads
// out as soon as one is. Calls start in index order: put the longest
// first.
func Parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	left := n
	poolMu.Lock()
	for i := 0; i < n; i++ {
		i := i
		queue = append(queue, call{func() { errs[i] = fn(i) }, &left})
	}
	for ; workers < runtime.GOMAXPROCS(0)-1 && workers < len(queue); workers++ {
		go func() {
			poolMu.Lock()
			for runNext() {
			}
			workers--
			poolMu.Unlock()
		}()
	}
	for left > 0 {
		if !runNext() {
			poolCv.Wait()
		}
	}
	poolMu.Unlock()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runNext runs the oldest queued call with poolMu released and reports
// whether there was one.
func runNext() bool {
	if len(queue) == 0 {
		return false
	}
	c := queue[0]
	if queue = queue[1:]; len(queue) == 0 {
		queue = nil // let the drained backing array go
	}
	poolMu.Unlock()
	c.run()
	poolMu.Lock()
	*c.left--
	poolCv.Broadcast()
	return true
}

// Each is Parallel for worlds built from pm — unless they share an audit
// journal, which takes its records in one order: then fn runs in index
// order on the caller and stops at the first error.
func (pm Params) Each(n int, fn func(i int) error) error {
	if pm.AuditSink == nil {
		return Parallel(n, fn)
	}
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}
