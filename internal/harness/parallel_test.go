package harness

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelAssemblesByIndex: every call runs once, results land in
// their own slots, the lowest-numbered error is the one returned, and no
// more than GOMAXPROCS calls ever run together — nested calls included.
func TestParallelAssemblesByIndex(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprint("procs=", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var running, peak atomic.Int32
			enter := func() {
				n := running.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
			}
			const outer, inner = 6, 5
			var got [outer][inner]int
			err := Parallel(outer, func(i int) error {
				enter()
				running.Add(-1) // waiting on the nested call is not running
				err := Parallel(inner, func(j int) error {
					enter()
					defer running.Add(-1)
					got[i][j] = 10*i + j
					if i >= 3 && j == 2 {
						return fmt.Errorf("call %d.%d", i, j)
					}
					return nil
				})
				if i == 4 {
					return nil // swallowed: 3 and 5 still fail
				}
				return err
			})
			if err == nil || err.Error() != "call 3.2" {
				t.Errorf("returned %v, want the lowest-numbered failure, call 3.2", err)
			}
			for i := range got {
				for j := range got[i] {
					if got[i][j] != 10*i+j {
						t.Errorf("slot %d.%d holds %d", i, j, got[i][j])
					}
				}
			}
			if p := int(peak.Load()); p > procs {
				t.Errorf("%d calls ran together at GOMAXPROCS %d", p, procs)
			}
			poolMu.Lock()
			defer poolMu.Unlock()
			if len(queue) != 0 {
				t.Errorf("%d calls left queued", len(queue))
			}
		})
	}
}

// TestEachKeepsASharedJournalInOrder: worlds that write one audit journal
// run one at a time, in index order, and stop at the first failure.
func TestEachKeepsASharedJournalInOrder(t *testing.T) {
	pm := Default()
	pm.AuditSink = io.Discard
	var order []int
	boom := errors.New("boom")
	err := pm.Each(5, func(i int) error {
		order = append(order, i) // unsynchronised: -race holds the claim
		if i == 3 {
			return boom
		}
		return nil
	})
	if err != boom || fmt.Sprint(order) != "[0 1 2 3]" {
		t.Errorf("ran %v and returned %v, want 0 through 3 and boom", order, err)
	}
}
