package tsdb

import (
	"maps"
	"slices"
	"strings"
	"sync"

	"spritelynfs/internal/metrics"
	"spritelynfs/internal/sim"
)

// Sampler periodically diffs registry snapshots into timeline series:
//
//   - every gauge yields a "<name>" value series, and gauges whose base
//     name ends in _total or _seconds (cumulative values exported as
//     gauge funcs — RPC totals, CPU/disk busy seconds) additionally
//     yield a "<name>:rate" series, which for busy-seconds gauges reads
//     directly as utilization;
//   - every histogram yields "<name>:rate" (observations per second)
//     plus "<name>:p50" and "<name>:p99" quantiles computed over the
//     window alone, not cumulatively — an empty window records no
//     quantile points rather than fabricating stale ones.
//
// A sampler may watch several registries (one per shard in cluster
// worlds), each under a distinguishing series prefix. Sample is driven
// by the caller's clock — a sim process in the harness, a ticker
// goroutine in snfsd — and is safe to call concurrently with timeline
// readers. A nil *Sampler ignores calls.
type Sampler struct {
	mu      sync.Mutex
	tl      *Timeline
	watched []*watchedReg
}

type watchedReg struct {
	prefix string
	reg    *metrics.Registry
	last   metrics.Snapshot
	lastAt sim.Time
	primed bool
}

// NewSampler returns a sampler recording into a fresh timeline whose
// series hold capacity points each (default 1024).
func NewSampler(capacity int) *Sampler {
	return &Sampler{tl: NewTimeline(capacity)}
}

// Watch adds a registry to the sample set; its series names are prefixed
// with prefix (use "" for a single-registry sampler). Safe on nil.
func (s *Sampler) Watch(prefix string, reg *metrics.Registry) {
	if s == nil || reg == nil {
		return
	}
	s.mu.Lock()
	s.watched = append(s.watched, &watchedReg{prefix: prefix, reg: reg})
	s.mu.Unlock()
}

// LimitSeries caps the sampler's timeline at max distinct series (see
// Timeline.LimitSeries). Safe on nil.
func (s *Sampler) LimitSeries(max int) {
	if s == nil {
		return
	}
	s.tl.LimitSeries(max)
}

// Timeline returns the sampler's timeline (nil for a nil sampler).
func (s *Sampler) Timeline() *Timeline {
	if s == nil {
		return nil
	}
	return s.tl
}

// cumulativeGauge reports whether a gauge series is a cumulative total
// in disguise (exported via GaugeFunc) and should get a rate series too.
func cumulativeGauge(name string) bool {
	base := name
	if i := strings.IndexByte(base, '{'); i >= 0 {
		base = base[:i]
	}
	return strings.HasSuffix(base, "_total") || strings.HasSuffix(base, "_seconds")
}

// Sample takes one sample at virtual (or wall-relative) instant at. The
// first call per registry only primes the diff base; rates appear from
// the second call on. Calls at non-increasing instants are ignored.
// Safe on a nil sampler.
func (s *Sampler) Sample(at sim.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.watched {
		snap := w.reg.Snapshot()
		if !w.primed {
			w.last, w.lastAt, w.primed = snap, at, true
			continue
		}
		dt := at.Sub(w.lastAt).Seconds()
		if dt <= 0 {
			continue
		}
		// Names go in order: at the series budget, which new series are
		// created and which dropped follows the order of the adds.
		for _, name := range slices.Sorted(maps.Keys(snap.Gauges)) {
			cur := snap.Gauges[name]
			s.tl.Add(w.prefix+name, KindGauge, at, cur)
			if cumulativeGauge(name) {
				inc := cur - w.last.Gauges[name]
				if inc < 0 {
					inc = cur // reset: count the post-reset value
				}
				s.tl.Add(w.prefix+name+":rate", KindRate, at, inc/dt)
			}
		}
		for _, name := range slices.Sorted(maps.Keys(snap.Hists)) {
			win := snap.Hists[name].Delta(w.last.Hists[name])
			s.tl.Add(w.prefix+name+":rate", KindRate, at, float64(win.Count)/dt)
			if win.Count > 0 {
				s.tl.Add(w.prefix+name+":p50", KindP50, at, win.Quantile(0.50))
				s.tl.Add(w.prefix+name+":p99", KindP99, at, win.Quantile(0.99))
			}
		}
		w.last, w.lastAt = snap, at
	}
}
