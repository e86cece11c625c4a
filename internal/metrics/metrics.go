// Package metrics is the measurement layer beneath the paper's evaluation
// machinery: gauges read from the instrumented structure at exposition
// time and log-bucketed latency histograms that the RPC, server, and
// client layers record into, plus a Prometheus-style text exposition for
// daemons and the harness.
//
// Like trace.Tracer, every type is nil-safe: recording to a nil
// *Histogram or *Registry is a no-op costing one nil check, so
// instrumented hot paths pay nothing when metrics are off.
//
// Unlike the sim-kernel structures, everything here is safe for concurrent
// use: the standalone daemon exposes metrics from goroutines outside the
// simulation kernel, and exposition may run while workers record.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// histBuckets is the number of power-of-two buckets. Bucket i holds
// values whose bit length is i — the range [2^(i-1), 2^i-1] — with bucket
// 0 holding exact zeros. 48 buckets cover 2^47 µs ≈ 4.5 simulated years.
const histBuckets = 48

// Histogram is a log2-bucketed distribution of int64 samples (we record
// latencies in microseconds). Observations and reads are lock-free.
//
// Each bucket can also carry an exemplar: the causal op ID of a recent
// sample that landed there (see ObserveOp), linking a latency bucket —
// say, the one holding the p99 — straight to that operation's captured
// span tree. Zero means "no exemplar".
type Histogram struct {
	counts    [histBuckets + 1]atomic.Int64
	count     atomic.Int64
	sum       atomic.Int64
	max       atomic.Int64
	exemplars [histBuckets + 1]atomic.Uint64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > histBuckets {
		b = histBuckets
	}
	return b
}

// bucketBounds returns the inclusive value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 0
	}
	return 1 << (i - 1), 1<<i - 1
}

// Observe records one sample; safe on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveOp records one sample and, when op is nonzero, stamps it as the
// sample's bucket exemplar (last writer wins — "a recent sample", not
// "the slowest"). Safe on a nil histogram.
func (h *Histogram) ObserveOp(v int64, op uint64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if op != 0 {
		h.exemplars[bucketOf(v)].Store(op)
	}
	h.Observe(v)
}

// Exemplar returns the op ID last recorded into bucket i (0 if none).
func (h *Histogram) Exemplar(i int) uint64 {
	if h == nil || i < 0 || i > histBuckets {
		return 0
	}
	return h.exemplars[i].Load()
}

// BucketOf exposes the bucket index a sample lands in (for tests and
// exemplar consumers).
func BucketOf(v int64) int { return bucketOf(v) }

// Count returns the number of samples (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all samples (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest sample (0 for nil or empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the average sample (0 for nil or empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the containing bucket. Safe on a nil histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}

// Merge adds every sample recorded in o into h (both may be nil).
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	s := o.Snapshot()
	for i, c := range s.Counts {
		if c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	for {
		old := h.max.Load()
		if s.Max <= old || h.max.CompareAndSwap(old, s.Max) {
			break
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram, suitable for
// merging and rendering without further synchronization.
type HistSnapshot struct {
	Counts [histBuckets + 1]int64
	Count  int64
	Sum    int64
	Max    int64
	// Exemplars carries per-bucket op IDs (see ObserveOp); kept out of
	// the JSON form so /vars output is unchanged when spans are off.
	Exemplars [histBuckets + 1]uint64 `json:"-"`
}

// Snapshot copies the histogram's current state (zero value for nil).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Exemplars[i] = h.exemplars[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Delta returns the samples recorded between prev and s — the window a
// periodic sampler quotes quantiles over. If any bucket shrank (a
// counter reset: the histogram was replaced or zeroed between
// snapshots), s itself is returned, treating everything current as new.
// The window's Max is inherited from s: the true window maximum is not
// recoverable from bucket counts, so quantiles are clamped by the
// all-time max instead.
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	var d HistSnapshot
	for i := range s.Counts {
		c := s.Counts[i] - prev.Counts[i]
		if c < 0 {
			return s
		}
		d.Counts[i] = c
	}
	if s.Count < prev.Count || s.Sum < prev.Sum {
		return s
	}
	d.Count = s.Count - prev.Count
	d.Sum = s.Sum - prev.Sum
	d.Max = s.Max
	return d
}

// Merge accumulates o into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile estimates the q-th quantile of the snapshot.
func (s HistSnapshot) Quantile(q float64) float64 {
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q >= 1 {
		return float64(s.Max)
	}
	if q < 0 {
		q = 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := bucketBounds(i)
			top := float64(hi)
			if float64(s.Max) < top {
				top = float64(s.Max) // the bucket can't exceed the observed max
			}
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			return float64(lo) + frac*(top-float64(lo))
		}
		cum = next
	}
	return float64(s.Max)
}

// Registry is a named collection of metrics. The zero value is not usable;
// create with New. A nil *Registry hands out nil metrics, which are safe
// to record to — the disabled configuration costs one nil check per site.
type Registry struct {
	mu       sync.Mutex
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
	helps    map[string]string
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		gaugeFns: make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
		helps:    make(map[string]string),
	}
}

// Help registers a human-readable description for a metric base name
// (labels are ignored); it is emitted as a # HELP line by WriteProm.
func (r *Registry) Help(name, text string) {
	if r == nil || text == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.helps[baseOf(name)] = text
}

// GaugeFunc registers fn as the source for a gauge read at exposition
// time (state-table sizes, cache occupancy — values that already live in
// the instrumented structure). Re-registering a name replaces the source.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns (creating if needed) the histogram with the given
// name.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// FindHistogram returns the named histogram if it exists, else nil (which
// is safe to query).
func (r *Registry) FindHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name]
}

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.hists))
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Label renders a metric name with label pairs:
// Label("x_us", "proc", "read") → x_us{proc="read"}.
func Label(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// baseOf strips the label block from a series name.
func baseOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// series rebuilds a histogram series name with a suffix on the base and
// optionally an extra le label spliced into the label block:
// series(`x_us{proc="read"}`, "_bucket", "255") →
// x_us_bucket{proc="read",le="255"}.
func series(name, suffix, le string) string {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base, labels = name[:i], name[i+1:len(name)-1]
	}
	if le != "" {
		if labels != "" {
			labels += ","
		}
		labels += `le="` + le + `"`
	}
	if labels == "" {
		return base + suffix
	}
	return base + suffix + "{" + labels + "}"
}

// Snapshot is a point-in-time copy of every metric in a registry,
// suitable for diffing (the tsdb sampler), JSON rendering (/vars), or
// text exposition without further synchronization. Gauge funcs have
// already been evaluated into Gauges.
type Snapshot struct {
	Gauges map[string]float64      `json:"gauges"`
	Hists  map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Safe on a nil registry
// (returns empty maps) and safe to call while recorders run.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Gauges: map[string]float64{},
		Hists:  map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	fns := make(map[string]func() float64, len(r.gaugeFns))
	for n, fn := range r.gaugeFns {
		fns[n] = fn
	}
	for n, h := range r.hists {
		s.Hists[n] = h.Snapshot()
	}
	r.mu.Unlock()
	// Gauge funcs run unlocked: they read other subsystems and may be
	// slow; holding the registry lock across them invites deadlock.
	for n, fn := range fns {
		s.Gauges[n] = fn()
	}
	return s
}

// helpTexts copies the registered # HELP strings.
func (r *Registry) helpTexts() map[string]string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.helps))
	for n, t := range r.helps {
		out[n] = t
	}
	return out
}

// WriteProm writes every metric in Prometheus text exposition format,
// deterministically ordered: # HELP (where registered) and # TYPE
// precede each family. Histograms appear as cumulative buckets
// (le-labelled, microsecond bounds) plus _sum and _count, with estimated
// p50/p90/p99 emitted as comments for human readers.
func (r *Registry) WriteProm(w io.Writer) {
	if r == nil {
		return
	}
	snap := r.Snapshot()
	helps := r.helpTexts()

	typed := map[string]bool{}
	writeType := func(name, kind string) {
		base := baseOf(name)
		if !typed[base] {
			typed[base] = true
			if help, ok := helps[base]; ok {
				fmt.Fprintf(w, "# HELP %s %s\n", base, help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		}
	}
	for _, n := range sortedKeys(snap.Gauges) {
		writeType(n, "gauge")
		fmt.Fprintf(w, "%s %g\n", n, snap.Gauges[n])
	}
	for _, n := range sortedKeys(snap.Hists) {
		s := snap.Hists[n]
		writeType(n, "histogram")
		var cum int64
		top := 0
		for i, c := range s.Counts {
			if c > 0 {
				top = i
			}
		}
		for i := 0; i <= top; i++ {
			cum += s.Counts[i]
			_, hi := bucketBounds(i)
			// OpenMetrics-style exemplar suffix: links the bucket to the
			// causal op ID of a recent sample. Only span-armed runs ever
			// record exemplars, so plain output is byte-identical.
			if ex := s.Exemplars[i]; ex != 0 {
				fmt.Fprintf(w, "%s %d # {op=\"%d\"}\n", series(n, "_bucket", fmt.Sprintf("%d", hi)), cum, ex)
				continue
			}
			fmt.Fprintf(w, "%s %d\n", series(n, "_bucket", fmt.Sprintf("%d", hi)), cum)
		}
		fmt.Fprintf(w, "%s %d\n", series(n, "_bucket", "+Inf"), s.Count)
		fmt.Fprintf(w, "%s %d\n", series(n, "_sum", ""), s.Sum)
		fmt.Fprintf(w, "%s %d\n", series(n, "_count", ""), s.Count)
		if s.Count > 0 {
			fmt.Fprintf(w, "# %s p50=%.0f p90=%.0f p99=%.0f max=%d\n",
				baseOf(n), s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99), s.Max)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
