// Package tsdb is the time-series layer of the observability plane: a
// periodic Sampler diffs metrics.Registry snapshots into fixed-capacity
// ring-buffer series (gauge values and rates, histogram quantiles
// per window), and a FlightRecorder keeps a bounded lock-cheap ring of
// recent protocol events for post-mortems.
//
// The same machinery serves two clocks. In simulation the harness runs
// the sampler as a sim process on the virtual clock and writes the rings
// out as timeline.json beside experiment results; in the standalone
// daemon a sampler ticks on the wall clock and the rings are served over
// HTTP (/timeline). Everything here is safe for concurrent use —
// samplers write while HTTP handlers read — and, like the trace and
// metrics layers, nil receivers are safe no-ops so instrumented code
// pays one nil check when observability is off.
package tsdb

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"spritelynfs/internal/sim"
)

// Point is one sample of one series.
type Point struct {
	T sim.Time // virtual (or daemon-relative wall) time of the sample
	V float64
}

// MarshalJSON renders the point as a compact [t_us, v] pair.
func (p Point) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("[%d,%g]", int64(p.T), p.V)), nil
}

// UnmarshalJSON parses the [t_us, v] pair form.
func (p *Point) UnmarshalJSON(b []byte) error {
	var pair [2]float64
	if err := json.Unmarshal(b, &pair); err != nil {
		return err
	}
	p.T = sim.Time(pair[0])
	p.V = pair[1]
	return nil
}

// Series kinds, stored so consumers know how to read the values.
const (
	KindRate  = "rate"  // per-second rate over the sampling window
	KindGauge = "gauge" // instantaneous value
	KindP50   = "p50"   // windowed median (microseconds for latency hists)
	KindP99   = "p99"   // windowed 99th percentile
)

// ring is one fixed-capacity series.
type ring struct {
	kind  string
	pts   []Point
	next  int
	total int64
}

func (r *ring) add(p Point) {
	r.total++
	if len(r.pts) < cap(r.pts) {
		r.pts = append(r.pts, p)
		return
	}
	r.pts[r.next] = p
	r.next = (r.next + 1) % len(r.pts)
}

func (r *ring) points() []Point {
	out := make([]Point, 0, len(r.pts))
	out = append(out, r.pts[r.next:]...)
	out = append(out, r.pts[:r.next]...)
	return out
}

// Timeline is a named collection of fixed-capacity series. A nil
// *Timeline discards adds and reads as empty.
type Timeline struct {
	mu       sync.RWMutex
	capacity int
	limit    int   // max distinct series; 0 = unlimited
	dropped  int64 // adds refused because the series budget was spent
	series   map[string]*ring
}

// NewTimeline returns a timeline whose series each hold the most recent
// capacity points (default 1024 if capacity <= 0).
func NewTimeline(capacity int) *Timeline {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Timeline{capacity: capacity, series: make(map[string]*ring)}
}

// LimitSeries caps the number of distinct series the timeline will
// create (0 = unlimited, the default). Adds to new names beyond the
// budget are counted in DroppedSeries instead of allocating — the guard
// that keeps a runaway label from growing the timeline with the client
// population. Existing series keep recording. Safe on a nil timeline.
func (t *Timeline) LimitSeries(max int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.limit = max
	t.mu.Unlock()
}

// DroppedSeries reports how many adds were refused because the series
// budget was exhausted. Safe on a nil timeline.
func (t *Timeline) DroppedSeries() int64 {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dropped
}

// Add appends one point to the named series, creating it (with the given
// kind) on first use. Safe on a nil timeline.
func (t *Timeline) Add(name, kind string, at sim.Time, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	r, ok := t.series[name]
	if !ok {
		if t.limit > 0 && len(t.series) >= t.limit {
			t.dropped++
			t.mu.Unlock()
			return
		}
		r = &ring{kind: kind, pts: make([]Point, 0, t.capacity)}
		t.series[name] = r
	}
	r.add(Point{T: at, V: v})
	t.mu.Unlock()
}

// Names returns the series names, sorted. Safe on a nil timeline.
func (t *Timeline) Names() []string {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.series))
	for n := range t.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Points returns the retained points of one series in chronological
// order (nil if the series does not exist). Safe on a nil timeline.
func (t *Timeline) Points(name string) []Point {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.series[name]
	if !ok {
		return nil
	}
	return r.points()
}

// SeriesDump is the exported form of one series.
type SeriesDump struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Total  int64   `json:"total"` // points ever recorded, incl. evicted
	Points []Point `json:"points"`
}

// TimelineDump is the exported form of a whole timeline — the schema of
// timeline.json and the /timeline endpoint.
type TimelineDump struct {
	Capacity int          `json:"capacity"`
	Dropped  int64        `json:"dropped_series,omitempty"`
	Series   []SeriesDump `json:"series"`
}

// Dump snapshots every series, sorted by name for deterministic output.
// Safe on a nil timeline.
func (t *Timeline) Dump() TimelineDump {
	if t == nil {
		return TimelineDump{}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	d := TimelineDump{Capacity: t.capacity, Dropped: t.dropped, Series: make([]SeriesDump, 0, len(t.series))}
	for n, r := range t.series {
		d.Series = append(d.Series, SeriesDump{Name: n, Kind: r.kind, Total: r.total, Points: r.points()})
	}
	sort.Slice(d.Series, func(i, j int) bool { return d.Series[i].Name < d.Series[j].Name })
	return d
}

// WriteJSON writes the timeline as indented JSON. Safe on a nil
// timeline (writes an empty document).
func (t *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Dump())
}
