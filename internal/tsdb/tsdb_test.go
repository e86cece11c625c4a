package tsdb

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spritelynfs/internal/metrics"
	"spritelynfs/internal/sim"
)

func TestTimelineRing(t *testing.T) {
	tl := NewTimeline(4)
	for i := 0; i < 10; i++ {
		tl.Add("x:rate", KindRate, sim.Time(i), float64(i))
	}
	pts := seriesPoints(tl, "x:rate")
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if want := sim.Time(6 + i); p.T != want {
			t.Fatalf("point %d at %d, want %d (chronological, most recent 4)", i, p.T, want)
		}
	}
	d := tl.Dump()
	if len(d.Series) != 1 || d.Series[0].Total != 10 || d.Series[0].Kind != KindRate {
		t.Fatalf("dump = %+v", d)
	}
	if seriesPoints(tl, "missing") != nil {
		t.Fatal("missing series should read nil")
	}
}

func TestTimelineNilSafety(t *testing.T) {
	var tl *Timeline
	tl.Add("x", KindGauge, 0, 1)
	if seriesPoints(tl, "x") != nil || seriesNames(tl) != nil {
		t.Fatal("nil timeline reads should be empty")
	}
	var sb strings.Builder
	if err := tl.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var s *Sampler
	s.Watch("", metrics.New())
	s.Sample(0)
	if s.Timeline() != nil {
		t.Fatal("nil sampler timeline should be nil")
	}
}

func TestPointJSONRoundtrip(t *testing.T) {
	in := []Point{{T: 1_500_000, V: 0.75}, {T: 2_000_000, V: 42}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[[1500000,0.75],[2000000,42]]" {
		t.Fatalf("marshal = %s", b)
	}
	var out []Point
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("roundtrip = %+v", out)
	}
}

// total registers name on reg as a cumulative total exported through a
// gauge func — the only way the system exports one — and returns the
// count behind it.
func total(reg *metrics.Registry, name string) *atomic.Int64 {
	n := new(atomic.Int64)
	reg.GaugeFunc(name, func() float64 { return float64(n.Load()) })
	return n
}

func TestSamplerCounterRates(t *testing.T) {
	reg := metrics.New()
	s := NewSampler(64)
	s.Watch("", reg)
	c := total(reg, "ops_total")

	c.Add(10)
	s.Sample(1 * sim.Time(sim.Second)) // primes the diff base
	if pts := seriesPoints(s.Timeline(), "ops_total:rate"); pts != nil {
		t.Fatalf("priming sample emitted points: %+v", pts)
	}
	c.Add(20)
	s.Sample(3 * sim.Time(sim.Second)) // 20 increments over 2 s
	pts := seriesPoints(s.Timeline(), "ops_total:rate")
	if len(pts) != 1 || pts[0].V != 10 {
		t.Fatalf("rate points = %+v, want one point of 10/s", pts)
	}
	// Non-increasing sample instants are ignored.
	c.Add(100)
	s.Sample(3 * sim.Time(sim.Second))
	if pts := seriesPoints(s.Timeline(), "ops_total:rate"); len(pts) != 1 {
		t.Fatalf("zero-width window recorded a point: %+v", pts)
	}
}

func TestSamplerCounterReset(t *testing.T) {
	// A gauge func exporting a cumulative total can restart (a server
	// reboot, a registry swap).
	regA := metrics.New()
	s := NewSampler(64)
	s.Watch("", regA)
	s.Sample(1 * sim.Time(sim.Second))
	regA.GaugeFunc("rpc_client_calls_total", func() float64 { return 50 })
	s.Sample(2 * sim.Time(sim.Second))
	// Prime saw no gauge; second sample creates it. Third sample shrinks.
	regA.GaugeFunc("rpc_client_calls_total", func() float64 { return 20 })
	s.Sample(3 * sim.Time(sim.Second))
	pts := seriesPoints(s.Timeline(), "rpc_client_calls_total:rate")
	if len(pts) != 2 {
		t.Fatalf("rate points = %+v, want 2", pts)
	}
	// After the reset the rate counts the post-reset value (20 over 1 s),
	// never a negative rate.
	if pts[1].V != 20 {
		t.Fatalf("post-reset rate = %g, want 20", pts[1].V)
	}
	for _, p := range pts {
		if p.V < 0 {
			t.Fatalf("negative rate %g after counter reset", p.V)
		}
	}
}

func TestSamplerGauges(t *testing.T) {
	reg := metrics.New()
	depth := 3.0
	reg.GaugeFunc("depth", func() float64 { return depth })
	reg.GaugeFunc("cpu_busy_seconds", func() float64 { return 1.5 })
	s := NewSampler(64)
	s.Watch("", reg)
	s.Sample(0)
	depth = 5
	s.Sample(2 * sim.Time(sim.Second))
	if pts := seriesPoints(s.Timeline(), "depth"); len(pts) != 1 || pts[0].V != 5 {
		t.Fatalf("gauge points = %+v", pts)
	}
	// A _seconds gauge also gets a rate series: 0 busy-seconds accrued
	// over the window → utilization 0.
	if pts := seriesPoints(s.Timeline(), "cpu_busy_seconds:rate"); len(pts) != 1 || pts[0].V != 0 {
		t.Fatalf("busy rate = %+v, want one 0 point", pts)
	}
	// Plain gauges get no rate series.
	if pts := seriesPoints(s.Timeline(), "depth:rate"); pts != nil {
		t.Fatalf("plain gauge grew a rate series: %+v", pts)
	}
}

func TestSamplerHistogramWindow(t *testing.T) {
	reg := metrics.New()
	h := reg.Histogram("lat_us")
	s := NewSampler(64)
	s.Watch("", reg)

	h.Observe(10)
	h.Observe(12)
	s.Sample(1 * sim.Time(sim.Second))
	// Window 1: only large samples arrive; windowed p50 must reflect
	// them, not the cumulative distribution.
	for i := 0; i < 100; i++ {
		h.Observe(10000)
	}
	s.Sample(2 * sim.Time(sim.Second))
	p50 := seriesPoints(s.Timeline(), "lat_us:p50")
	if len(p50) != 1 || p50[0].V < 4096 {
		t.Fatalf("windowed p50 = %+v, want >= 4096 (cumulative would be ~10)", p50)
	}
	if rate := seriesPoints(s.Timeline(), "lat_us:rate"); len(rate) != 1 || rate[0].V != 100 {
		t.Fatalf("hist rate = %+v, want 100/s", rate)
	}
	// Window 2 is empty: rate drops to 0 and no quantile point appears.
	s.Sample(3 * sim.Time(sim.Second))
	if rate := seriesPoints(s.Timeline(), "lat_us:rate"); len(rate) != 2 || rate[1].V != 0 {
		t.Fatalf("empty-window rate = %+v", rate)
	}
	if p50 = seriesPoints(s.Timeline(), "lat_us:p50"); len(p50) != 1 {
		t.Fatalf("empty window fabricated a quantile point: %+v", p50)
	}
	if p99 := seriesPoints(s.Timeline(), "lat_us:p99"); len(p99) != 1 {
		t.Fatalf("empty window fabricated a p99 point: %+v", p99)
	}
}

func TestSamplerPrefixes(t *testing.T) {
	a, b := metrics.New(), metrics.New()
	ca, cb := total(a, "ops_total"), total(b, "ops_total")
	ca.Add(1)
	cb.Add(2)
	s := NewSampler(64)
	s.Watch("shard0/", a)
	s.Watch("shard1/", b)
	s.Sample(0)
	ca.Add(4)
	cb.Add(8)
	s.Sample(1 * sim.Time(sim.Second))
	if pts := seriesPoints(s.Timeline(), "shard0/ops_total:rate"); len(pts) != 1 || pts[0].V != 4 {
		t.Fatalf("shard0 rate = %+v", pts)
	}
	if pts := seriesPoints(s.Timeline(), "shard1/ops_total:rate"); len(pts) != 1 || pts[0].V != 8 {
		t.Fatalf("shard1 rate = %+v", pts)
	}
}

// TestConcurrentSampleAndRead hammers a sampler and its timeline from
// concurrent goroutines — the record-while-expose race test the -race CI
// job checks.
func TestConcurrentSampleAndRead(t *testing.T) {
	reg := metrics.New()
	s := NewSampler(128)
	s.Watch("", reg)
	c := total(reg, "ops_total")
	h := reg.Histogram("lat_us")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	recorderDone := make(chan struct{})
	go func() { // recorder
		defer close(recorderDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Add(1)
			h.Observe(int64(i % 1000))
		}
	}()
	wg.Add(1)
	go func() { // sampler
		defer wg.Done()
		for i := 1; i <= 500; i++ {
			s.Sample(sim.Time(i) * sim.Time(sim.Millisecond))
		}
	}()
	wg.Add(1)
	go func() { // exposer
		defer wg.Done()
		for i := 0; i < 200; i++ {
			var sb strings.Builder
			if err := s.Timeline().WriteJSON(&sb); err != nil {
				t.Error(err)
				return
			}
			seriesPoints(s.Timeline(), "ops_total:rate")
			seriesNames(s.Timeline())
		}
	}()
	wg.Wait() // sampler and exposer finish; then stop the recorder
	close(stop)
	<-recorderDone
}

// TestTimelineSeriesBudget: LimitSeries caps distinct series — adds to
// new names beyond the budget are counted, not stored, while existing
// series keep recording.
func TestTimelineSeriesBudget(t *testing.T) {
	tl := NewTimeline(16)
	tl.LimitSeries(2)
	tl.Add("a", KindGauge, 1, 1)
	tl.Add("b", KindGauge, 1, 1)
	tl.Add("c", KindGauge, 1, 1) // over budget: dropped
	tl.Add("a", KindGauge, 2, 2) // existing: recorded
	if got := seriesNames(tl); len(got) != 2 {
		t.Fatalf("series = %v, want exactly [a b]", got)
	}
	if pts := seriesPoints(tl, "a"); len(pts) != 2 {
		t.Errorf("existing series stopped recording: %d points, want 2", len(pts))
	}
	if seriesPoints(tl, "c") != nil {
		t.Error("over-budget series was created")
	}
	if d := tl.Dump().Dropped; d != 1 {
		t.Errorf("DroppedSeries = %d, want 1", d)
	}
	if dump := tl.Dump(); dump.Dropped != 1 {
		t.Errorf("Dump.Dropped = %d, want 1", dump.Dropped)
	}
}

// TestSamplerSeriesBudget: a registry that grows per-entity labeled
// gauges (the per-client cardinality mistake) hits the sampler's budget
// instead of growing the timeline without bound.
func TestSamplerSeriesBudget(t *testing.T) {
	reg := metrics.New()
	s := NewSampler(8)
	s.LimitSeries(10)
	s.Watch("", reg)
	for i := 0; i < 100; i++ {
		v := float64(i)
		reg.GaugeFunc(fmt.Sprintf("g{client=%q}", fmt.Sprintf("c%03d", i)), func() float64 { return v })
	}
	s.Sample(sim.Time(sim.Second))
	s.Sample(2 * sim.Time(sim.Second))
	if n := len(seriesNames(s.Timeline())); n > 10 {
		t.Errorf("timeline grew to %d series past the 10-series budget", n)
	}
	if s.Timeline().Dump().Dropped == 0 {
		t.Error("no drops recorded despite 100 candidate series")
	}
	// The series kept are a function of the names, not of map order: the
	// first ten in name order.
	for i, name := range seriesNames(s.Timeline()) {
		if want := fmt.Sprintf("g{client=%q}", fmt.Sprintf("c%03d", i)); name != want {
			t.Errorf("series %d is %s, want %s", i, name, want)
		}
	}
}

// seriesNames and seriesPoints read a timeline the way its consumers do,
// through Dump.
func seriesNames(tl *Timeline) []string {
	var out []string
	for _, s := range tl.Dump().Series {
		out = append(out, s.Name)
	}
	return out
}

func seriesPoints(tl *Timeline, name string) []Point {
	for _, s := range tl.Dump().Series {
		if s.Name == name {
			return s.Points
		}
	}
	return nil
}
