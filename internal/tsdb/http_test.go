package tsdb

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spritelynfs/internal/metrics"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/span"
)

func testPlane(t *testing.T) (http.Handler, *metrics.Registry, *Sampler, *FlightRecorder) {
	t.Helper()
	reg := metrics.New()
	smp := NewSampler(64)
	smp.Watch("", reg)
	fr := NewFlightRecorder(clockAt(5), 64)
	h := NewHandler(PlaneOptions{
		Registry: reg,
		Sampler:  smp,
		Flight:   fr,
		ShardMap: func() any { return map[string]int{"shards": 4} },
	})
	return h, reg, smp, fr
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestPlaneEndpoints(t *testing.T) {
	h, reg, smp, fr := testPlane(t)
	ops := 3.0
	reg.GaugeFunc("snfs_ops_total", func() float64 { return ops })
	reg.GaugeFunc("depth", func() float64 { return 2 })
	reg.Histogram("lat_us").Observe(100)
	smp.Sample(0)
	ops += 7
	smp.Sample(sim.Time(sim.Second))
	fr.Record("server", "rpc", 9, "read")

	rec := get(t, h, "/healthz")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz = %d %q", rec.Code, rec.Body.String())
	}

	rec = get(t, h, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "snfs_ops_total 10") {
		t.Fatalf("/metrics missing total:\n%s", rec.Body.String())
	}

	rec = get(t, h, "/vars")
	var vars Vars
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/vars not JSON: %v", err)
	}
	if vars.Gauges["snfs_ops_total"] != 10 || vars.Gauges["depth"] != 2 {
		t.Fatalf("/vars = %+v", vars)
	}
	if hv := vars.Histograms["lat_us"]; hv.Count != 1 || hv.Sum != 100 {
		t.Fatalf("/vars histogram = %+v", hv)
	}

	rec = get(t, h, "/timeline")
	var tld TimelineDump
	if err := json.Unmarshal(rec.Body.Bytes(), &tld); err != nil {
		t.Fatalf("/timeline not JSON: %v", err)
	}
	found := false
	for _, s := range tld.Series {
		if s.Name == "snfs_ops_total:rate" && len(s.Points) == 1 && s.Points[0].V == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("/timeline missing rate series: %+v", tld.Series)
	}

	rec = get(t, h, "/flight")
	var fd FlightDump
	if err := json.Unmarshal(rec.Body.Bytes(), &fd); err != nil {
		t.Fatalf("/flight not JSON: %v", err)
	}
	if fd.Total != 1 || len(fd.Events) != 1 || fd.Events[0].Op != 9 {
		t.Fatalf("/flight = %+v", fd)
	}

	rec = get(t, h, "/shardmap")
	if !strings.Contains(rec.Body.String(), `"shards": 4`) {
		t.Fatalf("/shardmap = %q", rec.Body.String())
	}

	rec = get(t, h, "/debug/pprof/heap")
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/heap = %d", rec.Code)
	}
}

// TestPlaneNilBackends: a plane with nothing armed must still answer
// every endpoint with a well-formed document.
func TestPlaneNilBackends(t *testing.T) {
	h := NewHandler(PlaneOptions{})
	for _, path := range []string{"/metrics", "/healthz", "/vars", "/timeline", "/flight", "/shardmap", "/slowops"} {
		rec := get(t, h, path)
		if rec.Code != 200 {
			t.Fatalf("%s = %d with nil backends", path, rec.Code)
		}
	}
}

func TestPlaneUnhealthy(t *testing.T) {
	h := NewHandler(PlaneOptions{Healthy: func() bool { return false }})
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d, want 503", rec.Code)
	}
}

// TestPlaneSlowOps drives one operation through a span recorder and reads
// it back through /slowops and /spans/<op>.
func TestPlaneSlowOps(t *testing.T) {
	k := sim.NewKernel(1)
	rec := span.NewRecorder(k.Now, 8)
	var op uint64
	k.Go("client", func(p *sim.Proc) {
		op = p.BeginOp()
		root := rec.Begin(p, "client", span.Syscall, "read")
		p.Sleep(10 * sim.Millisecond)
		root.End()
	})
	k.Run()
	h := NewHandler(PlaneOptions{Spans: rec})

	r := get(t, h, "/slowops")
	var sum span.Summary
	if err := json.Unmarshal(r.Body.Bytes(), &sum); err != nil {
		t.Fatalf("/slowops not JSON: %v", err)
	}
	if sum.Ops != 1 || len(sum.SlowOps) != 1 || sum.SlowOps[0].Op != op {
		t.Fatalf("/slowops = %+v", sum)
	}

	r = get(t, h, fmt.Sprintf("/spans/%d", op))
	var so span.SlowOp
	if err := json.Unmarshal(r.Body.Bytes(), &so); err != nil {
		t.Fatalf("/spans/%d not JSON: %v", op, err)
	}
	if so.Op != op || len(so.Spans) != 1 || so.DurUS != int64(10*sim.Millisecond) {
		t.Fatalf("/spans/%d = %+v", op, so)
	}

	if r = get(t, h, "/spans/999999"); r.Code != http.StatusNotFound {
		t.Fatalf("/spans/<missing> = %d, want 404", r.Code)
	}
	if r = get(t, h, "/spans/xyz"); r.Code != http.StatusBadRequest {
		t.Fatalf("/spans/xyz = %d, want 400", r.Code)
	}
}
