package tsdb

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"spritelynfs/internal/metrics"
	"spritelynfs/internal/span"
)

// PlaneOptions configures the HTTP observability plane. Every field is
// optional: endpoints whose backing piece is nil serve an empty (but
// well-formed) document, so the plane can be mounted before all
// subsystems are armed.
type PlaneOptions struct {
	// Registry backs /metrics (Prometheus text) and /vars (JSON).
	Registry *metrics.Registry
	// Sampler backs /timeline.
	Sampler *Sampler
	// Flight backs /flight.
	Flight *FlightRecorder
	// ShardMap, when non-nil, is rendered as JSON at /shardmap (kept as
	// an opaque value so this package needs no protocol dependency).
	ShardMap func() any
	// View, when non-nil, is rendered as JSON at /view: per-shard view
	// number, primary, backup, and replication lag (opaque for the same
	// reason as ShardMap).
	View func() any
	// Spans backs /slowops (the live critical-path breakdown plus the
	// top-K capture) and /spans/<op> (one captured tree by causal op ID).
	Spans *span.Recorder
	// Healthy, when non-nil, gates /healthz; a nil func means always
	// healthy once the plane is up.
	Healthy func() bool
}

// NewHandler builds the observability plane: /metrics, /healthz, /vars,
// /timeline, /flight, /shardmap, and the net/http/pprof endpoints under
// /debug/pprof/. The handlers are registered on a private mux — nothing
// leaks into http.DefaultServeMux.
func NewHandler(opt PlaneOptions) http.Handler {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(v)
	}

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		opt.Registry.WriteProm(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if opt.Healthy != nil && !opt.Healthy() {
			http.Error(w, "unhealthy", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, varsDoc(opt.Registry.Snapshot()))
	})
	mux.HandleFunc("/timeline", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, opt.Sampler.Timeline().Dump())
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, opt.Flight.Dump("http"))
	})
	mux.HandleFunc("/shardmap", func(w http.ResponseWriter, r *http.Request) {
		if opt.ShardMap == nil {
			writeJSON(w, nil)
			return
		}
		writeJSON(w, opt.ShardMap())
	})
	mux.HandleFunc("/view", func(w http.ResponseWriter, r *http.Request) {
		if opt.View == nil {
			writeJSON(w, nil)
			return
		}
		writeJSON(w, opt.View())
	})
	mux.HandleFunc("/slowops", func(w http.ResponseWriter, r *http.Request) {
		// Elapsed 0 = the recorder's own observed window; the daemon does
		// not know the client count, so wall time is per-client.
		s := opt.Spans.Summarize(0, 1)
		if s == nil {
			s = &span.Summary{}
		}
		writeJSON(w, s)
	})
	mux.HandleFunc("/spans/", func(w http.ResponseWriter, r *http.Request) {
		raw := strings.TrimPrefix(r.URL.Path, "/spans/")
		op, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			http.Error(w, "bad op id", http.StatusBadRequest)
			return
		}
		so, ok := opt.Spans.Lookup(op)
		if !ok {
			http.Error(w, "op not captured", http.StatusNotFound)
			return
		}
		writeJSON(w, so)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// HistVar is the /vars rendering of a histogram: the summary numbers a
// watch display wants, not raw buckets.
type HistVar struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Max   int64   `json:"max"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// Vars is the /vars document schema.
type Vars struct {
	Gauges     map[string]float64 `json:"gauges"`
	Histograms map[string]HistVar `json:"histograms"`
}

// varsDoc converts a registry snapshot into the /vars form.
func varsDoc(s metrics.Snapshot) Vars {
	v := Vars{Gauges: s.Gauges, Histograms: map[string]HistVar{}}
	for n, h := range s.Hists {
		v.Histograms[n] = HistVar{
			Count: h.Count, Sum: h.Sum, Max: h.Max,
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		}
	}
	return v
}
