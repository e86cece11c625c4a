package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records the benchmark's own spans: one around each call the
// benchmark makes into a layer (harness.Build, workload.Run*,
// scenario.Run, TCPClient.Call, proto.Marshal, every probe). Spans stay
// in memory and are written out when the run ends. Every method is safe
// on a nil tracer, which is how tracing is off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	iter  int
	spans []spanRecord
}

// spanRecord is one span: ID is its index+1, Parent 0 means a root.
type spanRecord struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Name      string `json:"name"`
	Iteration int    `json:"iteration"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setIteration stamps the spans that follow with iteration id n.
func (t *tracer) setIteration(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.iter = n
	t.mu.Unlock()
}

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRecord{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Iteration: t.iter, StartNs: now,
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// layerSelf is the per-name roll-up written beside the spans: a layer's
// self time is its spans' duration minus what their children cover.
type layerSelf struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []layerSelf {
	// Children may overlap (the daemon's closed loops run concurrently
	// under one phase span), so a parent's covered time is the union of
	// its children's intervals, not their sum.
	children := make([][]spanRecord, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	covered := func(id int) int64 {
		cs := children[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		var total, end int64
		for _, c := range cs {
			if c.StartNs > end {
				total += c.EndNs - c.StartNs
				end = c.EndNs
			} else if c.EndNs > end {
				total += c.EndNs - end
				end = c.EndNs
			}
		}
		return total
	}
	byName := map[string]*layerSelf{}
	for _, s := range t.spans {
		l := byName[s.Name]
		if l == nil {
			l = &layerSelf{Name: s.Name}
			byName[s.Name] = l
		}
		d := s.EndNs - s.StartNs
		l.Count++
		l.TotalMs += float64(d) / 1e6
		l.SelfMs += float64(d-covered(s.ID)) / 1e6
	}
	out := make([]layerSelf, 0, len(byName))
	for _, l := range byName {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans and their roll-up under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Layers []layerSelf  `json:"layers"`
		Spans  []spanRecord `json:"spans"`
	}{t.selfTimes(), t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
