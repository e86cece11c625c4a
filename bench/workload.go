package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// workload is one named set of inputs. prepare derives the inputs from
// the seed and returns the unit of work to repeat.
type workload struct {
	name    string
	why     string
	prepare func(opt options) (unit, error)
}

// unit runs one iteration: set a fresh world up, run the timed phases,
// verify the outputs. warm marks the discarded first iteration, which a
// unit may shorten. tr is nil unless the run is traced.
type unit interface {
	iterate(tr *tracer, warm bool) (iteration, error)
}

// iteration is what one unit of work measured.
type iteration struct {
	// Host clock, already normalised to the workload's unit of work.
	setupS, wallS   float64
	allocs, allocMB float64
	// ops completed in opSeconds host seconds (the ops_per_s terms).
	ops        int64
	opSeconds  float64
	attempted  int64
	failed     int64
	violations []string
	// virtual holds the exact simulated results; every iteration of a
	// run must reproduce them bit for bit.
	virtual map[string]float64
	// layer holds the remaining per-layer readings of a traced iteration.
	layer map[string]float64
}

var workloads = []workload{
	{
		name:    "andrew",
		why:     "paper Tables 5-1/5-2: small files, metadata-heavy, proc-mode kernel and queue-mode rpc; an attr or lookup change shows here and not in sort",
		prepare: prepareAndrew,
	},
	{
		name:    "sort",
		why:     "paper Table 5-3: write-heavy 8 KiB data path, temp files deleted before write-back, 1.8 GB allocated per iteration; a data-path change shows here and not in andrew",
		prepare: prepareSort,
	},
	{
		name:    "fleet",
		why:     "web-asset preset, 1,000 Zipf-skewed clients, both protocols: task-mode kernel, executor and event-mode endpoints below the knee, where latency follows RPC counts and not queueing",
		prepare: prepareFleet,
	},
	{
		name:    "fleet-overload",
		why:     "same preset at 2,000 clients under NFS: past the 1.5x knee but short of the retransmit cliff, so the serve queue and executor pool are deep yet every op completes on every seed",
		prepare: prepareOverload,
	},
	{
		name:    "daemon",
		why:     "the snfsd stack assembled in-process and driven over loopback TCP: the only host-clock, real-socket path (Inject funnel, gateway copy, framing, xdr, handlers with zero modelled cost)",
		prepare: prepareDaemon,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// minIterations is the fewest timed iterations a run reports a median of.
const minIterations = 3

func runWorkload(w workload, opt options) (*document, error) {
	doc := newDocument(w, opt)
	u, err := w.prepare(opt)
	if err != nil {
		return nil, err
	}
	if _, err := u.iterate(nil, true); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if opt.trace {
		return doc, runTraced(doc, u, opt)
	}
	its, err := iterateFor(u, nil, opt.seconds, minIterations)
	if err != nil {
		return nil, err
	}
	doc.collect(its)
	doc.finish(endToEnd, endToEndReadings(its))
	return doc, nil
}

// iterateFor repeats the unit until budget seconds have passed and at
// least min iterations have run. Each iteration starts from a collected
// heap, so none inherits the garbage (or a collection in progress) of the
// one before.
func iterateFor(u unit, tr *tracer, budget float64, min int) ([]iteration, error) {
	var its []iteration
	start := time.Now()
	for len(its) < min || time.Since(start).Seconds() < budget {
		runtime.GC()
		tr.setIteration(len(its) + 1)
		it, err := u.iterate(tr, false)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", len(its)+1, err)
		}
		its = append(its, it)
	}
	return its, nil
}

// collect folds the iterations' correctness into the document: operation
// counts, violations, and the determinism check on the virtual clock.
func (d *document) collect(its []iteration) {
	for i, it := range its {
		d.Attempted += it.attempted
		d.Failed += it.failed
		for _, v := range it.violations {
			d.fail("iteration %d: %s", i+1, v)
		}
		for name, v := range it.virtual {
			if first := its[0].virtual[name]; v != first {
				d.fail("iteration %d: virtual result %s = %v, iteration 1 had %v", i+1, name, v, first)
			}
		}
	}
	if d.Failed > 0 {
		d.fail("%d of %d operations failed", d.Failed, d.Attempted)
	}
	if d.Attempted < 1 {
		d.fail("no operations attempted")
	}
}

func endToEndReadings(its []iteration) map[string]reading {
	col := func(f func(iteration) float64) []float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = f(it)
		}
		return xs
	}
	var ops int64
	var secs float64
	for _, it := range its {
		ops += it.ops
		secs += it.opSeconds
	}
	defs := byName(endToEnd)
	rate := single(defs["ops_per_s"], float64(ops)/secs)
	rate.N = len(its)
	return map[string]reading{
		"setup_s":       hostMedian(defs["setup_s"], col(func(it iteration) float64 { return it.setupS })),
		"wall_s":        hostMedian(defs["wall_s"], col(func(it iteration) float64 { return it.wallS })),
		"host_allocs":   hostMedian(defs["host_allocs"], col(func(it iteration) float64 { return it.allocs })),
		"host_alloc_mb": hostMedian(defs["host_alloc_mb"], col(func(it iteration) float64 { return it.allocMB })),
		"ops_per_s":     rate,
	}
}

// runTraced is the -trace 1 run: a few iterations with tracing off to
// give the overhead its base, the same number with the span recorder and
// metrics registry armed and the benchmark's own spans recording, then
// the isolated host-clock probes.
func runTraced(doc *document, u unit, opt options) error {
	var gc0 debug.GCStats
	debug.ReadGCStats(&gc0)

	const minTraced = 2
	plain, err := iterateFor(u, nil, opt.seconds/4, minTraced)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := iterateFor(u, tr, opt.seconds/4, minTraced)
	if err != nil {
		return err
	}
	doc.collect(append(plain, traced...))

	values := map[string]float64{}
	last := traced[len(traced)-1]
	for name, v := range last.virtual {
		values[name] = v
	}
	for name, v := range last.layer {
		values[name] = v
	}
	for name, v := range plain[0].virtual {
		if values[name] != v {
			doc.fail("virtual result %s = %v traced, %v untraced: tracing must not move the virtual clock", name, values[name], v)
		}
	}
	wall := func(its []iteration) float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = it.wallS
		}
		_, med, _ := quartiles(xs)
		return med
	}
	doc.UntracedWallS = wall(plain)
	values["trace.overhead_frac"] = wall(traced)/doc.UntracedWallS - 1
	if x, ok := u.(interface {
		extraLedger(*tracer) (map[string]float64, error)
	}); ok {
		extra, err := x.extraLedger(tr)
		if err != nil {
			return err
		}
		for name, v := range extra {
			values[name] = v
		}
	}

	nProbe := 1.0
	if opt.quick {
		nProbe = 0.02
	}
	for _, p := range probes {
		sp := tr.start(0, "probe/"+p.name)
		s, err := p.run(int(float64(p.n)*nProbe) + 1)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		values[p.name+".ns_op"] = s.nsOp
		values[p.name+".allocs_op"] = s.allocsOp
	}

	var gc1 debug.GCStats
	debug.ReadGCStats(&gc1)
	values["host.gc_pause_ms"] = float64(gc1.PauseTotal-gc0.PauseTotal) / float64(time.Millisecond)
	values["host.peak_rss_mb"] = peakRSSMB()

	defs := byName(perLayer)
	readings := map[string]reading{}
	for name, v := range values {
		readings[name] = single(defs[name], v) // finish rejects a name defs lacks
	}
	doc.finish(perLayer, readings)
	doc.Unmeasured = unmeasuredLayers
	doc.SpanFile, err = tr.write(opt.out, doc.Workload, opt.seed)
	return err
}

// peakRSSMB reads the process's peak resident set from the kernel.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostCost measures fn on the host clock: seconds, heap allocations and
// megabytes allocated.
func hostCost(fn func()) (seconds, allocs, allocMB float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	fn()
	seconds = time.Since(t0).Seconds()
	runtime.ReadMemStats(&b)
	return seconds, float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc-a.TotalAlloc) / 1e6
}
