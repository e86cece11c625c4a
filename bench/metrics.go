package main

import (
	"fmt"
	"math"
	"sort"
)

// The two clocks. A host reading is noisy and compared by ratio; a
// virtual reading (and a count made by the simulation) repeats exactly
// for a fixed seed and is compared for equality.
const (
	clockHost    = "host"
	clockVirtual = "virtual"
)

// metricDef declares one metric: BENCHMARK.json, the result documents and
// -check all take names, units and bounds from these tables.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Clock  string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it counts as a regression (0 for
	// per-layer metrics, which are context, not gates).
	Bound float64
	Help  string
}

// endToEnd are the metrics a user of the repository sees, defined so that
// every workload has a value for each. All are on the host clock: the
// virtual results are exact per seed, so they live in the per-layer
// ledger and are compared for equality by -check instead of by ratio.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Clock: clockHost, Bound: 0.25,
		Help: "median host seconds to set one unit of work up: build the world and populate it (fleets: a standalone BuildFleet; daemon: assemble, listen, populate, dial, look up)"},
	{Name: "wall_s", Unit: "s", Better: "lower", Clock: clockHost, Bound: 0.25,
		Help: "median host seconds per unit of work: the timed phases of one iteration (fleets: the whole scenario.Run; daemon: 1,000 round trips at depth 1)"},
	{Name: "host_allocs", Unit: "count", Better: "lower", Clock: clockHost, Bound: 0.06,
		Help: "median heap allocations per unit of work (daemon: per round trip at depth 8, both ends)"},
	{Name: "host_alloc_mb", Unit: "MB", Better: "lower", Clock: clockHost, Bound: 0.05,
		Help: "median megabytes allocated per unit of work (daemon: per round trip at depth 8, both ends)"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Clock: clockHost, Bound: 0.25,
		Help: "client RPCs completed per host second over all timed phases: simulated RPCs on the sim workloads, real round trips at depth 8 on daemon"},
}

// protos are the suffixes of per-protocol ledger entries.
var protos = []string{"snfs", "nfs"}

// spanKinds maps ledger names to span.Summary component labels.
var spanKinds = []struct{ name, display string }{
	{"client.cache_s", "client cache"},
	{"client.attr_s", "attr revalidate"},
	{"client.biod_wait_s", "biod wait"},
	{"rpc.wire_s", "wire"},
	{"server.cpu_s", "server cpu"},
	{"server.callback_s", "callback wait"},
	{"disk.queue_s", "disk queue"},
	{"disk.arm_s", "disk arm"},
}

// rpcProcs are the per-procedure client call counts kept in the ledger.
var rpcProcs = map[string][]string{
	"nfs":  {"getattr", "lookup", "read", "write"},
	"snfs": {"getattr", "lookup", "read", "write", "open", "close", "callback"},
}

// perLayer is the ledger printed by a traced run. Every workload prints
// every entry; an entry its layers never reach reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better, clock, help string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better, Clock: clock, Help: help})
	}
	perProto := func(name, unit, better, help string) {
		for _, p := range protos {
			add(name+"_"+p, unit, better, clockVirtual, help)
		}
	}
	// The virtual headline numbers: the paper's claims.
	perProto("sim_elapsed_s", "s", "lower", "virtual seconds of the timed phases")
	perProto("sim_rpcs", "count", "lower", "client RPCs in the timed phases")
	perProto("sim_latency_ms", "ms", "lower", "mean op latency (fleets)")
	perProto("sim_p95_latency_ms", "ms", "lower", "p95 op latency (fleets)")
	perProto("sim_goodput_ops_s", "1/s", "higher", "successful ops per virtual second (fleets)")
	for _, p := range []string{"nfs", "snfs"} {
		for _, proc := range rpcProcs[p] {
			add("rpc.calls."+proc+"_"+p, "count", "lower", clockVirtual, "client calls of this procedure")
		}
	}
	add("rpc.retransmits", "count", "lower", clockVirtual, "retransmitted calls, summed over the protocols run")
	add("sim.exec_workers", "count", "lower", clockVirtual, "executor goroutine high-water mark, largest over the protocols run")
	for _, k := range spanKinds {
		perProto(k.name, "s", "lower", "critical-path virtual seconds attributed to "+k.display)
	}
	perProto("server.cpu_util", "ratio", "lower", "server CPU busy fraction")
	perProto("disk.util", "ratio", "lower", "server disk arm busy fraction")
	perProto("simnet.link_util", "ratio", "lower", "shared Ethernet busy fraction")
	// Counters of the SNFS world where the workload runs one, else NFS.
	add("disk.writes", "count", "lower", clockVirtual, "server disk write operations")
	add("disk.reads", "count", "lower", clockVirtual, "server disk read operations")
	add("disk.gather_ratio", "ratio", "higher", clockVirtual, "block writes per arm operation")
	add("cache.hit_ratio", "ratio", "higher", clockVirtual, "client block-cache hits / lookups")
	add("cache.cancelled", "count", "higher", clockVirtual, "dirty blocks dropped by delete-before-write-back")
	add("simnet.bytes", "B", "lower", clockVirtual, "bytes carried by the simulated network")
	// The cliff beside fleet-overload: SNFS at the same population.
	add("storm.retransmits", "count", "lower", clockVirtual, "SNFS storm point: retransmitted calls")
	add("storm.goodput_ops_s", "1/s", "higher", clockVirtual, "SNFS storm point: successful ops per virtual second")
	add("storm.failed_frac", "ratio", "lower", clockVirtual, "SNFS storm point: failed ops / attempted")
	add("storm.latency_ms", "ms", "lower", clockVirtual, "SNFS storm point: mean op latency")
	// The live daemon, host clock.
	add("daemon.p50_us", "us", "lower", clockHost, "depth-1 round-trip latency, all ops")
	add("daemon.p99_us", "us", "lower", clockHost, "depth-1 round-trip latency, all ops")
	for _, op := range daemonOps {
		add("daemon."+op+"_p50_us", "us", "lower", clockHost, "depth-1 round-trip latency of this op")
	}
	add("daemon.serve_p50_us", "us", "lower", clockHost, "server registry serve histogram over the depth-1 phase, all procedures (log2 buckets)")
	add("daemon.transport_mean_us", "us", "lower", clockHost, "mean client-observed latency minus mean serve time: Inject, gateway, TCP, xdr")
	for _, p := range probes {
		add(p.name+".ns_op", "ns", "lower", clockHost, p.help)
		add(p.name+".allocs_op", "count", "lower", clockHost, p.help)
	}
	add("host.peak_rss_mb", "MB", "lower", clockHost, "peak resident set of the benchmark process")
	add("host.gc_pause_ms", "ms", "lower", clockHost, "total GC pause during the traced run")
	add("trace.overhead_frac", "ratio", "lower", clockHost, "traced / untraced wall_s - 1")
	return defs
}

// unmeasuredLayers are packages no workload reaches; listed in every
// traced document so their absence from the ledger is explicit.
var unmeasuredLayers = []string{"cluster", "view", "audit", "tsdb"}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4), so a spread
// computed here matches one computed over the result documents.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// byName indexes a metric table.
func byName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, def := range defs {
		m[def.Name] = def
	}
	return m
}

// median reading of host samples.
func hostMedian(def metricDef, xs []float64) reading {
	q1, med, q3 := quartiles(xs)
	return reading{Value: med, Unit: def.Unit, Clock: def.Clock, N: len(xs), Q1: q1, Q3: q3, Bound: def.Bound}
}

// single reading: a count or a value read once.
func single(def metricDef, v float64) reading {
	return reading{Value: v, Unit: def.Unit, Clock: def.Clock, N: 1, Q1: v, Q3: v, Bound: def.Bound}
}

// finish fills doc.Metrics from values in the order of defs, rejecting
// values the contract cannot carry.
func (d *document) finish(defs []metricDef, values map[string]reading) {
	d.order = defs
	for _, def := range defs {
		r, ok := values[def.Name]
		if !ok {
			r = reading{Unit: def.Unit, Clock: def.Clock}
		}
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			d.fail("%s is %v", def.Name, r.Value)
			r.Value = 0
		}
		d.Metrics[def.Name] = r
	}
	for name := range values {
		if _, ok := d.Metrics[name]; !ok {
			panic(fmt.Sprintf("bench: undeclared metric %q", name))
		}
	}
}
