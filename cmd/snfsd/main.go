// Command snfsd is a standalone Spritely NFS (or plain NFS) server
// daemon: the same server host the experiments measure
// (cluster.NewServerHost), served over real TCP. Each connection becomes
// a client host; SNFS callbacks travel back over the same connection.
//
// Usage:
//
//	snfsd -addr :2049 -proto snfs
//	snfsd -addr :2049 -proto nfs -populate
//	snfsd -addr :2049 -http :9090 -flight 4096
//
// With -http the daemon serves a live observability plane: /metrics
// (Prometheus text), /healthz, /vars (JSON), /timeline (sampled metric
// series), /flight (the black-box event ring), /shardmap, /slowops (the
// span-derived critical-path breakdown and slowest-operations capture,
// with -spans), /spans/<op> (one captured span tree), and
// /debug/pprof. SIGUSR1 dumps metrics (to -metrics-dump if given),
// SIGUSR2 dumps the flight recorder (to -flight-dump if given), and an
// audit violation dumps the flight recorder automatically.
//
// A daemon can serve one shard of a federated namespace: give every
// member the same -shard-map and its own -shard-id, e.g.
//
//	snfsd -addr :2049 -shard-id 0 -shard-map "0=localhost:2049,1=localhost:2050,/src=1"
//	snfsd -addr :2050 -shard-id 1 -shard-map "0=localhost:2049,1=localhost:2050,/src=1"
//
// Root-level names owned by another shard are refused with NOTHOME so a
// routing client can follow the map (see internal/cluster).
//
// Use snfscli to talk to it.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/cluster"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/tsdb"
)

func main() {
	addr := flag.String("addr", ":2049", "TCP listen address")
	protoFlag := flag.String("proto", "snfs", "protocol to serve: snfs, nfs, or rfs")
	workers := flag.Int("workers", 8, "service thread pool size")
	populate := flag.Bool("populate", false, "create a small sample tree at startup")
	traceCap := flag.Int("trace-cap", 0, "attach a trace ring of this many events (0 = off); dumped with the metrics")
	auditJournal := flag.String("audit-journal", "", "arm the protocol auditor (snfs only) and write its JSONL journal here (\"-\" for stderr)")
	shardMap := flag.String("shard-map", "", "serve one shard of a federation: \"0=host:port,1=host:port,/prefix=1[,v=K]\"")
	shardID := flag.Uint("shard-id", 0, "this daemon's shard id within -shard-map")
	httpAddr := flag.String("http", "", "serve the HTTP observability plane (/metrics, /healthz, /vars, /timeline, /flight, /shardmap, /view, /debug/pprof) on this address")
	sampleEvery := flag.Duration("sample-interval", time.Second, "metric sampling interval behind /timeline (0 = off; needs -http)")
	flightCap := flag.Int("flight", 0, "flight-recorder capacity in events (0 = off); dumped on SIGUSR2 and on audit violations")
	spansCap := flag.Int("spans", 0, "arm causal span tracing, capturing this many slowest operations (0 = off); served at /slowops and /spans/<op>")
	flightDump := flag.String("flight-dump", "", "write flight-recorder dumps to this file (default stderr)")
	metricsDump := flag.String("metrics-dump", "", "SIGUSR1 writes the metrics dump to this file instead of stderr")
	flag.Parse()

	var smap proto.ShardMap
	if *shardMap != "" {
		var err error
		smap, err = cluster.ParseMapSpec(*shardMap)
		if err != nil {
			log.Fatalf("snfsd: -shard-map: %v", err)
		}
		if int(*shardID) >= len(smap.Servers) {
			log.Fatalf("snfsd: -shard-id %d out of range (map has %d servers)", *shardID, len(smap.Servers))
		}
	}

	pr, ok := map[string]cluster.Proto{"snfs": cluster.SNFS, "nfs": cluster.NFS, "rfs": cluster.RFS}[*protoFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "snfsd: unknown protocol %q\n", *protoFlag)
		os.Exit(2)
	}

	k := sim.NewKernel(1)
	network := simnet.New(k, simnet.Config{}) // zero-latency internal fabric

	reg := metrics.New()
	in := cluster.Instruments{Metrics: reg}
	if *spansCap > 0 {
		in.Spans = span.NewRecorder(k.Now, *spansCap)
		in.Spans.EnableMetrics(reg)
	}
	if *traceCap > 0 {
		in.Tracer = trace.New(k.Now, *traceCap)
	}
	if *flightCap > 0 {
		in.Flight = tsdb.NewFlightRecorder(k.Now, *flightCap)
	}
	// dumpFlight writes the black box to -flight-dump (or stderr), once
	// per trigger. Flight dumps are whole documents, so a file sink is
	// recreated each time: the file always holds the latest dump.
	dumpFlight := func(trigger string) {
		if in.Flight == nil {
			log.Printf("snfsd: no flight recorder (-flight 0); dump for %q skipped", trigger)
			return
		}
		sink := io.Writer(os.Stderr)
		if *flightDump != "" {
			f, err := os.Create(*flightDump)
			if err != nil {
				log.Printf("snfsd: flight dump: %v", err)
				return
			}
			defer f.Close()
			sink = f
			log.Printf("snfsd: flight dump (%s) -> %s", trigger, *flightDump)
		}
		in.Flight.WriteText(sink, trigger)
	}
	if *auditJournal != "" {
		sink := os.Stderr
		if *auditJournal != "-" {
			f, err := os.Create(*auditJournal)
			if err != nil {
				log.Fatalf("snfsd: audit journal: %v", err)
			}
			defer f.Close()
			sink = f
		}
		in.Auditor = audit.New(k, sink)
		in.Auditor.EnableMetrics(reg)
		if pr != cluster.SNFS {
			log.Printf("snfsd: -audit-journal only audits the snfs protocol; journal will stay empty")
		}
	}
	// First violation dumps the black box: the protocol history that led
	// to it matters more than any later violation's.
	in.FlightDumpOnViolation(dumpFlight)
	// The daemon's "disk" is free: real I/O time is real already. So is
	// its CPU: RunRealtime spends every modelled cost as a real wait,
	// and server.Config takes a stated cost as written, so this is 1 µs
	// per RPC and nothing per KB — the least a Config can ask for, the
	// zero Config being the 1989 server.
	host := cluster.NewServerHost(k, network, cluster.ServerSpec{
		Proto:   pr,
		Addr:    "server",
		Workers: *workers,
		Config:  server.Config{FSID: 1, CPUPerOp: 1, CPUPerKB: 0},
	}, in)
	store := host.Media.Store()
	if !smap.IsZero() {
		if *protoFlag == "rfs" {
			log.Fatalf("snfsd: -shard-map is not supported for rfs")
		}
		host.Base.SetShardMap(smap, uint32(*shardID))
		log.Printf("snfsd: shard %d of %d (map v%d, %d assignments)",
			*shardID, len(smap.Servers), smap.Version, len(smap.Assignments))
	}

	if *populate {
		root := store.Root()
		dir, err := store.Mkdir(root, "demo", 0o755)
		if err != nil {
			log.Fatalf("populate: %v", err)
		}
		for i, content := range []string{"hello from snfsd\n", "spritely nfs demo\n"} {
			a, err := store.Create(dir.Ino, fmt.Sprintf("file%d.txt", i), 0o644)
			if err != nil {
				log.Fatalf("populate: %v", err)
			}
			if _, err := store.WriteAt(a.Ino, 0, []byte(content)); err != nil {
				log.Fatalf("populate: %v", err)
			}
		}
	}

	// Shutdown signals are caught before service is announced, so whoever
	// reads the "serving" line may stop the daemon gracefully at once.
	// SIGTERM as well as SIGINT: a shell that starts the daemon with `&`
	// leaves SIGINT ignored in it, and `kill` sends SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("snfsd: %v", err)
	}
	log.Printf("snfsd: serving %s on %s (root %s, %d workers)", *protoFlag, ln.Addr(), host.Base.RootHandle(), *workers)

	gw := rpc.NewGateway(k, network, "server")
	go func() {
		if err := gw.Serve(ln); err != nil {
			log.Printf("snfsd: accept: %v", err)
		}
	}()

	// The HTTP observability plane. The sampler tick is a self-
	// rescheduling kernel event registered before RunRealtime, so samples
	// are taken inside the event loop — race-free against the serving
	// path — while the HTTP handlers read through the concurrency-safe
	// registry, timeline, and flight ring from their own goroutines.
	var healthy atomic.Bool
	healthy.Store(true)
	if *httpAddr != "" {
		var smp *tsdb.Sampler
		if *sampleEvery > 0 {
			smp = tsdb.NewSampler(0)
			smp.Watch("", reg)
			iv := sim.Duration((*sampleEvery).Microseconds())
			var tick func()
			tick = func() {
				smp.Sample(k.Now())
				k.After(iv, tick)
			}
			k.After(iv, tick)
		}
		plane := tsdb.NewHandler(tsdb.PlaneOptions{
			Registry: reg,
			Sampler:  smp,
			Flight:   in.Flight,
			Spans:    in.Spans,
			ShardMap: func() any {
				if smap.IsZero() {
					return nil
				}
				return smap
			},
			// The standalone daemon runs unreplicated: one degenerate
			// view row per known shard, no backup, no lag. The simulated
			// cluster's failover experiments report the live equivalent
			// (snfs-bench -run failover).
			View: func() any {
				type shardView struct {
					Shard   uint32 `json:"shard"`
					View    uint64 `json:"view"`
					Primary string `json:"primary"`
					Backup  string `json:"backup"`
					Synced  bool   `json:"synced"`
					Lag     uint32 `json:"lag"`
				}
				if smap.IsZero() {
					return []shardView{{Shard: 0, View: 1, Primary: *addr, Synced: true}}
				}
				out := make([]shardView, 0, len(smap.Servers))
				for i, s := range smap.Servers {
					out = append(out, shardView{Shard: uint32(i), View: 1, Primary: s, Synced: true})
				}
				return out
			},
			Healthy: healthy.Load,
		})
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("snfsd: -http: %v", err)
		}
		log.Printf("snfsd: observability plane on http://%s", hln.Addr())
		go func() {
			if err := http.Serve(hln, plane); err != nil {
				log.Printf("snfsd: http: %v", err)
			}
		}()
		defer hln.Close()
	}

	// SIGUSR1 dumps the metrics registry (Prometheus text format) to
	// -metrics-dump or stderr without disturbing service; snfscli stats
	// does the same over the wire. SIGUSR2 dumps the flight recorder.
	dump := make(chan os.Signal, 1)
	signal.Notify(dump, syscall.SIGUSR1, syscall.SIGUSR2)
	go func() {
		for s := range dump {
			if s == syscall.SIGUSR2 {
				dumpFlight("SIGUSR2")
				continue
			}
			sink := os.Stderr
			if *metricsDump != "" {
				f, err := os.Create(*metricsDump)
				if err != nil {
					log.Printf("snfsd: metrics dump: %v", err)
					continue
				}
				sink = f
				log.Printf("snfsd: metrics dump (SIGUSR1) -> %s", *metricsDump)
			} else {
				log.Printf("snfsd: metrics dump (SIGUSR1)")
			}
			reg.WriteProm(sink)
			if in.Tracer != nil {
				in.Tracer.Dump(sink)
			}
			if in.Auditor != nil {
				fmt.Fprint(sink, in.Auditor.Summary())
			}
			if sink != os.Stderr { // stderr stays open: the log goes there
				sink.Close()
			}
		}
	}()

	stop := make(chan struct{})
	go func() {
		<-sig
		log.Printf("snfsd: shutting down")
		healthy.Store(false)
		ln.Close()
		close(stop)
	}()
	k.RunRealtime(stop)
	log.Printf("snfsd: final metrics")
	reg.WriteProm(os.Stderr)
	if in.Auditor != nil {
		fmt.Fprint(os.Stderr, in.Auditor.Summary())
	}
}
