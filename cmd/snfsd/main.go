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
// series), /flight (the host's event ring, its black box), /shardmap,
// /slowops (the span-derived critical-path breakdown and
// slowest-operations capture, with -spans), /spans/<op> (one captured
// span tree), and /debug/pprof. SIGUSR1 dumps metrics (to -metrics-dump
// if given), SIGUSR2 dumps the ring (to -flight-dump if given), and an
// audit violation dumps the ring automatically.
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
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/cluster"
	"spritelynfs/internal/localfs"
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

// config is what the flags resolve to: everything run needs to serve.
type config struct {
	proto        cluster.Proto
	addr         string // -addr as given, for /view
	workers      int
	populate     bool
	auditJournal string
	smap         proto.ShardMap
	shardID      uint32
	sampleEvery  time.Duration
	flight       int
	spans        int
	flightDump   string
	metricsDump  string
	ln           net.Listener     // the file service
	plane        net.Listener     // the HTTP plane; nil is off
	dumps        <-chan os.Signal // SIGUSR1 dumps the metrics, SIGUSR2 the ring
}

func main() {
	var cfg config
	addr := flag.String("addr", ":2049", "TCP listen address")
	protoFlag := flag.String("proto", "snfs", "protocol to serve: snfs, nfs, or rfs")
	flag.IntVar(&cfg.workers, "workers", 8, "service thread pool size")
	flag.BoolVar(&cfg.populate, "populate", false, "create a small sample tree at startup")
	flag.StringVar(&cfg.auditJournal, "audit-journal", "", "arm the protocol auditor (snfs only) and write its JSONL journal here (\"-\" for stderr)")
	shardMap := flag.String("shard-map", "", "serve one shard of a federation: \"0=host:port,1=host:port,/prefix=1[,v=K]\"")
	shardID := flag.Uint("shard-id", 0, "this daemon's shard id within -shard-map")
	httpAddr := flag.String("http", "", "serve the HTTP observability plane (/metrics, /healthz, /vars, /timeline, /flight, /shardmap, /view, /debug/pprof) on this address")
	flag.DurationVar(&cfg.sampleEvery, "sample-interval", time.Second, "metric sampling interval behind /timeline (0 = off; needs -http)")
	flag.IntVar(&cfg.flight, "flight", 0, "arm the host's event ring with this many events (0 = off); dumped on SIGUSR2, at /flight and on audit violations")
	flag.IntVar(&cfg.spans, "spans", 0, "arm causal span tracing, capturing this many slowest operations (0 = off); served at /slowops and /spans/<op>")
	flag.StringVar(&cfg.flightDump, "flight-dump", "", "write ring dumps to this file (default stderr)")
	flag.StringVar(&cfg.metricsDump, "metrics-dump", "", "SIGUSR1 writes the metrics dump to this file instead of stderr")
	flag.Parse()

	var ok bool
	if cfg.proto, ok = map[string]cluster.Proto{"snfs": cluster.SNFS, "nfs": cluster.NFS, "rfs": cluster.RFS}[*protoFlag]; !ok {
		fmt.Fprintf(os.Stderr, "snfsd: unknown protocol %q\n", *protoFlag)
		os.Exit(2)
	}
	if *shardMap != "" {
		var err error
		if cfg.smap, err = cluster.ParseMapSpec(*shardMap); err != nil {
			log.Fatalf("snfsd: -shard-map: %v", err)
		}
		if int(*shardID) >= len(cfg.smap.Servers) {
			log.Fatalf("snfsd: -shard-id %d out of range (map has %d servers)", *shardID, len(cfg.smap.Servers))
		}
		if cfg.proto == cluster.RFS {
			log.Fatalf("snfsd: -shard-map is not supported for rfs")
		}
		cfg.shardID = uint32(*shardID)
	}

	// Shutdown signals are caught before service is announced, so whoever
	// reads the "serving" line may stop the daemon gracefully at once.
	// SIGTERM as well as SIGINT: a shell that starts the daemon with `&`
	// leaves SIGINT ignored in it, and `kill` sends SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	dumps := make(chan os.Signal, 1)
	signal.Notify(dumps, syscall.SIGUSR1, syscall.SIGUSR2)
	cfg.dumps = dumps

	var err error
	cfg.addr = *addr
	if cfg.ln, err = net.Listen("tcp", *addr); err != nil {
		log.Fatalf("snfsd: %v", err)
	}
	if *httpAddr != "" {
		if cfg.plane, err = net.Listen("tcp", *httpAddr); err != nil {
			log.Fatalf("snfsd: -http: %v", err)
		}
	}
	stop := make(chan struct{})
	go func() {
		<-sig
		log.Printf("snfsd: shutting down")
		close(stop)
	}()
	if err := run(cfg, stop); err != nil {
		log.Fatalf("snfsd: %v", err)
	}
}

// daemon is one running server: its kernel and the instruments the
// plane and the dumps read.
type daemon struct {
	cfg  config
	k    *sim.Kernel
	stop <-chan struct{}
	reg  *metrics.Registry
	in   trace.Instruments
}

// run serves cfg.ln (and the plane on cfg.plane) until stop closes, then
// writes the final metrics and the auditor's summary to stderr. The
// kernel's event loop runs on the calling goroutine and owns everything
// the server touches — store, state table, gauges, ring, spans, sampler —
// so every other goroutine reads them through onLoop.
func run(cfg config, stop <-chan struct{}) error {
	k := sim.NewKernel(1)
	network := simnet.New(k, simnet.Config{}) // zero-latency internal fabric
	d := &daemon{cfg: cfg, k: k, stop: stop, reg: metrics.New()}
	d.in.Metrics = d.reg
	if cfg.spans > 0 {
		d.in.Spans = span.NewRecorder(k.Now, cfg.spans)
		d.in.Spans.EnableMetrics(d.reg)
	}
	if cfg.flight > 0 {
		d.in.Tracer = trace.New(k.Now, cfg.flight)
	}
	if cfg.auditJournal != "" {
		sink := os.Stderr
		if cfg.auditJournal != "-" {
			f, err := os.Create(cfg.auditJournal)
			if err != nil {
				return fmt.Errorf("audit journal: %w", err)
			}
			defer f.Close()
			sink = f
		}
		d.in.Auditor = audit.New(k, sink)
		d.in.Auditor.EnableMetrics(d.reg)
		if cfg.proto != cluster.SNFS {
			log.Printf("snfsd: -audit-journal only audits the snfs protocol; journal will stay empty")
		}
	}
	// First violation dumps the black box: the protocol history that led
	// to it matters more than any later violation's. The auditor runs on
	// the loop, so the dump does too.
	d.in.FlightDumpOnViolation(d.dumpFlight)
	// The daemon's "disk" is free: real I/O time is real already. So is
	// its CPU: RunRealtime spends every modelled cost as a real wait,
	// and server.Config takes a stated cost as written, so this is 1 µs
	// per RPC and nothing per KB — the least a Config can ask for, the
	// zero Config being the 1989 server.
	//
	// The endpoint's address is internal to the daemon, except that a
	// federation member's must be its own entry in the shard map: the
	// server serves data-plane calls only while the map names its
	// address as the shard's primary.
	addr := simnet.Addr("server")
	if !cfg.smap.IsZero() {
		addr = simnet.Addr(cfg.smap.Servers[cfg.shardID])
	}
	host := cluster.NewServerHost(k, network, cluster.ServerSpec{
		Proto:   cfg.proto,
		Addr:    addr,
		Workers: cfg.workers,
		Config:  server.Config{FSID: 1, CPUPerOp: 1, CPUPerKB: 0},
	}, d.in)
	if !cfg.smap.IsZero() {
		host.Base.SetShardMap(cfg.smap, cfg.shardID)
		log.Printf("snfsd: shard %d of %d (map v%d, %d assignments)",
			cfg.shardID, len(cfg.smap.Servers), cfg.smap.Version, len(cfg.smap.Assignments))
	}
	if cfg.populate {
		if err := populate(host.Media.Store()); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}

	log.Printf("snfsd: serving %s on %s (root %s, %d workers)",
		strings.ToLower(cfg.proto.String()), cfg.ln.Addr(), host.Base.RootHandle(), cfg.workers)
	// The accept loops and the dump listener end when the listeners close
	// and stop does; run returns after them.
	var serving sync.WaitGroup
	defer serving.Wait()
	gw := rpc.NewGateway(k, network, addr)
	serving.Add(2)
	go func() {
		defer serving.Done()
		if err := gw.Serve(cfg.ln); err != nil {
			log.Printf("snfsd: accept: %v", err)
		}
	}()
	go func() {
		defer serving.Done()
		d.serveDumps()
	}()
	var healthy atomic.Bool
	healthy.Store(true)
	if cfg.plane != nil {
		plane := d.plane(healthy.Load)
		serving.Add(1)
		go func() {
			defer serving.Done()
			if err := http.Serve(cfg.plane, plane); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("snfsd: http: %v", err)
			}
		}()
		defer cfg.plane.Close()
	}

	k.RunRealtime(stop)
	healthy.Store(false)
	cfg.ln.Close()
	log.Printf("snfsd: final metrics")
	d.reg.WriteProm(os.Stderr)
	if d.in.Auditor != nil {
		fmt.Fprint(os.Stderr, d.in.Auditor.Summary())
	}
	return nil
}

// populate makes the small sample tree -populate asks for.
func populate(store *localfs.Store) error {
	dir, err := store.Mkdir(store.Root(), "demo", 0o755)
	if err != nil {
		return err
	}
	for i, content := range []string{"hello from snfsd\n", "spritely nfs demo\n"} {
		a, err := store.Create(dir.Ino, fmt.Sprintf("file%d.txt", i), 0o644)
		if err != nil {
			return err
		}
		if _, err := store.WriteAt(a.Ino, 0, []byte(content)); err != nil {
			return err
		}
	}
	return nil
}

// onLoop runs fn on the kernel's event loop and waits for it: the one way
// another goroutine reads what the loop owns. Once stop has closed it
// returns false without fn having run, or after fn has finished if the
// loop had already started it.
func (d *daemon) onLoop(fn func()) bool {
	const queued, running, abandoned = 0, 1, 2
	var state atomic.Int32
	done := make(chan struct{})
	d.k.Inject(func() {
		if state.CompareAndSwap(queued, running) {
			fn()
		}
		close(done)
	})
	select {
	case <-done:
	case <-d.stop:
		if state.CompareAndSwap(queued, abandoned) {
			return false
		}
		<-done
	}
	return true
}

// plane builds the HTTP observability plane served on cfg.plane. The
// sampler tick is a self-rescheduling kernel event, so samples are taken
// on the loop; every document is rendered there too (see readOnLoop).
// Called before the loop starts.
func (d *daemon) plane(healthy func() bool) http.Handler {
	var smp *tsdb.Sampler
	if d.cfg.sampleEvery > 0 {
		smp = tsdb.NewSampler(0)
		smp.Watch("", d.reg)
		iv := sim.Duration(d.cfg.sampleEvery.Microseconds())
		var tick func()
		tick = func() {
			smp.Sample(d.k.Now())
			d.k.After(iv, tick)
		}
		d.k.After(iv, tick)
	}
	smap := d.cfg.smap
	plane := tsdb.NewHandler(tsdb.PlaneOptions{
		Registry: d.reg,
		Sampler:  smp,
		Flight:   d.in.Tracer,
		Spans:    d.in.Spans,
		ShardMap: func() any {
			if smap.IsZero() {
				return nil
			}
			return smap
		},
		// The standalone daemon runs unreplicated: one degenerate view
		// row per known shard, no backup, no lag. The simulated cluster's
		// failover experiments report the live equivalent (snfs-bench
		// -run failover).
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
				return []shardView{{Shard: 0, View: 1, Primary: d.cfg.addr, Synced: true}}
			}
			out := make([]shardView, 0, len(smap.Servers))
			for i, s := range smap.Servers {
				out = append(out, shardView{Shard: uint32(i), View: 1, Primary: s, Synced: true})
			}
			return out
		},
		Healthy: healthy,
	})
	log.Printf("snfsd: observability plane on http://%s", d.cfg.plane.Addr())
	return d.readOnLoop(plane)
}

// readOnLoop serves h's documents from the event loop into a buffer and
// writes the response from the HTTP goroutine, so a slow reader never
// stalls service. /healthz reads only an atomic, and a /debug/pprof/
// profile would stall the loop for its whole duration: both are served
// directly.
func (d *daemon) readOnLoop(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
			h.ServeHTTP(w, r)
			return
		}
		rec := &recorder{header: w.Header(), code: http.StatusOK}
		if !d.onLoop(func() { h.ServeHTTP(rec, r) }) {
			http.Error(w, "snfsd is shutting down", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(rec.code)
		w.Write(rec.body.Bytes())
	})
}

// recorder is the response a plane handler writes on the loop.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(code int)        { r.code = code }

// serveDumps answers the dump signals until stop closes, each on the
// loop: SIGUSR1 writes the metrics (Prometheus text) and the auditor's
// summary — snfscli stats gets the same over the wire — and SIGUSR2 the
// ring.
func (d *daemon) serveDumps() {
	for {
		select {
		case <-d.stop:
			return
		case s := <-d.cfg.dumps:
			if s == syscall.SIGUSR2 {
				d.onLoop(func() { d.dumpFlight("SIGUSR2") })
			} else {
				d.onLoop(d.dumpMetrics)
			}
		}
	}
}

// dumpMetrics writes the registry and the auditor's summary to
// -metrics-dump or stderr.
func (d *daemon) dumpMetrics() {
	d.dump(d.cfg.metricsDump, "metrics dump (SIGUSR1)", func(w io.Writer) {
		d.reg.WriteProm(w)
		if d.in.Auditor != nil {
			fmt.Fprint(w, d.in.Auditor.Summary())
		}
	})
}

// dumpFlight writes the ring's black-box dump, headed by trigger, to
// -flight-dump or stderr.
func (d *daemon) dumpFlight(trigger string) {
	if d.in.Tracer == nil {
		log.Printf("snfsd: no event ring (-flight 0); dump for %q skipped", trigger)
		return
	}
	d.dump(d.cfg.flightDump, "flight dump ("+trigger+")", func(w io.Writer) {
		d.in.Tracer.DumpTriggered(w, trigger)
	})
}

// dump writes one whole document to path, recreated so the file always
// holds the latest dump, or to stderr when path is empty.
func (d *daemon) dump(path, what string, write func(io.Writer)) {
	if path == "" {
		log.Printf("snfsd: %s", what)
		write(os.Stderr)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("snfsd: %s: %v", what, err)
		return
	}
	log.Printf("snfsd: %s -> %s", what, path)
	write(f)
	if err := f.Close(); err != nil {
		log.Printf("snfsd: %s: %v", what, err)
	}
}
