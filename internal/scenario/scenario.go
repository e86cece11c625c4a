// Package scenario is the fleet-scale workload engine: named multi-
// client traffic patterns (web-asset, build-farm, shared-DB, mail-
// spool) generated per client from independent deterministic RNG
// streams and driven through a harness.Fleet as state-machine tasks.
// Where package workload reproduces the paper's single-client
// benchmarks, scenario asks the paper's closing question — how many
// clients can one server sustain under each consistency protocol —
// with populations three orders of magnitude past the testbed's.
package scenario

import (
	"fmt"
	"sort"

	"spritelynfs/internal/harness"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/workload"
)

// chunkBytes is the I/O unit, the testbed transfer size, and
// syncInterval the period of the fleet's shared delayed-write sweep on
// SNFS.
const (
	chunkBytes   = 8 * 1024
	syncInterval = 5 * sim.Second
)

// Config shapes one scenario run.
type Config struct {
	// Name labels the run (the named presets fill everything below).
	Name string
	// Clients is the fleet population.
	Clients int
	// Ops is how many operations each client performs.
	Ops int
	// SharedFiles sizes the common Zipf-ranked file population
	// (0 = one file per client — the mail-spool shape, where the
	// population is the set of user spools).
	SharedFiles int
	// FileBytes is the size written by every write op (and the initial
	// size of each shared file).
	FileBytes int
	// Gen carries the popularity/mix/think-time knobs (SharedFiles is
	// copied in by the engine).
	Gen workload.GenConfig
	// Trace records one line per completed op (client, op, virtual
	// completion time) — the byte-comparable determinism artifact.
	// Meant for small N; a 4,000-client trace is millions of lines.
	Trace bool
}

func (c *Config) fill() {
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Ops == 0 {
		c.Ops = 20
	}
	if c.SharedFiles == 0 {
		c.SharedFiles = c.Clients
	}
	if c.FileBytes == 0 {
		c.FileBytes = 8 * 1024
	}
	c.Gen.SharedFiles = c.SharedFiles
}

// Names lists the built-in scenarios.
func Names() []string {
	return []string{"web-asset", "build-farm", "shared-db", "mail-spool"}
}

// Named returns the preset for one of Names. Clients and Ops are left
// for the caller (zero = engine defaults).
func Named(name string) (Config, error) {
	switch name {
	case "web-asset":
		// Read-almost-always traffic over a Zipf-hot asset store: the
		// best case for client caching, worst case for NFS's per-open
		// getattr probes.
		return Config{
			Name:        name,
			SharedFiles: 400,
			FileBytes:   16 * 1024,
			Gen: workload.GenConfig{
				ZipfS: 1.2, ZipfV: 1,
				ReadFrac:        0.98,
				SharedWriteFrac: 1,
				ThinkMean:       250 * sim.Millisecond,
			},
		}, nil
	case "build-farm":
		// Compile traffic: hot shared headers read by everyone, object
		// files written privately — concurrent but never write-shared,
		// the case SNFS caches through and NFS writes through.
		return Config{
			Name:        name,
			SharedFiles: 200,
			FileBytes:   8 * 1024,
			Gen: workload.GenConfig{
				ZipfS: 1.1, ZipfV: 1,
				ReadFrac:        0.70,
				SharedWriteFrac: 0,
				ThinkMean:       100 * sim.Millisecond,
			},
		}, nil
	case "shared-db":
		// A small hot record set read and written by every client: the
		// write-sharing pattern that drives SNFS files uncachable and
		// leaves stale reads under NFS.
		return Config{
			Name:        name,
			SharedFiles: 16,
			FileBytes:   8 * 1024,
			Gen: workload.GenConfig{
				ZipfS: 1.05, ZipfV: 1,
				ReadFrac:        0.50,
				SharedWriteFrac: 1,
				ThinkMean:       200 * sim.Millisecond,
			},
		}, nil
	case "mail-spool":
		// Per-user spools, write-heavy appends with occasional reads;
		// the shared population is the spool set itself (one per
		// client), Zipf-ranked so list traffic concentrates on a few.
		return Config{
			Name:      name,
			FileBytes: 4 * 1024,
			Gen: workload.GenConfig{
				ZipfS: 1.3, ZipfV: 1,
				ReadFrac:        0.30,
				SharedWriteFrac: 0,
				ThinkMean:       500 * sim.Millisecond,
			},
		}, nil
	}
	return Config{}, fmt.Errorf("scenario: unknown name %q (have %v)", name, Names())
}

// Result summarizes one scenario run.
type Result struct {
	Scenario      string  `json:"scenario"`
	Proto         string  `json:"proto"`
	Clients       int     `json:"clients"`
	Ops           int64   `json:"ops"`
	Errors        int64   `json:"errors"`
	VirtualSecs   float64 `json:"virtual_secs"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	MeanLatencyUs float64 `json:"mean_latency_us"`
	P95LatencyUs  float64 `json:"p95_latency_us"`
	MaxLatencyUs  float64 `json:"max_latency_us"`
	ServerCPUUtil float64 `json:"server_cpu_util"`
	CallsSent     int64   `json:"calls_sent"`
	Retransmits   int64   `json:"retransmits"`
	// ExecWorkers is the goroutine high-water mark of the whole fleet's
	// blocking work — the number a per-goroutine design would have
	// spent ~7 per client on.
	ExecWorkers int `json:"exec_workers"`
	// Work is the run's host-work census, setup included.
	Work harness.FleetWork `json:"-"`
	// OpTrace is the completion-ordered op log (Config.Trace only).
	OpTrace []string `json:"-"`
}

// Run executes cfg against protocol pr and returns the aggregate
// result. The run is fully deterministic for fixed (pm.Seed, cfg).
func Run(pr harness.Proto, pm harness.Params, cfg Config) (Result, error) {
	cfg.fill()
	f := harness.BuildFleet(pr, pm, harness.FleetOptions{Clients: cfg.Clients, SyncInterval: syncInterval})
	k := f.W.K

	r := &fleetRun{
		f:    f,
		k:    k,
		cfg:  cfg,
		res:  Result{Scenario: cfg.Name, Proto: pr.String(), Clients: cfg.Clients},
		lats: make([]int64, 0, cfg.Clients*cfg.Ops),
		// The shared population's names, formatted once.
		shared: make([]string, cfg.SharedFiles),
	}
	for i := range r.shared {
		r.shared[i] = fmt.Sprintf("/data/s%05d", i)
	}
	// Every client's ops, drawn up front from one source reseeded per
	// client: the streams NewGen draws, without a source per client.
	ops := make([]workload.Op, cfg.Clients*cfg.Ops)
	gen := workload.NewGen(pm.Seed, 0, cfg.Gen)
	for c := 0; c < cfg.Clients; c++ {
		gen.Reset(pm.Seed, c)
		for i := c * cfg.Ops; i < (c+1)*cfg.Ops; i++ {
			ops[i] = gen.Next()
		}
	}
	var measureStart sim.Time

	err := f.W.Run(func(p *sim.Proc) error {
		// Setup (untimed): materialize the shared population on the
		// server through the world's own measurement client.
		for _, path := range r.shared {
			if err := f.W.NS.WriteFile(p, path, cfg.FileBytes, chunkBytes); err != nil {
				return fmt.Errorf("scenario setup %s: %w", path, err)
			}
		}
		f.W.NS.SyncAll(p)

		measureStart = k.Now()
		r.remaining = cfg.Clients
		for c := 0; c < cfg.Clients; c++ {
			d := &clientLoop{r: r, c: c, ops: ops[c*cfg.Ops : (c+1)*cfg.Ops]}
			d.submitFn, d.execFn, d.completeFn = d.submit, d.exec, d.complete
			d.step()
		}
		r.done.Wait(p)
		f.SyncAllClients(p)
		return nil
	})
	res, lats := r.res, r.lats
	if err != nil {
		return res, err
	}

	elapsed := k.Now().Sub(measureStart)
	res.VirtualSecs = float64(elapsed) / float64(sim.Second)
	if res.VirtualSecs > 0 {
		res.OpsPerSec = float64(res.Ops) / res.VirtualSecs
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum int64
		for _, l := range lats {
			sum += l
		}
		res.MeanLatencyUs = float64(sum) / float64(len(lats)) / float64(sim.Microsecond)
		p95 := (len(lats) * 95) / 100
		if p95 >= len(lats) {
			p95 = len(lats) - 1
		}
		res.P95LatencyUs = float64(lats[p95]) / float64(sim.Microsecond)
		res.MaxLatencyUs = float64(lats[len(lats)-1]) / float64(sim.Microsecond)
	}
	res.ServerCPUUtil = f.W.ServerCPUUtilization()
	res.ExecWorkers = f.Exec.Spawned()
	res.Work = f.Work()
	s := f.Stats()
	res.CallsSent, res.Retransmits = s.CallsSent, s.Retransmits
	return res, nil
}

// fleetRun is what a Run's clients share: the fleet, the totals they add
// to, the read buffers not in use, and the count of clients still
// running.
type fleetRun struct {
	f         *harness.Fleet
	k         *sim.Kernel
	cfg       Config
	res       Result
	lats      []int64
	shared    []string // shared population member i's path
	bufs      [][]byte // chunk-sized read buffers no read holds
	remaining int
	done      sim.Signal // fired when the last client finishes
}

// clientLoop is one client's state machine. A client has one op in flight,
// so its ops, the in-flight op's sequence number and its start instant
// live here, and the three callbacks that carry an op from think time
// through the executor to completion are bound once, at set-up: an op
// allocates no closure.
type clientLoop struct {
	r     *fleetRun
	c     int
	ops   []workload.Op // the client's cfg.Ops ops, in order
	seq   int           // ops begun so far; the one in flight is seq-1
	start sim.Time

	submitFn   func()
	execFn     func(p *sim.Proc)
	completeFn func()
}

// step draws the client's next op and schedules it after its think time,
// or retires the client once it has run cfg.Ops.
func (d *clientLoop) step() {
	r := d.r
	if d.seq >= r.cfg.Ops {
		r.remaining--
		if r.remaining == 0 {
			r.done.Fire(nil)
		}
		return
	}
	d.seq++
	d.r.k.After(d.ops[d.seq-1].Think, d.submitFn)
}

// submit hands the op to the fleet's executor when its think time ends.
func (d *clientLoop) submit() {
	d.start = d.r.k.Now()
	d.r.f.Exec.Submit(d.r.k.NewOpID(), d.execFn, d.completeFn)
}

// exec runs the op on a pooled process.
func (d *clientLoop) exec(p *sim.Proc) {
	if err := d.execOp(p); err != nil {
		d.r.res.Errors++
	}
}

// complete records the op's latency and starts the next.
func (d *clientLoop) complete() {
	r := d.r
	now := r.k.Now()
	r.lats = append(r.lats, int64(now.Sub(d.start)))
	r.res.Ops++
	if r.cfg.Trace {
		r.res.OpTrace = append(r.res.OpTrace,
			fmt.Sprintf("c%04d #%03d %s done@%d", d.c, d.seq-1, d.ops[d.seq-1], int64(now)))
	}
	d.step()
}

// privatePath names client c's private file serial i.
func privatePath(c, i int) string { return fmt.Sprintf("/data/c%04d-p%d", c, i) }

// execOp runs the client's op against its namespace. A read holds a
// buffer from the run's free list while it runs, so the buffers number
// the reads running at once, not the clients.
func (d *clientLoop) execOp(p *sim.Proc) error {
	r, op := d.r, d.ops[d.seq-1]
	fc := r.f.Client(d.c)
	var path string
	if op.Shared {
		path = r.shared[op.File%r.cfg.SharedFiles]
	} else {
		path = privatePath(d.c, op.File)
	}
	if op.Kind == workload.OpRead {
		var buf []byte
		if n := len(r.bufs); n > 0 {
			buf, r.bufs = r.bufs[n-1], r.bufs[:n-1]
		} else {
			buf = make([]byte, chunkBytes)
		}
		_, err := fc.NS.ReadFile(p, path, buf)
		r.bufs = append(r.bufs, buf)
		return err
	}
	return fc.NS.WriteFile(p, path, r.cfg.FileBytes, chunkBytes)
}
