package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"spritelynfs/internal/disk"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/xdr"
)

// The daemon workload: the `snfsd -proto snfs` stack assembled in this
// process exactly as cmd/snfsd/main.go assembles it, served on a
// loopback listener and driven by rpc.DialTCP clients, one connection
// per CPU. Each iteration sets the stack up, runs a latency phase (one
// call in flight per connection) and a throughput phase (eight), checks
// every reply, and tears the stack down. Nothing is exec'd and nothing
// outlives the iteration.

const (
	daemonFiles     = 64 // per connection
	daemonBlocks    = 8  // 8 KiB blocks per 64 KiB file
	daemonBlock     = 8 * 1024
	daemonDepth     = 8
	daemonIters     = 3    // iterations a full run divides -seconds into
	daemonSetups    = 9    // set-ups clocked per iteration
	daemonWallBatch = 1000 // round trips per unit of wall_s
)

// daemonOps is the op mix, cycled in this order by every closed loop.
var daemonOps = []string{"getattr", "lookup", "read8k", "write8k"}

// daemon is one running stack.
type daemon struct {
	k    *sim.Kernel
	reg  *metrics.Registry
	ln   net.Listener
	stop chan struct{}
	// accepting and running close when Gateway.Serve and
	// Kernel.RunRealtime return.
	accepting, running chan struct{}
}

// startDaemon assembles and starts the stack. traced arms the span
// recorder, as `snfsd -spans` does; populate fills the store before the
// kernel starts, as `snfsd -populate` does.
func startDaemon(traced bool, populate func(*localfs.Store) error) (*daemon, error) {
	k := sim.NewKernel(1)
	network := simnet.New(k, simnet.Config{}) // zero-latency internal fabric
	ep := rpc.NewEndpoint(k, network, "server", rpc.Options{Workers: 8})
	store := localfs.NewStore(k.Now, 4096)
	d0 := disk.New(k, "d0", disk.Params{}) // free: real I/O time is real already
	media := localfs.NewMedia(store, d0, 1, 0)
	reg := metrics.New()
	s := server.NewSNFS(k, ep, media, server.Config{FSID: 1, CPUPerOp: 1, CPUPerKB: 0}, server.SNFSOptions{})
	s.EnableMetrics(reg)
	if traced {
		spans := span.NewRecorder(k.Now, 32)
		spans.EnableMetrics(reg)
		ep.Spans = spans
		d0.Spans = spans
		s.SetSpans(spans)
	}
	if err := populate(store); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		k: k, reg: reg, ln: ln,
		stop:      make(chan struct{}),
		accepting: make(chan struct{}),
		running:   make(chan struct{}),
	}
	gw := rpc.NewGateway(k, network, "server")
	go func() {
		defer close(d.accepting)
		_ = gw.Serve(ln) // returns nil once the listener closes; any other error ends serving the same way
	}()
	go func() {
		defer close(d.running)
		k.RunRealtime(d.stop)
	}()
	return d, nil
}

// shutdown stops the stack and returns once the listener has closed, the
// accept loop and RunRealtime have returned, and the kernel's parked
// processes are unwound.
func (d *daemon) shutdown() {
	d.ln.Close()
	<-d.accepting
	close(d.stop)
	<-d.running
	d.k.Stop()
	d.k.Run()
}

// served snapshots the server registry's serve histograms, all procedures
// merged: what the daemon's own instruments say its handlers took.
func (d *daemon) served() metrics.HistSnapshot {
	var all metrics.HistSnapshot
	for _, name := range d.reg.HistogramNames() {
		if strings.HasPrefix(name, "snfs_rpc_serve_us") {
			all.Merge(d.reg.FindHistogram(name).Snapshot())
		}
	}
	return all
}

// blockTag is the 8-byte pattern a block holds: what the benchmark
// expects to read back.
func fillBlock(buf []byte, tag uint64) {
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], tag)
	}
}

// daemonConn is one client connection with its private files and the
// shadow copy of what they should contain.
type daemonConn struct {
	c     *rpc.TCPClient
	dir   proto.Handle
	names [daemonFiles]string
	files [daemonFiles]proto.Handle
	tags  [daemonFiles][daemonBlocks]uint64
}

// populate creates connection i's directory and files directly on the
// store.
func (dc *daemonConn) populate(store *localfs.Store, i int, rng *rand.Rand) error {
	dir, err := store.Mkdir(store.Root(), fmt.Sprintf("c%d", i), 0o755)
	if err != nil {
		return err
	}
	buf := make([]byte, daemonBlock)
	for f := 0; f < daemonFiles; f++ {
		dc.names[f] = fmt.Sprintf("f%02d", f)
		a, err := store.Create(dir.Ino, dc.names[f], 0o644)
		if err != nil {
			return err
		}
		for b := 0; b < daemonBlocks; b++ {
			dc.tags[f][b] = rng.Uint64()
			fillBlock(buf, dc.tags[f][b])
			if _, err := store.WriteAt(a.Ino, int64(b)*daemonBlock, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// call issues one RPC, wrapping marshal, round trip and decode in the
// benchmark's spans when traced.
func (dc *daemonConn) call(tr *tracer, parent int, proc uint32, m proto.Message) (*xdr.Decoder, error) {
	sp := tr.start(parent, "proto.Marshal")
	args := proto.Marshal(m)
	tr.end(sp)
	sp = tr.start(parent, "TCPClient.Call")
	body, err := dc.c.Call(proto.ProgNFS, proto.VersNFS, proc, args)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return xdr.NewDecoder(body), nil
}

// mount resolves the connection's directory and file handles.
func (dc *daemonConn) mount(i int) error {
	body, err := dc.c.Call(proto.ProgNFS, proto.VersNFS, proto.ProcMountRoot, nil)
	if err != nil {
		return err
	}
	root := proto.DecodeHandleReply(xdr.NewDecoder(body))
	if root.Status != proto.OK {
		return fmt.Errorf("mount root: %v", root.Status)
	}
	lookup := func(dir proto.Handle, name string) (proto.Handle, error) {
		d, err := dc.call(nil, 0, proto.ProcLookup, &proto.DirOpArgs{Dir: dir, Name: name})
		if err != nil {
			return proto.Handle{}, err
		}
		r := proto.DecodeHandleReply(d)
		if r.Status != proto.OK {
			return proto.Handle{}, fmt.Errorf("lookup %s: %v", name, r.Status)
		}
		return r.Handle, nil
	}
	if dc.dir, err = lookup(root.Handle, fmt.Sprintf("c%d", i)); err != nil {
		return err
	}
	for f := range dc.files {
		if dc.files[f], err = lookup(dc.dir, dc.names[f]); err != nil {
			return err
		}
	}
	return nil
}

// loopResult is what one closed loop measured.
type loopResult struct {
	done   int64
	failed int64
	lat    [4][]time.Duration // per daemonOps entry
	err    error
}

// loop is one closed loop: the next call goes out when the previous
// reply has been checked. It owns files [lo, hi) of the connection, so
// concurrent loops never race on a block's expected contents.
func (dc *daemonConn) loop(tr *tracer, parent int, rng *rand.Rand, lo, hi int, until time.Time) loopResult {
	var res loopResult
	buf := make([]byte, daemonBlock)
	for i := 0; time.Now().Before(until); i++ {
		kind := i % len(daemonOps)
		f := lo + rng.Intn(hi-lo)
		b := rng.Intn(daemonBlocks)
		h := dc.files[f]
		off := int64(b) * daemonBlock
		var proc uint32
		var args proto.Message
		var check func(d *xdr.Decoder) bool
		switch kind {
		case 0:
			proc, args = proto.ProcGetattr, &proto.HandleArgs{Handle: h}
			check = func(d *xdr.Decoder) bool {
				r := proto.DecodeAttrReply(d)
				return r.Status == proto.OK && r.Attr.Size == daemonBlocks*daemonBlock
			}
		case 1:
			proc, args = proto.ProcLookup, &proto.DirOpArgs{Dir: dc.dir, Name: dc.names[f]}
			check = func(d *xdr.Decoder) bool {
				r := proto.DecodeHandleReply(d)
				return r.Status == proto.OK && r.Handle == h
			}
		case 2:
			proc, args = proto.ProcRead, &proto.ReadArgs{Handle: h, Offset: off, Count: daemonBlock}
			check = func(d *xdr.Decoder) bool {
				r := proto.DecodeReadReply(d)
				fillBlock(buf, dc.tags[f][b])
				return r.Status == proto.OK && bytes.Equal(r.Data, buf)
			}
		case 3:
			dc.tags[f][b] = rng.Uint64()
			fillBlock(buf, dc.tags[f][b])
			proc, args = proto.ProcWrite, &proto.WriteArgs{Handle: h, Offset: off, Data: buf}
			check = func(d *xdr.Decoder) bool {
				r := proto.DecodeWriteReply(d)
				return r.Status == proto.OK && r.Committed
			}
		}
		t0 := time.Now()
		sp := tr.start(parent, "op/"+daemonOps[kind])
		d, err := dc.call(tr, sp, proc, args)
		if err != nil {
			res.err = err
			return res
		}
		sd := tr.start(sp, "proto.Decode")
		ok := check(d)
		tr.end(sd)
		tr.end(sp)
		res.lat[kind] = append(res.lat[kind], time.Since(t0))
		res.done++
		if !ok {
			res.failed++
		}
	}
	return res
}

// session is one running stack with its clients connected and mounted.
type session struct {
	d     *daemon
	addr  string
	conns []*daemonConn
	rngs  [][]*rand.Rand // one stream per closed loop
}

// open starts a stack, populates it from the seed, and connects and
// mounts one client per connection.
func (u *daemonUnit) open(traced bool) (*session, error) {
	s := &session{conns: make([]*daemonConn, u.conns), rngs: make([][]*rand.Rand, u.conns)}
	var err error
	s.d, err = startDaemon(traced, func(store *localfs.Store) error {
		for i := range s.conns {
			s.conns[i] = &daemonConn{}
			src := rand.New(rand.NewSource(u.seed*1000003 + int64(i)))
			if err := s.conns[i].populate(store, i, src); err != nil {
				return err
			}
			s.rngs[i] = make([]*rand.Rand, daemonDepth)
			for l := range s.rngs[i] {
				s.rngs[i][l] = rand.New(rand.NewSource(src.Int63()))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.addr = s.d.ln.Addr().String()
	for i, dc := range s.conns {
		if dc.c, err = rpc.DialTCP(s.addr); err == nil {
			err = dc.mount(i)
		}
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
	}
	return s, nil
}

// close disconnects the clients, shuts the stack down and checks that
// nothing is left listening: the port must refuse.
func (s *session) close() error {
	for _, dc := range s.conns {
		if dc.c != nil {
			dc.c.Close()
		}
	}
	s.d.shutdown()
	if c, err := net.DialTimeout("tcp", s.addr, time.Second); err == nil {
		c.Close()
		return fmt.Errorf("daemon still accepting on %s after shutdown", s.addr)
	}
	return nil
}

// daemonUnit is the daemon workload's unit of work.
type daemonUnit struct {
	seed  int64
	phase time.Duration
	conns int
}

func prepareDaemon(opt options) (unit, error) {
	u := &daemonUnit{
		seed:  opt.seed,
		phase: time.Duration(opt.seconds / (2 * daemonIters) * float64(time.Second)),
		conns: runtime.NumCPU(),
	}
	if opt.trace {
		// A traced run makes two plain and two traced iterations.
		u.phase = time.Duration(opt.seconds / 8 * float64(time.Second))
	}
	if opt.quick {
		u.phase = 100 * time.Millisecond
	}
	return u, nil
}

// phaseRun runs depth closed loops per connection for the phase length.
func phaseRun(tr *tracer, parent int, conns []*daemonConn, rngs [][]*rand.Rand, depth int, length time.Duration) []loopResult {
	results := make([]loopResult, len(conns)*depth)
	until := time.Now().Add(length)
	var wg sync.WaitGroup
	for ci, dc := range conns {
		for s := 0; s < depth; s++ {
			wg.Add(1)
			go func(dc *daemonConn, ci, s int) {
				defer wg.Done()
				per := daemonFiles / depth
				results[ci*depth+s] = dc.loop(tr, parent, rngs[ci][s], s*per, (s+1)*per, until)
			}(dc, ci, s)
		}
	}
	wg.Wait()
	return results
}

func (u *daemonUnit) iterate(tr *tracer, warm bool) (it iteration, err error) {
	it = iteration{virtual: map[string]float64{}, layer: map[string]float64{}}
	phase := u.phase
	if warm && phase > 300*time.Millisecond {
		phase = 300 * time.Millisecond
	}
	root := tr.start(0, "iteration")
	defer tr.end(root)

	// Set-up takes tens of milliseconds, so each iteration sets the stack
	// up several times and clocks the median; the last one stays up for
	// the phases.
	sp := tr.start(root, "daemon.setup")
	setups := make([]float64, daemonSetups)
	var s *session
	for i := range setups {
		if s != nil {
			if err := s.close(); err != nil {
				return it, err
			}
		}
		t0 := time.Now()
		if s, err = u.open(tr != nil); err != nil {
			return it, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	tr.end(sp)
	_, it.setupS, _ = quartiles(setups)
	defer func() { err = errors.Join(err, s.close()) }()
	conns, rngs := s.conns, s.rngs

	tally := func(results []loopResult) (done int64, err error) {
		for _, r := range results {
			if r.err != nil {
				return 0, r.err
			}
			done += r.done
			it.attempted += r.done
			it.failed += r.failed
		}
		return done, nil
	}

	// Phase lat: one call in flight per connection.
	servedBefore := s.d.served()
	sp = tr.start(root, "phase/lat")
	t1 := time.Now()
	latRes := phaseRun(tr, sp, conns, rngs, 1, phase)
	latSecs := time.Since(t1).Seconds()
	tr.end(sp)
	latDone, err := tally(latRes)
	if err != nil {
		return it, err
	}
	// wall_s: host seconds one connection takes for 1,000 round trips.
	it.wallS = latSecs * float64(u.conns) * daemonWallBatch / float64(latDone)

	// The ledger's latency view is read here, before the throughput phase
	// adds queueing to the server's serve histogram.
	var all []time.Duration
	for kind, name := range daemonOps {
		var xs []time.Duration
		for _, r := range latRes {
			xs = append(xs, r.lat[kind]...)
		}
		it.layer["daemon."+name+"_p50_us"] = quantileUs(xs, 0.50)
		all = append(all, xs...)
	}
	it.layer["daemon.p50_us"] = quantileUs(all, 0.50)
	it.layer["daemon.p99_us"] = quantileUs(all, 0.99)
	// Medians of a mix of 0.1 ms and 2 ms ops do not subtract, so the
	// transport share is a difference of means over the phase.
	served := s.d.served().Delta(servedBefore)
	it.layer["daemon.serve_p50_us"] = served.Quantile(0.5)
	var sum time.Duration
	for _, l := range all {
		sum += l
	}
	clientMeanUs := float64(sum.Nanoseconds()) / 1e3 / float64(len(all))
	it.layer["daemon.transport_mean_us"] = clientMeanUs - float64(served.Sum)/float64(served.Count)

	// Phase tput: daemonDepth calls in flight per connection.
	sp = tr.start(root, "phase/tput")
	var tputRes []loopResult
	secs, allocs, mb := hostCost(func() { tputRes = phaseRun(tr, sp, conns, rngs, daemonDepth, phase) })
	tr.end(sp)
	tputDone, err := tally(tputRes)
	if err != nil {
		return it, err
	}
	it.ops, it.opSeconds = tputDone, secs
	it.allocs, it.allocMB = allocs/float64(tputDone), mb/float64(tputDone)

	return it, nil
}

// quantileUs returns the q-quantile of xs in microseconds (nearest rank).
func quantileUs(xs []time.Duration, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i].Nanoseconds()) / 1e3
}
