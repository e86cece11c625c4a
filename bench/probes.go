package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"

	"spritelynfs/internal/cache"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/harness"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/xdr"
)

// A probe drives one layer in isolation on the host clock and reports
// nanoseconds and heap allocations per operation. Probes are the same on
// every workload; the ledger's interaction tables (README.md) say which
// workload's end-to-end numbers each should move. A server or client
// probe includes the simulated round trip beneath it: its self time is
// its ns_op minus rpc.simcall_null_queue's.
type probe struct {
	name string
	help string
	n    int // operations per timed run
	// body performs n operations, calling timed around the part to
	// measure (set-up and teardown stay outside).
	body func(n int, timed func(func())) error
}

// sample is one probe result.
type sample struct{ nsOp, allocsOp float64 }

// run warms the probe up at a tenth of n, then measures n operations.
func (p probe) run(n int) (sample, error) {
	if err := p.body(n/10+1, func(fn func()) { fn() }); err != nil {
		return sample{}, err
	}
	var s sample
	err := p.body(n, func(fn func()) {
		secs, allocs, _ := hostCost(fn)
		s = sample{nsOp: secs * 1e9 / float64(n), allocsOp: allocs / float64(n)}
	})
	return s, err
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

const probeProg = 200001

var write8k = &proto.WriteArgs{
	Handle: proto.Handle{FSID: 1, Ino: 42, Gen: 7},
	Offset: 8192,
	Data:   bytes.Repeat([]byte{0xa5}, 8192),
}

// inProc runs body as the only workload process of kernel k.
func inProc(k *sim.Kernel, body func(p *sim.Proc) error) error {
	var err error
	k.Go("probe", func(p *sim.Proc) {
		defer k.Stop()
		err = body(p)
	})
	k.Run()
	return err
}

// rpcPair returns a client and a server endpoint on a fresh kernel with
// the calibrated 1 ms wire, the server answering every call OK.
func rpcPair(opts func(k *sim.Kernel) rpc.Options) (*sim.Kernel, *rpc.Endpoint) {
	k := sim.NewKernel(1)
	n := simnet.New(k, simnet.Config{PropDelay: sim.Millisecond})
	o := opts(k)
	client := rpc.NewEndpoint(k, n, "client", o)
	srv := rpc.NewEndpoint(k, n, "server", o)
	srv.Register(probeProg, func(*sim.Proc, simnet.Addr, uint32, []byte) ([]byte, rpc.Status) {
		return nil, rpc.StatusOK
	})
	return k, client
}

func queueMode(*sim.Kernel) rpc.Options { return rpc.Options{} }
func eventMode(k *sim.Kernel) rpc.Options {
	return rpc.Options{Exec: sim.NewExecutor(k, "probe")}
}

// simcall measures n simulated round trips carrying m.
func simcall(opts func(*sim.Kernel) rpc.Options, m proto.Message) func(int, func(func())) error {
	return func(n int, timed func(func())) error {
		k, client := rpcPair(opts)
		return inProc(k, func(p *sim.Proc) (err error) {
			timed(func() {
				for i := 0; i < n && err == nil; i++ {
					if m == nil {
						_, err = client.Call(p, "server", probeProg, 1, 1, nil)
					} else {
						_, err = client.CallMsg(p, "server", probeProg, 1, 1, m)
					}
				}
			})
			return err
		})
	}
}

// serverStack is the go-nfsd simple_test.go shape: an SNFS server with
// near-zero modelled cost on a zero-latency fabric and a free disk,
// called straight from a client endpoint, one 64 KiB file to work on.
type serverStack struct {
	k    *sim.Kernel
	cep  *rpc.Endpoint
	root proto.Handle
	file proto.Handle
}

func newServerStack() (*serverStack, error) {
	k := sim.NewKernel(1)
	n := simnet.New(k, simnet.Config{})
	sep := rpc.NewEndpoint(k, n, "server", rpc.Options{Workers: 8})
	store := localfs.NewStore(k.Now, 4096)
	media := localfs.NewMedia(store, disk.New(k, "d0", disk.Params{}), 1, 0)
	srv := server.NewSNFS(k, sep, media, server.Config{FSID: 1, CPUPerOp: 1, CPUPerKB: 1}, server.SNFSOptions{})
	a, err := store.Create(store.Root(), "file", 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := store.WriteAt(a.Ino, 0, make([]byte, 64*1024)); err != nil {
		return nil, err
	}
	return &serverStack{
		k:    k,
		cep:  rpc.NewEndpoint(k, n, "client", rpc.Options{}),
		root: srv.RootHandle(),
		file: proto.Handle{FSID: 1, Ino: a.Ino, Gen: a.Gen},
	}, nil
}

// call is one RPC of a server probe's round.
type call struct {
	proc uint32
	m    proto.Message
}

// serverProbe measures n rounds of calls(i) against a fresh server stack.
func serverProbe(calls func(s *serverStack, i int) []call) func(int, func(func())) error {
	return func(n int, timed func(func())) error {
		s, err := newServerStack()
		if err != nil {
			return err
		}
		return inProc(s.k, func(p *sim.Proc) (err error) {
			timed(func() {
				for i := 0; i < n && err == nil; i++ {
					for _, c := range calls(s, i) {
						var body []byte
						body, err = s.cep.CallMsg(p, "server", proto.ProgNFS, proto.VersNFS, c.proc, c.m)
						if err == nil && (len(body) < 4 || proto.Status(xdr.NewDecoder(body).Uint32()) != proto.OK) {
							err = fmt.Errorf("%s: not OK", proto.ProcName(proto.ProgNFS, c.proc))
						}
					}
				}
			})
			return err
		})
	}
}

// clientProbe measures n client-path operations in a single-client
// world: prep runs untimed inside the world, op is the timed operation.
func clientProbe(pr harness.Proto, prep func(p *sim.Proc, w *harness.World) (vfs.File, error), op func(p *sim.Proc, w *harness.World, f vfs.File, i int) error) func(int, func(func())) error {
	return func(n int, timed func(func())) error {
		off := false
		w := harness.BuildOpt(pr, true, harness.Default(), harness.BuildOptions{ReadAhead: &off})
		return w.Run(func(p *sim.Proc) error {
			f, err := prep(p, w)
			if err != nil {
				return err
			}
			timed(func() {
				for i := 0; i < n && err == nil; i++ {
					err = op(p, w, f, i)
				}
			})
			if err != nil {
				return err
			}
			return f.Close(p)
		})
	}
}

const clientFileBlocks = 64

// openWritten writes a 512 KiB file and opens it with flags.
func openWritten(flags vfs.Flags) func(p *sim.Proc, w *harness.World) (vfs.File, error) {
	return func(p *sim.Proc, w *harness.World) (vfs.File, error) {
		if err := w.NS.WriteFile(p, "/data/probe", clientFileBlocks*8192, 8192); err != nil {
			return nil, err
		}
		return w.NS.Open(p, "/data/probe", flags, 0o644)
	}
}

func read8k(p *sim.Proc, f vfs.File, i int) error {
	data, err := f.ReadAt(p, int64(i%clientFileBlocks)*8192, 8192)
	if err == nil && len(data) != 8192 {
		err = fmt.Errorf("short read: %d bytes", len(data))
	}
	return err
}

// realtimeKernel runs body against a kernel under RunRealtime and waits
// for RunRealtime to return.
func realtimeKernel(body func(k *sim.Kernel)) {
	k := sim.NewKernel(1)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		k.RunRealtime(stop)
	}()
	body(k)
	close(stop)
	<-done
}

// echoServer answers every framed call with an OK reply header: the
// floor of a loopback round trip. stop closes it and waits for its
// goroutines.
func echoServer() (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				rr := rpc.NewRecordReader(conn)
				var d xdr.Decoder
				for {
					rec, err := rr.Next()
					if err != nil {
						return
					}
					d.Reset(rec)
					enc := xdr.GetEncoder()
					enc.Uint32(d.Uint32()) // xid
					enc.Uint32(1)          // reply
					enc.Uint32(uint32(rpc.StatusOK))
					err = rpc.WriteRecord(conn, enc.Bytes())
					enc.Release()
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}, nil
}

var probes = []probe{
	{name: "xdr.encode_write8k", n: 200000, help: "pooled XDR encode of an 8 KiB WRITE",
		body: func(n int, timed func(func())) error {
			timed(func() {
				for i := 0; i < n; i++ {
					enc := xdr.GetEncoder()
					write8k.Encode(enc)
					sink = enc.Bytes()
					enc.Release()
				}
			})
			return nil
		}},
	{name: "xdr.decode_write8k", n: 500000, help: "zero-copy XDR decode of an 8 KiB WRITE",
		body: func(n int, timed func(func())) error {
			buf := proto.Marshal(write8k)
			var d xdr.Decoder
			var got proto.WriteArgs
			timed(func() {
				for i := 0; i < n; i++ {
					d.Reset(buf)
					got = proto.DecodeWriteArgs(&d)
				}
			})
			if d.Err() != nil || len(got.Data) != 8192 {
				return fmt.Errorf("decode: err=%v len=%d", d.Err(), len(got.Data))
			}
			return nil
		}},
	{name: "rpc.frame8k", n: 200000, help: "record framing: WriteRecord then RecordReader.Next of an 8 KiB message",
		body: func(n int, timed func(func())) (err error) {
			payload := proto.Marshal(write8k)
			var frame bytes.Buffer
			var br bytes.Reader
			rr := rpc.NewRecordReader(&br)
			timed(func() {
				for i := 0; i < n && err == nil; i++ {
					frame.Reset()
					if err = rpc.WriteRecord(&frame, payload); err != nil {
						return
					}
					br.Reset(frame.Bytes())
					_, err = rr.Next()
				}
			})
			return err
		}},
	{name: "rpc.simcall_null_queue", n: 20000, help: "simulated null round trip, queue-mode endpoints (dispatcher proc + worker pool)",
		body: simcall(queueMode, nil)},
	{name: "rpc.simcall_write8k", n: 20000, help: "simulated round trip carrying an 8 KiB WRITE via CallMsg",
		body: simcall(queueMode, write8k)},
	{name: "rpc.simcall_null_event", n: 20000, help: "simulated null round trip, event-mode endpoints on a shared executor",
		body: simcall(eventMode, nil)},
	{name: "simnet.send_deliver", n: 200000, help: "one message through the simulated Ethernet to a port handler",
		body: func(n int, timed func(func())) error {
			k := sim.NewKernel(1)
			net := simnet.New(k, simnet.Config{PropDelay: sim.Millisecond, BytesPerSec: 1_250_000})
			payload := make([]byte, 128)
			got := 0
			net.Listen("b").SetHandler(func(simnet.Message) {
				if got++; got < n {
					net.Send("a", "b", payload)
				}
			})
			net.Send("a", "b", payload)
			timed(func() { k.Run() })
			if got != n {
				return fmt.Errorf("delivered %d of %d", got, n)
			}
			return nil
		}},
	{name: "sim.event", n: 2000000, help: "schedule, pop and run one kernel event",
		body: func(n int, timed func(func())) error {
			k := sim.NewKernel(1)
			i := 0
			var tick func()
			tick = func() {
				if i++; i < n {
					k.After(sim.Microsecond, tick)
				}
			}
			k.After(sim.Microsecond, tick)
			timed(func() { k.Run() })
			return nil
		}},
	{name: "sim.task_step", n: 100000, help: "one task step: timer event, executor job, completion callback",
		body: func(n int, timed func(func())) error {
			k := sim.NewKernel(1)
			ex := sim.NewExecutor(k, "probe")
			i := 0
			var step func()
			step = func() {
				ex.Submit(0, func(*sim.Proc) {}, func() {
					if i++; i < n {
						k.After(sim.Microsecond, step)
					}
				})
			}
			k.After(sim.Microsecond, step)
			timed(func() { k.Run() })
			return nil
		}},
	{name: "sim.exec_submit", n: 100000, help: "one executor job resubmitted from its completion callback (pooled worker reuse)",
		body: func(n int, timed func(func())) error {
			k := sim.NewKernel(1)
			ex := sim.NewExecutor(k, "probe")
			i := 0
			var submit func()
			submit = func() {
				ex.Submit(0, func(*sim.Proc) {}, func() {
					if i++; i < n {
						submit()
					}
				})
			}
			k.After(0, submit)
			timed(func() { k.Run() })
			return nil
		}},
	{name: "sim.proc_switch", n: 100000, help: "one process block/resume cycle (two channel hand-offs and the wake event)",
		body: func(n int, timed func(func())) error {
			k := sim.NewKernel(1)
			return inProc(k, func(p *sim.Proc) error {
				timed(func() {
					for i := 0; i < n; i++ {
						p.Sleep(sim.Microsecond)
					}
				})
				return nil
			})
		}},
	{name: "sim.realtime_inject", n: 20000, help: "one closure through Kernel.Inject into RunRealtime and back",
		body: func(n int, timed func(func())) error {
			realtimeKernel(func(k *sim.Kernel) {
				ran := make(chan struct{}, 1)
				fn := func() { ran <- struct{}{} }
				timed(func() {
					for i := 0; i < n; i++ {
						k.Inject(fn)
						<-ran
					}
				})
			})
			return nil
		}},
	{name: "sim.realtime_timer1us", n: 300, help: "a 1 us virtual timer under RunRealtime, injected and awaited: minus sim.realtime_inject this is the timer's wall lag",
		body: func(n int, timed func(func())) error {
			realtimeKernel(func(k *sim.Kernel) {
				ran := make(chan struct{}, 1)
				timed(func() {
					for i := 0; i < n; i++ {
						k.Inject(func() { k.After(sim.Microsecond, func() { ran <- struct{}{} }) })
						<-ran
					}
				})
			})
			return nil
		}},
	{name: "rpc.tcpcall_null", n: 10000, help: "bare framed echo over loopback TCP: the floor under every daemon round trip",
		body: func(n int, timed func(func())) error {
			addr, stop, err := echoServer()
			if err != nil {
				return err
			}
			defer stop()
			c, err := rpc.DialTCP(addr)
			if err != nil {
				return err
			}
			defer c.Close()
			timed(func() {
				for i := 0; i < n && err == nil; i++ {
					_, err = c.Call(probeProg, 1, 0, nil)
				}
			})
			return err
		}},
	{name: "server.getattr", n: 10000, help: "GETATTR through the near-zero-cost in-sim SNFS stack",
		body: serverProbe(func(s *serverStack, i int) []call {
			return []call{{proto.ProcGetattr, &proto.HandleArgs{Handle: s.file}}}
		})},
	{name: "server.lookup", n: 10000, help: "LOOKUP through the near-zero-cost in-sim SNFS stack",
		body: serverProbe(func(s *serverStack, i int) []call {
			return []call{{proto.ProcLookup, &proto.DirOpArgs{Dir: s.root, Name: "file"}}}
		})},
	{name: "server.read8k", n: 10000, help: "8 KiB READ through the near-zero-cost in-sim SNFS stack",
		body: serverProbe(func(s *serverStack, i int) []call {
			return []call{{proto.ProcRead, &proto.ReadArgs{Handle: s.file, Offset: int64(i%8) * 8192, Count: 8192}}}
		})},
	{name: "server.write8k", n: 10000, help: "8 KiB WRITE through the near-zero-cost in-sim SNFS stack",
		body: serverProbe(func(s *serverStack, i int) []call {
			return []call{{proto.ProcWrite, &proto.WriteArgs{Handle: s.file, Offset: int64(i%8) * 8192, Data: write8k.Data}}}
		})},
	{name: "server.open_close", n: 5000, help: "SNFS OPEN then CLOSE (two round trips, state-table transitions)",
		body: serverProbe(func(s *serverStack, i int) []call {
			return []call{
				{proto.ProcOpen, &proto.OpenArgs{Handle: s.file, WriteMode: i%2 == 0}},
				{proto.ProcClose, &proto.CloseArgs{Handle: s.file, WriteMode: i%2 == 0}},
			}
		})},
	{name: "localfs.read8k", n: 200000, help: "Store.ReadAt of 8 KiB",
		body: storeProbe(func(st *localfs.Store, ino uint64, i int) error {
			data, err := st.ReadAt(ino, int64(i%8)*8192, 8192)
			sink = data
			return err
		})},
	{name: "localfs.write8k", n: 200000, help: "Store.WriteAt of 8 KiB",
		body: storeProbe(func(st *localfs.Store, ino uint64, i int) error {
			_, err := st.WriteAt(ino, int64(i%8)*8192, write8k.Data)
			return err
		})},
	{name: "disk.sched_gather64", n: 5000, help: "Scheduler: enqueue 64 block writes of 8 files, sort, merge and flush (one op = one 64-request flush)",
		body: func(n int, timed func(func())) error {
			k := sim.NewKernel(1)
			s := disk.NewScheduler(disk.New(k, "d0", disk.RA81()))
			return inProc(k, func(p *sim.Proc) error {
				timed(func() {
					for i := 0; i < n; i++ {
						for j := 0; j < 64; j++ {
							s.Enqueue(disk.Req{Ino: uint64(j % 8), Block: int64(j / 8), Bytes: 4096})
						}
						s.FlushSync(p)
					}
				})
				return nil
			})
		}},
	{name: "cache.lookup_hit", n: 2000000, help: "block-cache Lookup of a resident block",
		body: func(n int, timed func(func())) error {
			c := cache.New(4096)
			for i := int64(0); i < 1024; i++ {
				c.Insert(cache.Key{FS: 1, Ino: 1, Block: i}, nil, 4096)
			}
			timed(func() {
				for i := 0; i < n; i++ {
					c.Lookup(cache.Key{FS: 1, Ino: 1, Block: int64(i) % 1024})
				}
			})
			return nil
		}},
	{name: "cache.insert_evict", n: 500000, help: "block-cache Insert into a full cache (one eviction each)",
		body: func(n int, timed func(func())) error {
			c := cache.New(256)
			timed(func() {
				for i := 0; i < n; i++ {
					c.Insert(cache.Key{FS: 1, Ino: 1, Block: int64(i)}, nil, 4096)
				}
			})
			return nil
		}},
	{name: "client.snfs_read_hit8k", n: 50000, help: "SNFS client ReadAt of a cached 8 KiB block",
		body: clientProbe(harness.SNFS,
			func(p *sim.Proc, w *harness.World) (vfs.File, error) {
				f, err := openWritten(vfs.ReadOnly)(p, w)
				for i := 0; i < clientFileBlocks && err == nil; i++ {
					err = read8k(p, f, i)
				}
				return f, err
			},
			func(p *sim.Proc, w *harness.World, f vfs.File, i int) error { return read8k(p, f, i) })},
	{name: "client.snfs_write_delayed8k", n: 50000, help: "SNFS client WriteAt of 8 KiB into the cache (delayed write)",
		body: clientProbe(harness.SNFS, openWritten(vfs.WriteOnly),
			func(p *sim.Proc, w *harness.World, f vfs.File, i int) error {
				_, err := f.WriteAt(p, int64(i%clientFileBlocks)*8192, write8k.Data)
				return err
			})},
	{name: "client.nfs_read_miss8k", n: 5000, help: "NFS client ReadAt of an uncached 8 KiB block (READ round trip, read-ahead off)",
		body: clientProbe(harness.NFS, openWritten(vfs.ReadOnly),
			func(p *sim.Proc, w *harness.World, f vfs.File, i int) error {
				if i%clientFileBlocks == 0 {
					w.InvalidateClientCache()
				}
				return read8k(p, f, i)
			})},
	{name: "client.nfs_write_through8k", n: 5000, help: "NFS client WriteAt of 8 KiB (write-through via the biods)",
		body: clientProbe(harness.NFS, openWritten(vfs.WriteOnly),
			func(p *sim.Proc, w *harness.World, f vfs.File, i int) error {
				_, err := f.WriteAt(p, int64(i%clientFileBlocks)*8192, write8k.Data)
				return err
			})},
	{name: "trace.record_off", n: 2000000, help: "Tracer.RecordOp on a nil tracer: what every instrumented call site pays with tracing off",
		body: func(n int, timed func(func())) error {
			var tr *trace.Tracer
			timed(func() {
				for i := 0; i < n; i++ {
					tr.RecordOp("client", trace.RPCCall, uint64(i), "call %s xid=%d", "read", i)
				}
			})
			return nil
		}},
	{name: "trace.record_on", n: 500000, help: "Tracer.RecordOp into a 4,096-event ring",
		body: func(n int, timed func(func())) error {
			var now sim.Time
			tr := trace.New(func() sim.Time { now++; return now }, 4096)
			timed(func() {
				for i := 0; i < n; i++ {
					tr.RecordOp("client", trace.RPCCall, uint64(i), "call %s xid=%d", "read", i)
				}
			})
			return nil
		}},
	{name: "span.root3_on", n: 100000, help: "span recorder: one root syscall span with three child spans, finalised",
		body: func(n int, timed func(func())) error {
			var now sim.Time
			rec := span.NewRecorder(func() sim.Time { now++; return now }, 32)
			return inProc(sim.NewKernel(1), func(p *sim.Proc) error {
				timed(func() {
					for i := 0; i < n; i++ {
						root := rec.Begin(p, "client", span.Syscall, "read")
						for _, kind := range []span.Kind{span.Cache, span.RPC, span.Serve} {
							rec.Begin(p, "client", kind, "child").End()
						}
						root.End()
					}
				})
				return nil
			})
		}},
}

// storeProbe measures n operations on a 64 KiB file of a bare store.
func storeProbe(op func(st *localfs.Store, ino uint64, i int) error) func(int, func(func())) error {
	return func(n int, timed func(func())) error {
		st := localfs.NewStore(func() sim.Time { return 0 }, 4096)
		a, err := st.Create(st.Root(), "file", 0o644)
		if err != nil {
			return err
		}
		if _, err := st.WriteAt(a.Ino, 0, make([]byte, 64*1024)); err != nil {
			return err
		}
		timed(func() {
			for i := 0; i < n && err == nil; i++ {
				err = op(st, a.Ino, i)
			}
		})
		return err
	}
}
