package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/xdr"
)

const testProg = 100

func newPair(k *sim.Kernel, cfg simnet.Config, opts Options) (client, server *Endpoint) {
	n := simnet.New(k, cfg)
	client = NewEndpoint(k, n, "client", opts)
	server = NewEndpoint(k, n, "server", opts)
	return client, server
}

// echoHandler replies with the args, the procedure number prefixed.
func echoHandler(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
	e := xdr.NewEncoder()
	e.Uint32(proc)
	e.Raw(args)
	return e.Bytes(), StatusOK
}

// counting wraps h to count its invocations in *n: the calls an endpoint
// ran, each of which a duplicate or a crash must not run twice.
func counting(n *int, h Handler) Handler {
	return func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		*n++
		return h(p, from, proc, args)
	}
}

// pools are the two places an endpoint's service processes can come from:
// its own executor held to Workers, or one the caller shares out.
var pools = []struct {
	name string
	exec func(*sim.Kernel) *sim.Executor
}{
	{"own", func(*sim.Kernel) *sim.Executor { return nil }},
	{"shared", func(k *sim.Kernel) *sim.Executor { return sim.NewExecutor(k, "shared") }},
}

func TestCallReply(t *testing.T) {
	for _, pool := range pools {
		t.Run(pool.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			ex := pool.exec(k)
			client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{Exec: ex})
			served := 0
			server.Register(testProg, counting(&served, echoHandler))
			var got []byte
			var err error
			k.Go("caller", func(p *sim.Proc) {
				got, err = client.Call(p, "server", testProg, 1, 7, []byte("abcd"))
				k.Stop()
			})
			k.Run()
			if err != nil {
				t.Fatalf("call failed: %v", err)
			}
			d := xdr.NewDecoder(got)
			if d.Uint32() != 7 || string(d.RawRef()) != "abcd" {
				t.Errorf("bad reply %x", got)
			}
			if client.Stats().CallsSent != 1 || served != 1 {
				t.Errorf("stats client %+v, %d served", client.Stats(), served)
			}
			if ex != nil && ex.Spawned() != 1 {
				t.Errorf("shared executor spawned %d workers, want one for the one call", ex.Spawned())
			}
		})
	}
}

func TestConcurrentCallsMatchReplies(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{Workers: 4})
	// Handler sleeps proportionally to proc number so replies come back
	// out of order; each caller must still get its own reply.
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		p.Sleep(sim.Duration(100-proc) * sim.Millisecond)
		e := xdr.NewEncoder()
		e.Uint32(proc * 10)
		return e.Bytes(), StatusOK
	})
	results := make(map[uint32]uint32)
	var wg sim.WaitGroup
	wg.Add(4)
	for i := uint32(1); i <= 4; i++ {
		proc := i
		k.Go("caller", func(p *sim.Proc) {
			body, err := client.Call(p, "server", testProg, 1, proc, nil)
			if err != nil {
				t.Errorf("proc %d: %v", proc, err)
			} else {
				results[proc] = xdr.NewDecoder(body).Uint32()
			}
			wg.Done()
		})
	}
	k.Go("join", func(p *sim.Proc) { wg.Wait(p); k.Stop() })
	k.Run()
	for i := uint32(1); i <= 4; i++ {
		if results[i] != i*10 {
			t.Errorf("proc %d got %d, want %d", i, results[i], i*10)
		}
	}
}

func TestRetransmissionRecoversFromLoss(t *testing.T) {
	k := sim.NewKernel(1)
	// Drop every 3rd message: across a run of calls, both requests and
	// replies get lost; retransmission must recover every call.
	client, server := newPair(k,
		simnet.Config{PropDelay: sim.Millisecond, DropEvery: 3}, Options{})
	server.Register(testProg, echoHandler)
	failed := 0
	k.Go("caller", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if _, err := (sched{100 * sim.Millisecond, MaxRetries}).call(p, client, "server", 1, []byte("x")); err != nil {
				failed++
			}
		}
		k.Stop()
	})
	k.Run()
	if failed != 0 {
		t.Fatalf("%d of 10 calls failed despite retransmission", failed)
	}
	if client.Stats().Retransmits == 0 {
		t.Error("expected at least one retransmission")
	}
}

func TestTimeoutWhenServerDead(t *testing.T) {
	k := sim.NewKernel(1)
	n := simnet.New(k, simnet.Config{})
	client := NewEndpoint(k, n, "client", Options{})
	var err error
	var elapsed sim.Time
	k.Go("caller", func(p *sim.Proc) {
		_, err = sched{10 * sim.Millisecond, 2}.call(p, client, "nowhere", 1, nil)
		elapsed = p.Now()
		k.Stop()
	})
	k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	// 10 + 20 + 40 ms of backoff.
	if elapsed != sim.Time(70*sim.Millisecond) {
		t.Errorf("gave up at %v, want 70ms (exponential backoff)", elapsed)
	}
	if client.Stats().Timeouts != 1 {
		t.Errorf("timeouts %d", client.Stats().Timeouts)
	}
}

// sched is a call schedule as CallXDREx takes it: the first attempt's
// timeout, doubled for each retransmission, and how many there are.
type sched struct {
	timeout sim.Duration
	retries int
}

// call issues a testProg call from e under s.
func (s sched) call(p *sim.Proc, e *Endpoint, to simnet.Addr, proc uint32, args []byte) ([]byte, error) {
	var body bodyCopy
	err := e.CallXDREx(p, to, testProg, 1, proc, rawBody(args).XDR, body.XDR, s.timeout, s.retries)
	return body, err
}

// bodyCopy decodes a reply body sent whole into a copy of its own: the
// head it is decoded from goes back to its endpoint when decoding ends.
type bodyCopy []byte

func (b *bodyCopy) XDR(c xdr.Codec) {
	var v []byte
	c.Raw(&v)
	*b = bytes.Clone(v)
}

// deadCall runs one call against a dead address, under s or, with s
// zero, the default schedule, and returns the instants of every attempt
// and of the timeout, and the client's counters.
func deadCall(t *testing.T, s sched) (sends []sim.Time, gaveUp sim.Time, st Stats) {
	t.Helper()
	k := sim.NewKernel(1)
	client := NewEndpoint(k, simnet.New(k, simnet.Config{}), "client", Options{})
	client.Tracer = trace.New(k.Now, 0)
	var err error
	k.Go("caller", func(p *sim.Proc) {
		if s == (sched{}) {
			_, err = client.Call(p, "nowhere", testProg, 1, 1, nil)
		} else {
			_, err = s.call(p, client, "nowhere", 1, nil)
		}
		gaveUp = p.Now()
		k.Stop()
	})
	k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	for _, e := range client.Tracer.Filter(trace.RPCCall, trace.RPCRetry) {
		sends = append(sends, e.At)
	}
	return sends, gaveUp, client.Stats()
}

// TestDefaultCallSchedule pins the schedule of every call that does not
// pass its own: the send, then a retransmission after waits of 1, 2, 4
// and 8 s, and ErrTimeout after the fifth wait, 16 s, 31 s after the send.
func TestDefaultCallSchedule(t *testing.T) {
	sends, gaveUp, st := deadCall(t, sched{})
	want := []sim.Time{0, sim.Time(sim.Second), sim.Time(3 * sim.Second), sim.Time(7 * sim.Second), sim.Time(15 * sim.Second)}
	if fmt.Sprint(sends) != fmt.Sprint(want) {
		t.Errorf("attempts at %v, want %v", sends, want)
	}
	if gaveUp != sim.Time(31*sim.Second) {
		t.Errorf("gave up at %v, want 31s", gaveUp)
	}
	if st.CallsSent != 1 || st.Retransmits != 4 || st.Timeouts != 1 {
		t.Errorf("%d sent, %d retransmits, %d timeouts, want 1, 4, 1", st.CallsSent, st.Retransmits, st.Timeouts)
	}
}

// TestExplicitCallSchedule: a schedule passed to CallXDREx replaces the
// default whole, and doubles the same way: 50, 100 and 200 ms of waits
// for a 50 ms timeout and two retransmissions.
func TestExplicitCallSchedule(t *testing.T) {
	sends, gaveUp, st := deadCall(t, sched{50 * sim.Millisecond, 2})
	want := []sim.Time{0, sim.Time(50 * sim.Millisecond), sim.Time(150 * sim.Millisecond)}
	if fmt.Sprint(sends) != fmt.Sprint(want) {
		t.Errorf("attempts at %v, want %v", sends, want)
	}
	if gaveUp != sim.Time(350*sim.Millisecond) {
		t.Errorf("gave up at %v, want 350ms", gaveUp)
	}
	if st.Retransmits != 2 || st.Timeouts != 1 {
		t.Errorf("%d retransmits, %d timeouts, want 2, 1", st.Retransmits, st.Timeouts)
	}
}

func TestDuplicateCacheSuppressesReexecution(t *testing.T) {
	k := sim.NewKernel(1)
	// Drop every 3rd message. With a non-idempotent counter handler, the
	// retransmitted call must not increment twice.
	client, server := newPair(k,
		simnet.Config{PropDelay: sim.Millisecond, DropEvery: 3}, Options{})
	executions := 0
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		executions++
		return nil, StatusOK
	})
	calls := 0
	k.Go("caller", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if _, err := (sched{50 * sim.Millisecond, MaxRetries}).call(p, client, "server", 1, nil); err == nil {
				calls++
			}
		}
		k.Stop()
	})
	k.Run()
	if executions != calls {
		t.Errorf("%d executions for %d successful calls; duplicate cache failed", executions, calls)
	}
	if server.Stats().DupHits == 0 && server.Stats().DupInProgress == 0 {
		t.Log("note: no duplicate traffic was generated by this loss pattern")
	}
}

func TestSlowHandlerDuplicateDropped(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k,
		simnet.Config{PropDelay: sim.Millisecond}, Options{})
	executions := 0
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		executions++
		p.Sleep(50 * sim.Millisecond) // slower than the client timeout
		return nil, StatusOK
	})
	var err error
	k.Go("caller", func(p *sim.Proc) {
		_, err = sched{20 * sim.Millisecond, 5}.call(p, client, "server", 1, nil)
		k.Stop()
	})
	k.Run()
	if err != nil {
		t.Fatalf("call failed: %v", err)
	}
	if executions != 1 {
		t.Errorf("handler executed %d times, want 1 (in-progress duplicates dropped)", executions)
	}
	if server.Stats().DupInProgress == 0 {
		t.Error("expected in-progress duplicate drops")
	}
}

func TestUnregisteredProgram(t *testing.T) {
	k := sim.NewKernel(1)
	client, _ := newPair(k, simnet.Config{}, Options{})
	var err error
	k.Go("caller", func(p *sim.Proc) {
		_, err = client.Call(p, "server", 999, 1, 1, nil)
		k.Stop()
	})
	k.Run()
	if !errors.Is(err, ErrProgUnavail) {
		t.Errorf("err = %v, want ErrProgUnavail", err)
	}
}

// peakInService fires six concurrent calls at a Workers: 2 server whose
// handler holds its thread for 10 ms, optionally crashing and rebooting
// the server first, and returns the most handlers ever running at once.
func peakInService(t *testing.T, reboot bool) int {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{}, Options{Workers: 2})
	inside, maxInside := 0, 0
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		inside++
		if inside > maxInside {
			maxInside = inside
		}
		p.Sleep(10 * sim.Millisecond)
		inside--
		return nil, StatusOK
	})
	if reboot {
		server.Stop()
		server.Restart()
	}
	var wg sim.WaitGroup
	wg.Add(6)
	for i := 0; i < 6; i++ {
		k.Go("caller", func(p *sim.Proc) {
			if _, err := client.Call(p, "server", testProg, 1, 1, nil); err != nil {
				t.Errorf("call: %v", err)
			}
			wg.Done()
		})
	}
	k.Go("join", func(p *sim.Proc) { wg.Wait(p); k.Stop() })
	k.Run()
	return maxInside
}

func TestWorkerPoolLimitsConcurrency(t *testing.T) {
	if peak := peakInService(t, false); peak != 2 {
		t.Errorf("max handler concurrency %d, want 2", peak)
	}
}

// TestRestartKeepsPoolSize: a rebooted server still has N threads, not
// the N it crashed with plus N more.
func TestRestartKeepsPoolSize(t *testing.T) {
	if peak := peakInService(t, true); peak != 2 {
		t.Errorf("max handler concurrency after Stop/Restart %d, want 2", peak)
	}
}

// TestStopDiscardsQueuedCalls: a crash loses the calls that were waiting
// for a thread along with the socket buffer they sat in; the one already
// in its handler runs to completion.
func TestStopDiscardsQueuedCalls(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{},
		Options{Workers: 1})
	served := 0
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		served++
		p.Sleep(10 * sim.Millisecond)
		return nil, StatusOK
	})
	var wg sim.WaitGroup
	wg.Add(3)
	for i := 0; i < 3; i++ {
		k.Go("caller", func(p *sim.Proc) {
			sched{100 * sim.Millisecond, 1}.call(p, client, "server", 1, nil)
			wg.Done()
		})
	}
	k.Go("crash", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond) // one call in service, two queued behind it
		server.Stop()
		wg.Wait(p)
		k.Stop()
	})
	k.Run()
	if served != 1 {
		t.Errorf("served %d calls, want only the one running at the crash", served)
	}
}

// TestHandedCallKeepsItsProcess pins a same-instant tie the virtual clock
// depends on. At 11 ms, in event order: call B arrives and is handed to a
// newly woken process (one of two slots was free), call C arrives and must
// wait, and only then does the process serving call A finish. It takes C,
// the first call waiting for a slot — not B, which is queued ahead of C
// but belongs to the process already woken for it — so the handlers start
// in the order A, C, B. A crash between the arrivals and that finish loses
// C, which was still in the socket buffer, and not B.
func TestHandedCallKeepsItsProcess(t *testing.T) {
	for _, crash := range []bool{false, true} {
		k := sim.NewKernel(1)
		client, server := newPair(k, simnet.Config{PropDelay: 10 * sim.Millisecond},
			Options{Workers: 2})
		var started []string
		ran := map[string]*sim.Proc{}
		server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
			started = append(started, string(args))
			ran[string(args)] = p
			p.Sleep(sim.Millisecond)
			return nil, StatusOK
		})
		var wg sim.WaitGroup
		wg.Add(3)
		for _, c := range []struct {
			token string
			at    sim.Duration
		}{{"A", 0}, {"B", sim.Millisecond}, {"C", sim.Millisecond}} {
			k.Go(c.token, func(p *sim.Proc) {
				p.Sleep(c.at)
				sched{100 * sim.Millisecond, 1}.call(p, client, "server", 1, []byte(c.token))
				wg.Done()
			})
		}
		if crash {
			k.Go("crash", func(p *sim.Proc) {
				p.Sleep(2 * sim.Millisecond)
				// Scheduled after B and C left but before A's handler
				// went to sleep: it runs between them at 11 ms.
				p.Sleep(9 * sim.Millisecond)
				server.Stop()
			})
		}
		k.Go("join", func(p *sim.Proc) { wg.Wait(p); k.Stop() })
		k.Run()
		want := "[A C B]"
		if crash {
			want = "[A B]"
		}
		if fmt.Sprint(started) != want {
			t.Errorf("crash=%v: handlers started in order %v, want %s", crash, started, want)
			continue
		}
		if !crash && (ran["C"] != ran["A"] || ran["B"] == ran["A"]) {
			t.Errorf("C ran on %s and B on %s; A's process %s should have taken C and left B",
				ran["C"].Name(), ran["B"].Name(), ran["A"].Name())
		}
		if server.queue.n != 0 || server.handed != 0 || server.serving != 0 {
			t.Errorf("crash=%v: after the run %d queued, %d handed, %d serving", crash, server.queue.n, server.handed, server.serving)
		}
	}
}

func TestCallbackFromServerToClient(t *testing.T) {
	// The SNFS shape: while servicing a call, the server issues a nested
	// RPC back to the client, which must service it (the client is also
	// an RPC server) before the original call completes. A fleet client
	// serves its callbacks from the shared pool.
	for _, pool := range pools {
		t.Run(pool.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			n := simnet.New(k, simnet.Config{PropDelay: sim.Millisecond})
			client := NewEndpoint(k, n, "client", Options{Workers: 2, Exec: pool.exec(k)})
			server := NewEndpoint(k, n, "server", Options{Workers: 2})
			const callbackProg = 200
			callbackServed := false
			client.Register(callbackProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
				callbackServed = true
				return []byte("cb-ok"), StatusOK
			})
			server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
				body, err := server.Call(p, from, callbackProg, 1, 1, nil)
				if err != nil || string(body) != "cb-ok" {
					return nil, StatusSystemErr
				}
				return []byte("done"), StatusOK
			})
			var err error
			var body []byte
			k.Go("caller", func(p *sim.Proc) {
				body, err = client.Call(p, "server", testProg, 1, 1, nil)
				k.Stop()
			})
			k.Run()
			if err != nil || string(body) != "done" {
				t.Fatalf("call = %q, %v", body, err)
			}
			if !callbackServed {
				t.Error("callback never reached the client")
			}
		})
	}
}

func TestStopAndRestartEndpoint(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{}, Options{})
	server.Register(testProg, echoHandler)
	var errDown, errUp error
	k.Go("caller", func(p *sim.Proc) {
		server.Stop()
		_, errDown = sched{10 * sim.Millisecond, 1}.call(p, client, "server", 1, nil)
		server.Restart()
		_, errUp = sched{10 * sim.Millisecond, 1}.call(p, client, "server", 1, nil)
		k.Stop()
	})
	k.Run()
	if !errors.Is(errDown, ErrTimeout) {
		t.Errorf("call to stopped server: %v, want timeout", errDown)
	}
	if errUp != nil {
		t.Errorf("call after restart: %v", errUp)
	}
}

// TestRetransmitBridgesOutage: a call issued while the server is down is
// answered by a retransmission that lands after Restart re-armed the port.
func TestRetransmitBridgesOutage(t *testing.T) {
	for _, pool := range pools {
		t.Run(pool.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			n := simnet.New(k, simnet.Config{PropDelay: sim.Millisecond})
			client := NewEndpoint(k, n, "client", Options{})
			server := NewEndpoint(k, n, "server", Options{Exec: pool.exec(k)})
			server.Register(testProg, echoHandler)
			k.Go("crash", func(p *sim.Proc) {
				p.Sleep(10 * sim.Millisecond)
				server.Stop()
				p.Sleep(300 * sim.Millisecond)
				server.Restart()
			})
			var err error
			k.Go("caller", func(p *sim.Proc) {
				p.Sleep(20 * sim.Millisecond) // issue while the server is down
				_, err = sched{100 * sim.Millisecond, 8}.call(p, client, "server", 7, []byte("x"))
				k.Stop()
			})
			k.Run()
			if err != nil {
				t.Fatalf("call across restart failed: %v", err)
			}
		})
	}
}

// TestServiceTiming pins the service discipline to literal instants: N
// threads, FIFO, a freed thread taking the next call at the instant it
// finishes. The instants (µs) were recorded from the dispatcher-process
// and worker-pool implementation this package had before it served calls
// from an executor; caller i sends 256 bytes to a handler that holds its
// thread for i ms.
func TestServiceTiming(t *testing.T) {
	for _, c := range []struct {
		callers, workers int
		want             []sim.Time
	}{
		{4, 4, []sim.Time{3525, 4795, 6065, 7335}},
		// Beyond Workers: calls 3..6 each wait for the earlier of the two
		// running handlers to finish.
		{6, 2, []sim.Time{3525, 4795, 6525, 8795, 11525, 14795}},
	} {
		t.Run(fmt.Sprintf("%dcallers_%dworkers", c.callers, c.workers), func(t *testing.T) {
			k := sim.NewKernel(1)
			n := simnet.New(k, simnet.Config{PropDelay: sim.Millisecond, BytesPerSec: 1 << 20})
			client := NewEndpoint(k, n, "client", Options{})
			server := NewEndpoint(k, n, "server", Options{Workers: c.workers})
			var order []uint32
			inside, peak := 0, 0
			server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
				order = append(order, proc)
				inside++
				if inside > peak {
					peak = inside
				}
				p.Sleep(sim.Duration(proc) * sim.Millisecond)
				inside--
				return args, StatusOK
			})
			var times []sim.Time
			var wg sim.WaitGroup
			wg.Add(c.callers)
			for i := 1; i <= c.callers; i++ {
				proc := uint32(i)
				k.Go("caller", func(p *sim.Proc) {
					if _, err := client.Call(p, "server", testProg, 1, proc, make([]byte, 256)); err != nil {
						t.Errorf("proc %d: %v", proc, err)
					}
					times = append(times, k.Now())
					wg.Done()
				})
			}
			k.Go("join", func(p *sim.Proc) { wg.Wait(p); k.Stop() })
			k.Run()
			if fmt.Sprint(times) != fmt.Sprint(c.want) {
				t.Errorf("completion instants %v, want %v", times, c.want)
			}
			for i, proc := range order {
				if proc != uint32(i+1) {
					t.Fatalf("service order %v, want arrival order", order)
				}
			}
			if peak != c.workers {
				t.Errorf("peak handler concurrency %d, want %d", peak, c.workers)
			}
		})
	}
}

func TestDupCacheEviction(t *testing.T) {
	var evicted int64
	c := newDupCache(2, &evicted)
	c.start("a", 1)
	c.finish("a", 1, []byte("r1"), nil, nil)
	c.start("a", 2)
	c.finish("a", 2, []byte("r2"), nil, nil)
	c.start("a", 3) // evicts xid 1
	if s := c.lookup("a", 1).state; s != dupNew {
		t.Error("xid 1 should have been evicted")
	}
	if ent := c.lookup("a", 2); ent.state != dupDone || string(ent.head) != "r2" {
		t.Error("xid 2 should be cached")
	}
	if s := c.lookup("a", 3).state; s != dupInProgress {
		t.Error("xid 3 should be in progress")
	}
	if evicted != 1 {
		t.Errorf("eviction counter = %d, want 1", evicted)
	}
}

func TestDupCacheKeyedByClient(t *testing.T) {
	c := newDupCache(10, nil)
	c.start("a", 1)
	c.finish("a", 1, []byte("for-a"), nil, nil)
	if s := c.lookup("b", 1).state; s != dupNew {
		t.Error("xid 1 from a different client must not hit the cache")
	}
}

// TestStressManyClientsWithLoss: 8 clients firing batches of calls over
// a lossy network must all complete correctly, each caller collecting the
// body of its own xid: every call carries a token no other call does, and
// the reply must bring that token back.
func TestStressManyClientsWithLoss(t *testing.T) {
	k := sim.NewKernel(7)
	n := simnet.New(k, simnet.Config{PropDelay: sim.Millisecond, BytesPerSec: 1_250_000, DropEvery: 17})
	server := NewEndpoint(k, n, "server", Options{Workers: 8})
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		e := xdr.NewEncoder()
		e.Uint32(proc * 3)
		e.Raw(args)
		return e.Bytes(), StatusOK
	})
	const clients, calls = 8, 40
	failures := 0
	wrong := 0
	var wg sim.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		name := simnet.Addr(fmt.Sprintf("c%d", c))
		ep := NewEndpoint(k, n, name, Options{})
		k.Go(string(name), func(p *sim.Proc) {
			defer wg.Done()
			for i := uint32(1); i <= calls; i++ {
				token := fmt.Sprintf("%s/%d", name, i)
				body, err := sched{50 * sim.Millisecond, 8}.call(p, ep, "server", i, []byte(token))
				if err != nil {
					failures++
					continue
				}
				d := xdr.NewDecoder(body)
				if d.Uint32() != i*3 || string(d.Raw()) != token {
					wrong++
				}
			}
		})
	}
	k.Go("join", func(p *sim.Proc) { wg.Wait(p); k.Stop() })
	k.Run()
	if failures != 0 || wrong != 0 {
		t.Errorf("%d failures, %d wrong replies out of %d calls", failures, wrong, clients*calls)
	}
	if server.Stats().DupHits == 0 {
		t.Error("no retransmission was answered from the duplicate cache: the loss pattern no longer exercises it")
	}
}

// tokenHandler answers a call with its own arguments.
func tokenHandler(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
	return args, StatusOK
}

// TestEveryMessageDuplicated: with the network delivering each message
// twice, a call still completes once with its own body. The second copy
// of a call meets the duplicate cache; the second copy of a reply finds
// its Pending's slot full, or the call collected and gone, and is dropped.
func TestEveryMessageDuplicated(t *testing.T) {
	k := sim.NewKernel(1)
	// The duplicate queues on the link behind the original and so lands
	// a few dozen microseconds after it.
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond, BytesPerSec: 1_250_000, DupProb: 1}, Options{})
	executions := 0
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		executions++
		p.Sleep(sim.Duration(proc) * sim.Millisecond)
		return args, StatusOK
	})
	const calls = 12
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		for i := 0; i < calls; i++ {
			token := fmt.Sprintf("call %d", i)
			// proc 0 replies at once, so the duplicate call finds
			// the entry done; the others find it in progress.
			body, err := client.Call(p, "server", testProg, 1, uint32(i%3), []byte(token))
			if err != nil || string(body) != token {
				t.Errorf("call %d: body %q, err %v", i, body, err)
			}
		}
		p.Sleep(sim.Second) // the last duplicates land
	})
	k.Run()
	if executions != calls {
		t.Errorf("%d executions of %d calls", executions, calls)
	}
	ss, cs := server.Stats(), client.Stats()
	if ss.DupHits+ss.DupInProgress != calls || ss.DupHits == 0 || ss.DupInProgress == 0 {
		t.Errorf("duplicate calls: %d replayed + %d dropped in progress, want %d in all and some of each",
			ss.DupHits, ss.DupInProgress, calls)
	}
	if cs.Retransmits != 0 || len(client.pending) != 0 {
		t.Errorf("%d retransmits, %d calls still pending, want none", cs.Retransmits, len(client.pending))
	}
}

// TestReplyAfterLastTimeout: a reply that arrives when its caller has
// given up finds no Pending and wakes nobody, and the endpoint's next call
// is answered with its own body, not the stale one.
func TestReplyAfterLastTimeout(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	served := 0
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		served++
		p.Sleep(sim.Duration(proc) * sim.Millisecond)
		return args, StatusOK
	})
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		// 10 + 20 ms of patience against a 100 ms handler.
		if _, err := (sched{10 * sim.Millisecond, 1}).call(p, client, "server", 100, []byte("late")); !errors.Is(err, ErrTimeout) {
			t.Errorf("slow call: err %v, want timeout", err)
		}
		gaveUp := p.Now()
		// A call in flight while the late reply lands (at ~102 ms).
		body, err := sched{10 * sim.Millisecond, 1}.call(p, client, "server", 0, []byte("prompt"))
		if err != nil || string(body) != "prompt" {
			t.Errorf("next call: body %q, err %v", body, err)
		}
		p.Sleep(200 * sim.Millisecond)
		if gaveUp != sim.Time(30*sim.Millisecond) {
			t.Errorf("gave up at %v, want 30ms", gaveUp)
		}
	})
	k.Run()
	if served != 2 {
		t.Errorf("served %d calls, want 2: the slow one ran to completion", served)
	}
	if len(client.pending) != 0 {
		t.Errorf("%d calls still pending", len(client.pending))
	}
}

// TestStaleTimeoutWakesNobody: a call answered in 2 ms withdraws its 1 s
// timeout. At 1 s, where the event would have come due, the caller is
// long gone — parked on something else, here — and must be left alone;
// the completed call meanwhile holds neither its reply nor its wire image.
func TestStaleTimeoutWakesNobody(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	server.Register(testProg, tokenHandler)
	resumed := sim.Time(-1)
	var caller *sim.Proc
	k.Go("caller", func(p *sim.Proc) {
		caller = p
		c := client.start(p, "server", testProg, 1, 1, (&proto.WriteArgs{Data: make([]byte, 8192)}).XDR, CallTimeout, MaxRetries)
		err := c.wait(p)
		if body := xdr.Join(c.body, c.tail); err != nil || len(body) < 8192 {
			t.Errorf("call: %d-byte body, err %v", len(body), err)
		}
		c.done()
		if c.body != nil || c.wire != nil || c.wireTail != nil || c.waiter != nil {
			t.Errorf("collected call still holds body=%d wire=%d+%d bytes, waiter=%v", len(c.body), len(c.wire), len(c.wireTail), c.waiter)
		}
		p.Park()
		resumed = p.Now()
	})
	k.Go("warden", func(p *sim.Proc) {
		p.Sleep(3 * sim.Second) // past 1 s, where the timeout would have come due
		caller.Unpark()
	})
	k.Run()
	if resumed != sim.Time(3*sim.Second) {
		t.Errorf("caller resumed at %v, want 3s: the stale timeout woke it", resumed)
	}
	if n, st := k.Work().Cancelled, client.Work().StaleTimeouts; client.Stats().Retransmits != 0 || n != 1 || st != 0 {
		t.Errorf("%d retransmits, %d timeouts withdrawn, %d stale: want 0, 1 and 0", client.Stats().Retransmits, n, st)
	}
}

// TestCallImageAcrossInlineBoundary: a call image head of up to
// inlineImage bytes lives in its Pending, a larger one in a buffer of its
// own, and a WRITE's 8 KiB data is the image's tail, the caller's own
// bytes behind a 60-byte head; whichever, it is the one frozen image every
// attempt resends. Each call's first attempt is cut, so the image the
// server sees is the retransmitted one, and the network delivers every
// message twice, so the server's port sees each image again after the
// handler has run: every delivery must carry the arguments the caller
// encoded, head‖tail, byte for byte.
func TestCallImageAcrossInlineBoundary(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{PropDelay: sim.Millisecond, DupProb: 1})
	opts := Options{}
	client := NewEndpoint(k, net, "client", opts)
	server := NewEndpoint(k, net, "server", opts)
	server.Register(testProg, tokenHandler)
	var delivered [][]byte // the arguments of every call image the port delivered
	server.port.SetHandler(func(m simnet.Message) {
		var d xdr.Decoder
		d.Reset(m.Payload)
		if d.Uint32(); d.Uint32() == msgCall {
			delivered = append(delivered, append(bytes.Clone(m.Payload[callHeaderLen:]), m.Tail...))
		}
		server.handleMsg(m)
	})
	const word = 4
	write := proto.WriteArgs{Handle: proto.Handle{FSID: 1, Ino: 2, Gen: 3}, Offset: 8192, Unstable: true,
		Data: bytes.Repeat([]byte{0xa5}, 8192)}
	calls := []struct {
		args       func(xdr.Codec)
		want       []byte
		head, tail int  // the image's head and tail lengths
		byRefTail  bool // the tail is the caller's bytes
	}{
		{rawBody(bytes.Repeat([]byte{0xa0}, inlineImage-callHeaderLen)).XDR, bytes.Repeat([]byte{0xa0}, inlineImage-callHeaderLen), inlineImage, 0, false},
		{rawBody(bytes.Repeat([]byte{0xa1}, inlineImage-callHeaderLen+word)).XDR, bytes.Repeat([]byte{0xa1}, inlineImage-callHeaderLen+word), inlineImage + word, 0, false},
		{write.XDR, proto.Marshal(&write), 60, 8192, true},
	}
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		for _, call := range calls {
			n := call.head + call.tail
			delivered = delivered[:0]
			net.Cut("client", "server")
			c := client.start(p, "server", testProg, 1, 1, call.args, CallTimeout, MaxRetries)
			net.Heal("client", "server")
			if len(c.wire) != call.head || len(c.wireTail) != call.tail {
				t.Errorf("%d-byte image: a %d-byte head and a %d-byte tail, want %d and %d", n, len(c.wire), len(c.wireTail), call.head, call.tail)
			}
			if inline := &c.wire[0] == &c.inline[0]; inline != (len(c.wire) <= inlineImage) {
				t.Errorf("%d-byte image: head held inline %v", n, inline)
			}
			if call.byRefTail && (len(c.wireTail) == 0 || &c.wireTail[0] != &write.Data[0]) {
				t.Errorf("%d-byte image: the tail is not the caller's data", n)
			}
			err := c.wait(p)
			if err != nil || !bytes.Equal(xdr.Join(c.body, c.tail), call.want) {
				t.Errorf("%d-byte image: reply of %d bytes, err %v", n, len(c.body), err)
			}
			c.done()
			p.Sleep(10 * sim.Millisecond) // the duplicate lands
			if len(delivered) != 2 {
				t.Errorf("%d-byte image: %d deliveries, want the retransmission and its duplicate", n, len(delivered))
			}
			for j, got := range delivered {
				if !bytes.Equal(got, call.want) {
					t.Errorf("%d-byte image: delivery %d carries %x, want %x", n, j, got, call.want)
				}
			}
		}
	})
	k.Run()
	if st := client.Stats(); st.Retransmits != int64(len(calls)) || st.Timeouts != 0 {
		t.Errorf("%d retransmits and %d timeouts, want one retransmit per call", st.Retransmits, st.Timeouts)
	}
}

// TestTimeoutAcrossRestart: a caller parked on a call when its own host
// crashes and reboots still has its timeouts delivered — the event holds
// the call, not the endpoint's table — so it retries, gives up on
// schedule, and the rebooted endpoint's calls are unaffected.
func TestTimeoutAcrossRestart(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	server.Register(testProg, tokenHandler)
	var orphanErr error
	var orphanDone sim.Time
	k.Go("orphan", func(p *sim.Proc) {
		_, orphanErr = sched{10 * sim.Millisecond, 2}.call(p, client, "nowhere", 1, nil)
		orphanDone = p.Now()
	})
	k.Go("reboot", func(p *sim.Proc) {
		defer k.Stop()
		p.Sleep(5 * sim.Millisecond) // the orphan is parked in its first attempt
		client.Stop()
		client.Restart()
		body, err := sched{10 * sim.Millisecond, 2}.call(p, client, "server", 1, []byte("after reboot"))
		if err != nil || string(body) != "after reboot" {
			t.Errorf("call after restart: body %q, err %v", body, err)
		}
		p.Sleep(sim.Second)
	})
	k.Run()
	if !errors.Is(orphanErr, ErrTimeout) || orphanDone != sim.Time(70*sim.Millisecond) {
		t.Errorf("orphaned call: err %v at %v, want timeout at 70ms", orphanErr, orphanDone)
	}
	if len(client.pending) != 0 {
		t.Errorf("%d calls still pending", len(client.pending))
	}
}

func TestMetricsRecordCallAndServe(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	server.Register(testProg, echoHandler)
	reg := metrics.New()
	client.Attach(trace.Instruments{Metrics: reg})
	server.Attach(trace.Instruments{Metrics: reg})
	k.Go("caller", func(p *sim.Proc) {
		if _, err := client.Call(p, "server", testProg, 1, 7, []byte("abcd")); err != nil {
			t.Errorf("call failed: %v", err)
		}
		// Let the server worker finish its bookkeeping after the reply.
		p.Sleep(sim.Millisecond)
		k.Stop()
	})
	k.Run()
	name := proto.ProcName(testProg, 7)
	call := reg.FindHistogram(metrics.Label("snfs_rpc_call_latency_us", "host", "client", "proc", name))
	if call.Count() != 1 {
		t.Errorf("call histogram count = %d, want 1", call.Count())
	}
	if max := call.Snapshot().Max; max < int64(2*sim.Millisecond) {
		t.Errorf("call latency %dus below two propagation delays", max)
	}
	serve := reg.FindHistogram(metrics.Label("snfs_rpc_serve_us", "host", "server", "proc", name))
	if serve.Count() != 1 {
		t.Errorf("serve histogram count = %d, want 1", serve.Count())
	}
	if client.met == nil || client.met.r != reg || server.met.r != reg {
		t.Error("registry not attached")
	}
	// A later Attach arms its own sinks and keeps the others.
	client.Attach(trace.Instruments{Tracer: trace.New(k.Now, 8)})
	if client.met == nil || client.Metrics != reg || client.Tracer == nil {
		t.Error("attaching a ring dropped the registry")
	}
}
