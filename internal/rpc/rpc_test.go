package rpc

import (
	"errors"
	"fmt"
	"testing"

	"spritelynfs/internal/metrics"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/xdr"
)

const testProg = 100

func newPair(k *sim.Kernel, cfg simnet.Config, opts Options) (client, server *Endpoint) {
	n := simnet.New(k, cfg)
	client = NewEndpoint(k, n, "client", opts)
	server = NewEndpoint(k, n, "server", opts)
	return client, server
}

// echoHandler replies with the args, uppercased procedure number prefixed.
func echoHandler(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
	e := xdr.NewEncoder()
	e.Uint32(proc)
	e.FixedOpaque(args)
	return e.Bytes(), StatusOK
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
			server.Register(testProg, echoHandler)
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
			if d.Uint32() != 7 || string(d.FixedOpaque(4)) != "abcd" {
				t.Errorf("bad reply %x", got)
			}
			if client.Stats().CallsSent != 1 || server.Stats().CallsServed != 1 {
				t.Errorf("stats client %+v server %+v", client.Stats(), server.Stats())
			}
			if ex != nil && ex.Jobs() != 1 {
				t.Errorf("shared executor ran %d jobs, want the one call", ex.Jobs())
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
	wg := sim.NewWaitGroup(k, 4)
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
		simnet.Config{PropDelay: sim.Millisecond, DropEvery: 3},
		Options{CallTimeout: 100 * sim.Millisecond})
	server.Register(testProg, echoHandler)
	failed := 0
	k.Go("caller", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if _, err := client.Call(p, "server", testProg, 1, 1, []byte("x")); err != nil {
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
	client := NewEndpoint(k, n, "client", Options{CallTimeout: 10 * sim.Millisecond, MaxRetries: 2})
	var err error
	var elapsed sim.Time
	k.Go("caller", func(p *sim.Proc) {
		_, err = client.Call(p, "nowhere", testProg, 1, 1, nil)
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

// deadCallElapsed runs one call against a dead address under opts and
// returns how long the caller waited before giving up.
func deadCallElapsed(t *testing.T, seed int64, opts Options) sim.Time {
	t.Helper()
	k := sim.NewKernel(seed)
	n := simnet.New(k, simnet.Config{})
	client := NewEndpoint(k, n, "client", opts)
	var err error
	var elapsed sim.Time
	k.Go("caller", func(p *sim.Proc) {
		_, err = client.Call(p, "nowhere", testProg, 1, 1, nil)
		elapsed = p.Now()
		k.Stop()
	})
	k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	return elapsed
}

// TestBackoffCap: once the doubled timeout reaches MaxBackoff it stops
// growing, so a generous retry budget waits linearly, not exponentially.
func TestBackoffCap(t *testing.T) {
	opts := Options{CallTimeout: 10 * sim.Millisecond, MaxRetries: 4,
		MaxBackoff: 20 * sim.Millisecond}
	// 10 + 20 + 20 + 20 + 20 ms: the third and later attempts are clamped
	// (uncapped they would double to 40, 80, 160 for a 310 ms total).
	if got := deadCallElapsed(t, 1, opts); got != sim.Time(90*sim.Millisecond) {
		t.Errorf("gave up at %v, want 90ms (capped backoff)", got)
	}
}

// TestBackoffCapNeverShrinksFirstTimeout: an explicit per-call timeout
// above the cap (the SNFS callback path passes its own) is honored as-is.
func TestBackoffCapNeverShrinksFirstTimeout(t *testing.T) {
	opts := Options{CallTimeout: 50 * sim.Millisecond, MaxRetries: 2,
		MaxBackoff: 20 * sim.Millisecond}
	// The limit rises to the first timeout: 50 + 50 + 50 ms.
	if got := deadCallElapsed(t, 1, opts); got != sim.Time(150*sim.Millisecond) {
		t.Errorf("gave up at %v, want 150ms (cap floored at CallTimeout)", got)
	}
}

// TestBackoffJitter: a positive jitter perturbs every backed-off wait by
// a seeded draw bounded by ±jitter×backoff, stays deterministic for a
// fixed seed, and zero jitter reproduces the vintage schedule exactly.
func TestBackoffJitter(t *testing.T) {
	base := Options{CallTimeout: 10 * sim.Millisecond, MaxRetries: 3}
	plain := deadCallElapsed(t, 3, base)
	if plain != sim.Time(150*sim.Millisecond) { // 10 + 20 + 40 + 80
		t.Fatalf("deterministic schedule gave up at %v, want 150ms", plain)
	}
	jopts := base
	jopts.BackoffJitter = 0.25
	jit := deadCallElapsed(t, 3, jopts)
	if jit == plain {
		t.Error("jitter left the schedule unperturbed")
	}
	// Each backed-off wait moves at most ±25%: total in [115ms, 185ms].
	if jit < sim.Time(115*sim.Millisecond) || jit > sim.Time(185*sim.Millisecond) {
		t.Errorf("jittered total %v outside ±25%% envelope [115ms, 185ms]", jit)
	}
	if again := deadCallElapsed(t, 3, jopts); again != jit {
		t.Errorf("same seed gave %v then %v; jitter must be reproducible", jit, again)
	}
}

func TestDuplicateCacheSuppressesReexecution(t *testing.T) {
	k := sim.NewKernel(1)
	// Drop every 3rd message. With a non-idempotent counter handler, the
	// retransmitted call must not increment twice.
	client, server := newPair(k,
		simnet.Config{PropDelay: sim.Millisecond, DropEvery: 3},
		Options{CallTimeout: 50 * sim.Millisecond})
	executions := 0
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		executions++
		return nil, StatusOK
	})
	calls := 0
	k.Go("caller", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if _, err := client.Call(p, "server", testProg, 1, 1, nil); err == nil {
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
		simnet.Config{PropDelay: sim.Millisecond},
		Options{CallTimeout: 20 * sim.Millisecond, MaxRetries: 5})
	executions := 0
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		executions++
		p.Sleep(50 * sim.Millisecond) // slower than the client timeout
		return nil, StatusOK
	})
	var err error
	k.Go("caller", func(p *sim.Proc) {
		_, err = client.Call(p, "server", testProg, 1, 1, nil)
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
	client, server := newPair(k, simnet.Config{}, Options{Workers: 2, CallTimeout: 10 * sim.Second})
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
	wg := sim.NewWaitGroup(k, 6)
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
		Options{Workers: 1, CallTimeout: 100 * sim.Millisecond, MaxRetries: 1})
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		p.Sleep(10 * sim.Millisecond)
		return nil, StatusOK
	})
	wg := sim.NewWaitGroup(k, 3)
	for i := 0; i < 3; i++ {
		k.Go("caller", func(p *sim.Proc) {
			client.Call(p, "server", testProg, 1, 1, nil)
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
	if served := server.Stats().CallsServed; served != 1 {
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
			Options{Workers: 2, CallTimeout: 100 * sim.Millisecond, MaxRetries: 1})
		var started []string
		ran := map[string]*sim.Proc{}
		server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
			started = append(started, string(args))
			ran[string(args)] = p
			p.Sleep(sim.Millisecond)
			return nil, StatusOK
		})
		wg := sim.NewWaitGroup(k, 3)
		for _, c := range []struct {
			token string
			at    sim.Duration
		}{{"A", 0}, {"B", sim.Millisecond}, {"C", sim.Millisecond}} {
			k.Go(c.token, func(p *sim.Proc) {
				p.Sleep(c.at)
				client.Call(p, "server", testProg, 1, 1, []byte(c.token))
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
	client, server := newPair(k, simnet.Config{},
		Options{CallTimeout: 10 * sim.Millisecond, MaxRetries: 1})
	server.Register(testProg, echoHandler)
	var errDown, errUp error
	k.Go("caller", func(p *sim.Proc) {
		server.Stop()
		_, errDown = client.Call(p, "server", testProg, 1, 1, nil)
		server.Restart()
		_, errUp = client.Call(p, "server", testProg, 1, 1, nil)
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
			client := NewEndpoint(k, n, "client", Options{CallTimeout: 100 * sim.Millisecond, MaxRetries: 8})
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
				_, err = client.Call(p, "server", testProg, 1, 7, []byte("x"))
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
			wg := sim.NewWaitGroup(k, c.callers)
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
	c.finish("a", 1, []byte("r1"))
	c.start("a", 2)
	c.finish("a", 2, []byte("r2"))
	c.start("a", 3) // evicts xid 1
	if s, _ := c.lookup("a", 1); s != dupNew {
		t.Error("xid 1 should have been evicted")
	}
	if s, w := c.lookup("a", 2); s != dupDone || string(w) != "r2" {
		t.Error("xid 2 should be cached")
	}
	if s, _ := c.lookup("a", 3); s != dupInProgress {
		t.Error("xid 3 should be in progress")
	}
	if evicted != 1 {
		t.Errorf("eviction counter = %d, want 1", evicted)
	}
}

func TestDupCacheKeyedByClient(t *testing.T) {
	c := newDupCache(10, nil)
	c.start("a", 1)
	c.finish("a", 1, []byte("for-a"))
	if s, _ := c.lookup("b", 1); s != dupNew {
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
	server := NewEndpoint(k, n, "server", Options{Workers: 8, CallTimeout: 50 * sim.Millisecond})
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		e := xdr.NewEncoder()
		e.Uint32(proc * 3)
		e.Raw(args)
		return e.Bytes(), StatusOK
	})
	const clients, calls = 8, 40
	failures := 0
	wrong := 0
	wg := sim.NewWaitGroup(k, clients)
	for c := 0; c < clients; c++ {
		name := simnet.Addr(fmt.Sprintf("c%d", c))
		ep := NewEndpoint(k, n, name, Options{CallTimeout: 50 * sim.Millisecond, MaxRetries: 8})
		k.Go(string(name), func(p *sim.Proc) {
			defer wg.Done()
			for i := uint32(1); i <= calls; i++ {
				token := fmt.Sprintf("%s/%d", name, i)
				body, err := ep.Call(p, "server", testProg, 1, i, []byte(token))
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
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond},
		Options{CallTimeout: 10 * sim.Millisecond, MaxRetries: 1})
	server.Register(testProg, func(p *sim.Proc, from simnet.Addr, proc uint32, args []byte) ([]byte, Status) {
		p.Sleep(sim.Duration(proc) * sim.Millisecond)
		return args, StatusOK
	})
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		// 10 + 20 ms of patience against a 100 ms handler.
		if _, err := client.Call(p, "server", testProg, 1, 100, []byte("late")); !errors.Is(err, ErrTimeout) {
			t.Errorf("slow call: err %v, want timeout", err)
		}
		gaveUp := p.Now()
		// A call in flight while the late reply lands (at ~102 ms).
		body, err := client.Call(p, "server", testProg, 1, 0, []byte("prompt"))
		if err != nil || string(body) != "prompt" {
			t.Errorf("next call: body %q, err %v", body, err)
		}
		p.Sleep(200 * sim.Millisecond)
		if gaveUp != sim.Time(30*sim.Millisecond) {
			t.Errorf("gave up at %v, want 30ms", gaveUp)
		}
	})
	k.Run()
	if served := server.Stats().CallsServed; served != 2 {
		t.Errorf("served %d calls, want 2: the slow one ran to completion", served)
	}
	if len(client.pending) != 0 {
		t.Errorf("%d calls still pending", len(client.pending))
	}
}

// TestStaleTimeoutWakesNobody: the kernel cannot withdraw an event, so a
// call answered in 2 ms leaves its 1 s timeout on the heap. When that
// comes due the caller is long gone — parked on something else, here —
// and must be left alone; the completed call meanwhile holds neither its
// reply nor its wire image, which the stale event would otherwise pin.
func TestStaleTimeoutWakesNobody(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond}, Options{})
	server.Register(testProg, tokenHandler)
	resumed := sim.Time(-1)
	var caller *sim.Proc
	k.Go("caller", func(p *sim.Proc) {
		caller = p
		c := client.Start(p, "server", testProg, 1, 1, &proto.WriteArgs{Data: make([]byte, 8192)})
		body, err := c.Wait(p)
		if err != nil || len(body) < 8192 {
			t.Errorf("call: %d-byte body, err %v", len(body), err)
		}
		if c.body != nil || c.wire != nil || c.waiter != nil {
			t.Errorf("collected call still holds body=%d wire=%d bytes, waiter=%v", len(c.body), len(c.wire), c.waiter)
		}
		p.Park()
		resumed = p.Now()
	})
	k.Go("warden", func(p *sim.Proc) {
		p.Sleep(3 * sim.Second) // the stale timeout came due at 1 s
		caller.Unpark()
	})
	k.Run()
	if resumed != sim.Time(3*sim.Second) {
		t.Errorf("caller resumed at %v, want 3s: the stale timeout woke it", resumed)
	}
	if client.Stats().Retransmits != 0 {
		t.Errorf("%d retransmits", client.Stats().Retransmits)
	}
}

// TestTimeoutAcrossRestart: a caller parked on a call when its own host
// crashes and reboots still has its timeouts delivered — the event holds
// the call, not the endpoint's table — so it retries, gives up on
// schedule, and the rebooted endpoint's calls are unaffected.
func TestTimeoutAcrossRestart(t *testing.T) {
	k := sim.NewKernel(1)
	client, server := newPair(k, simnet.Config{PropDelay: sim.Millisecond},
		Options{CallTimeout: 10 * sim.Millisecond, MaxRetries: 2})
	server.Register(testProg, tokenHandler)
	var orphanErr error
	var orphanDone sim.Time
	k.Go("orphan", func(p *sim.Proc) {
		_, orphanErr = client.Call(p, "nowhere", testProg, 1, 1, nil)
		orphanDone = p.Now()
	})
	k.Go("reboot", func(p *sim.Proc) {
		defer k.Stop()
		p.Sleep(5 * sim.Millisecond) // the orphan is parked in its first attempt
		client.Stop()
		client.Restart()
		body, err := client.Call(p, "server", testProg, 1, 1, []byte("after reboot"))
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
	client.SetMetrics(reg)
	server.SetMetrics(reg)
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
	if call.Max() < int64(2*sim.Millisecond) {
		t.Errorf("call latency %dus below two propagation delays", call.Max())
	}
	serve := reg.FindHistogram(metrics.Label("snfs_rpc_serve_us", "host", "server", "proc", name))
	if serve.Count() != 1 {
		t.Errorf("serve histogram count = %d, want 1", serve.Count())
	}
	if client.Metrics() != reg || server.Metrics() != reg {
		t.Error("Metrics() accessor mismatch")
	}
	client.SetMetrics(nil)
	if client.Metrics() != nil {
		t.Error("nil SetMetrics did not detach")
	}
}
