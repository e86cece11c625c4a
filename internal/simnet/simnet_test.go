package simnet

import (
	"testing"

	"spritelynfs/internal/sim"
)

func TestDeliveryLatency(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{PropDelay: sim.Millisecond, BytesPerSec: 1000_000})
	var arrived sim.Time
	n.Listen("b").SetHandler(func(m Message) {
		arrived = k.Now()
		if string(m.Payload) != "hi" || m.From != "a" || m.To != "b" {
			t.Errorf("bad message %+v", m)
		}
	})
	k.Go("send", func(p *sim.Proc) {
		n.Send("a", "b", []byte("hi"))
	})
	k.Run()
	// 2 bytes at 1 MB/s = 2us transmission + 1ms propagation.
	want := sim.Time(sim.Millisecond + 2*sim.Microsecond)
	if arrived != want {
		t.Errorf("arrived at %v, want %v", arrived, want)
	}
}

func TestLinkSerialization(t *testing.T) {
	k := sim.NewKernel(1)
	// 1000 bytes/sec: a 1000-byte message takes 1s on the wire.
	n := New(k, Config{BytesPerSec: 1000})
	var arrivals []sim.Time
	n.Listen("b").SetHandler(func(Message) { arrivals = append(arrivals, k.Now()) })
	k.Go("send", func(p *sim.Proc) {
		n.Send("a", "b", make([]byte, 1000))
		n.Send("a", "b", make([]byte, 1000)) // must queue behind the first
	})
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("%d arrivals", len(arrivals))
	}
	if arrivals[0] != sim.Time(sim.Second) || arrivals[1] != sim.Time(2*sim.Second) {
		t.Errorf("arrivals %v, want [1s 2s]", arrivals)
	}
	if u := n.LinkUtilization(); u < 0.99 {
		t.Errorf("link utilization %f, want ~1", u)
	}
}

func TestSendToUnknownAddressDropped(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{})
	k.Go("send", func(p *sim.Proc) {
		n.Send("a", "nowhere", []byte("x"))
	})
	k.Run()
	s := n.Stats()
	if s.Dropped != 1 || s.Delivered != 0 {
		t.Errorf("stats %+v, want 1 dropped 0 delivered", s)
	}
}

func TestDropEveryInjectsLoss(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{DropEvery: 3})
	received := 0
	n.Listen("b").SetHandler(func(Message) { received++ })
	k.Go("send", func(p *sim.Proc) {
		for i := 0; i < 9; i++ {
			n.Send("a", "b", []byte("x"))
		}
		p.Sleep(sim.Second)
		k.Stop()
	})
	k.Run()
	if received != 6 {
		t.Errorf("received %d of 9 with every-3rd dropped, want 6", received)
	}
	if n.Stats().Dropped != 3 {
		t.Errorf("dropped %d, want 3", n.Stats().Dropped)
	}
}

// TestProbabilisticLossAndDup: seeded LossProb/DupProb drop and duplicate
// roughly their share of traffic, duplicates actually arrive, and the
// counters stay consistent (delivered = sent − dropped + duplicated).
func TestProbabilisticLossAndDup(t *testing.T) {
	k := sim.NewKernel(42)
	n := New(k, Config{LossProb: 0.2, DupProb: 0.1})
	received := 0
	n.Listen("b").SetHandler(func(Message) { received++ })
	k.Go("send", func(p *sim.Proc) {
		for i := 0; i < 2000; i++ {
			n.Send("a", "b", []byte("x"))
		}
		p.Sleep(sim.Second)
		k.Stop()
	})
	k.Run()
	s := n.Stats()
	if s.Dropped < 300 || s.Dropped > 500 {
		t.Errorf("dropped %d of 2000 at p=0.2, want ~400", s.Dropped)
	}
	if s.Duplicated < 100 || s.Duplicated > 230 {
		t.Errorf("duplicated %d of ~1600 at p=0.1, want ~160", s.Duplicated)
	}
	want := s.Sent - s.Dropped + s.Duplicated
	if int64(received) != want || s.Delivered != want {
		t.Errorf("received %d, delivered %d, want %d", received, s.Delivered, want)
	}
}

// TestZeroProbabilityConsumesNoRandomness: with LossProb and DupProb at
// zero the network never touches the kernel RNG, so default configurations
// keep their exact event schedules.
func TestZeroProbabilityConsumesNoRandomness(t *testing.T) {
	fresh := sim.NewKernel(7).Rand().Int63()
	k := sim.NewKernel(7)
	n := New(k, Config{})
	n.Listen("b")
	k.Go("send", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			n.Send("a", "b", []byte("x"))
		}
	})
	k.Run()
	if after := k.Rand().Int63(); after != fresh {
		t.Errorf("default config consumed RNG draws: next Int63 %d, want %d", after, fresh)
	}
}

func TestDuplicateListenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate Listen")
		}
	}()
	k := sim.NewKernel(1)
	n := New(k, Config{})
	n.Listen("a")
	n.Listen("a")
}

// TestUnlistenKeepsWhatWasDelivered: Unlisten stops future deliveries but
// takes back nothing already handed to the port's handler — the receiver
// owns those messages, in arrival order.
func TestUnlistenKeepsWhatWasDelivered(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{PropDelay: sim.Millisecond})
	var got []string
	n.Listen("b").SetHandler(func(m Message) { got = append(got, string(m.Payload)) })
	k.Go("main", func(p *sim.Proc) {
		n.Send("a", "b", []byte("one"))
		n.Send("a", "b", []byte("two"))
		p.Sleep(10 * sim.Millisecond) // both have landed
		if len(got) != 2 {
			t.Errorf("%d delivered before Unlisten, want 2", len(got))
		}
		n.Unlisten("b")
	})
	k.Run()
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Errorf("handler holds %q after Unlisten", got)
	}
	if s := n.Stats(); s.Delivered != 2 || s.Dropped != 0 {
		t.Errorf("stats %+v, want 2 delivered 0 dropped", s)
	}
}

// TestRelistenSameAddress: releasing an address frees it for a new
// Listen (a server restart), and because delivery resolves the port at
// arrival time, a message in flight across the handoff lands in the NEW
// port's handler — the old port sees nothing.
func TestRelistenSameAddress(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{PropDelay: 10 * sim.Millisecond})
	oldGot := 0
	n.Listen("b").SetHandler(func(Message) { oldGot++ })
	var payload string
	k.Go("main", func(p *sim.Proc) {
		n.Send("a", "b", []byte("handoff"))
		n.Unlisten("b")
		// Must not panic: the address is free again.
		n.Listen("b").SetHandler(func(m Message) { payload = string(m.Payload) })
	})
	k.Run()
	if oldGot != 0 {
		t.Errorf("old port got %d messages after Unlisten", oldGot)
	}
	if payload != "handoff" {
		t.Errorf("new port read %q", payload)
	}
	if s := n.Stats(); s.Delivered != 1 || s.Dropped != 0 {
		t.Errorf("stats %+v, want 1 delivered 0 dropped", s)
	}
}

func TestUnlistenDropsSubsequent(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{PropDelay: sim.Millisecond})
	n.Listen("b")
	k.Go("main", func(p *sim.Proc) {
		n.Unlisten("b")
		n.Send("a", "b", []byte("x"))
		p.Sleep(sim.Second)
	})
	k.Run()
	if n.Stats().Dropped != 1 {
		t.Errorf("dropped %d, want 1", n.Stats().Dropped)
	}
}

func TestOneWayCut(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{PropDelay: sim.Millisecond})
	var atB, atA int
	n.Listen("a").SetHandler(func(Message) { atA++ })
	n.Listen("b").SetHandler(func(Message) { atB++ })
	k.Go("drive", func(p *sim.Proc) {
		n.Cut("a", "b")
		n.Send("a", "b", []byte("lost"))  // cut direction
		n.Send("b", "a", []byte("heard")) // reverse delivers
		p.Sleep(10 * sim.Millisecond)
		n.Heal("a", "b")
		n.Send("a", "b", []byte("heard"))
		p.Sleep(10 * sim.Millisecond)
		k.Stop()
	})
	k.Run()
	if atB != 1 || atA != 1 {
		t.Errorf("delivered a->b %d (want 1), b->a %d (want 1)", atB, atA)
	}
	s := n.Stats()
	if s.Cut != 1 || s.Dropped != 1 {
		t.Errorf("stats %+v, want Cut=1 Dropped=1", s)
	}
}

func TestCutForHealsOnSchedule(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{})
	var arrivals []sim.Time
	n.Listen("b").SetHandler(func(Message) { arrivals = append(arrivals, k.Now()) })
	k.Go("drive", func(p *sim.Proc) {
		n.CutFor("a", "b", sim.Second, 0) // zero jitter: heals at exactly 1s
		n.Send("a", "b", []byte("x"))     // t=0: cut
		p.Sleep(999 * sim.Millisecond)
		n.Send("a", "b", []byte("x")) // t=999ms: still cut
		p.Sleep(2 * sim.Millisecond)
		n.Send("a", "b", []byte("x")) // t=1.001s: healed
		p.Sleep(sim.Millisecond)
		k.Stop()
	})
	k.Run()
	if len(arrivals) != 1 || arrivals[0] != sim.Time(1001*sim.Millisecond) {
		t.Errorf("arrivals %v, want exactly one at 1.001s", arrivals)
	}
}

func TestCutForJitterIsSeededAndBounded(t *testing.T) {
	// The same seed must produce the same heal time; the heal must land
	// in [d, d+jitter).
	healAt := func(seed int64) sim.Time {
		k := sim.NewKernel(seed)
		n := New(k, Config{})
		var got sim.Time
		n.Listen("b").SetHandler(func(Message) {
			if got == 0 {
				got = k.Now()
			}
		})
		k.Go("drive", func(p *sim.Proc) {
			n.CutFor("a", "b", sim.Second, sim.Second)
			for i := 0; i < 4000; i++ {
				n.Send("a", "b", []byte("x"))
				p.Sleep(sim.Millisecond)
			}
		})
		k.Run()
		return got
	}
	a, b := healAt(7), healAt(7)
	if a != b {
		t.Errorf("same seed healed at %v and %v", a, b)
	}
	if a < sim.Time(sim.Second) || a >= sim.Time(2*sim.Second)+sim.Time(sim.Millisecond) {
		t.Errorf("heal at %v, want within [1s, 2s] (+1ms probe quantum)", a)
	}
	if c := healAt(8); c == a {
		t.Logf("seeds 7 and 8 healed at the same probe tick %v (possible, just unlikely)", c)
	}
}

func TestCutBothIsSymmetric(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{})
	n.Listen("a").SetHandler(func(Message) {})
	n.Listen("b").SetHandler(func(Message) {})
	k.Go("drive", func(p *sim.Proc) {
		n.CutBoth("a", "b")
		n.Send("a", "b", []byte("x"))
		n.Send("b", "a", []byte("x"))
		n.HealBoth("a", "b")
		n.Send("a", "b", []byte("x"))
		n.Send("b", "a", []byte("x"))
	})
	k.Run()
	s := n.Stats()
	if s.Cut != 2 || s.Delivered != 2 {
		t.Errorf("stats %+v, want Cut=2 Delivered=2", s)
	}
}

// TestSendDeliverAllocatesNothing: once the free list holds as many
// flights as are ever in the air together, a message goes from Send
// through both hops to a port handler without an allocation — the
// handler's own Send included.
func TestSendDeliverAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	k := sim.NewKernel(1)
	n := New(k, Config{PropDelay: sim.Millisecond, BytesPerSec: 1_250_000})
	payload := make([]byte, 128)
	echoed := 0
	n.Listen("a").SetHandler(func(m Message) { echoed++ })
	n.Listen("b").SetHandler(func(m Message) { n.Send(m.To, m.From, m.Payload) })
	allocs := testing.AllocsPerRun(100, func() {
		n.Send("a", "b", payload)
		n.Send("a", "b", payload)
		k.Run()
	})
	if allocs != 0 {
		t.Errorf("two messages sent, delivered and answered allocate %v objects, want 0", allocs)
	}
	if echoed != 2*101 || len(n.free) != 3 {
		t.Errorf("%d echoes came back through %d flights, want %d through 3", echoed, len(n.free), 2*101)
	}
}

// TestLandedFlightHoldsNothing: a flight on the free list must not keep
// its last message — the payload is a wire image, 8 KiB+ for a WRITE, and
// would stay reachable until the flight's next use. However the message
// ended: handed to a handler, duplicated, or dropped at a port without a
// handler or an address nobody listens on.
func TestLandedFlightHoldsNothing(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{PropDelay: sim.Millisecond, DupProb: 1})
	var handled []Message
	n.Listen("handler").SetHandler(func(m Message) { handled = append(handled, m) })
	n.Listen("mute")
	payload := make([]byte, 8192)
	for _, to := range []Addr{"handler", "mute", "nobody"} {
		n.Send("a", to, payload)
	}
	k.Run()
	if len(n.free) != 6 {
		t.Fatalf("%d flights on the free list, want 6: three messages, each duplicated in a flight of its own", len(n.free))
	}
	for i, f := range n.free {
		if f.msg.Payload != nil || f.msg.From != "" || f.msg.To != "" || f.onWire {
			t.Errorf("landed flight %d still holds %+v (onWire=%v)", i, f.msg, f.onWire)
		}
	}
	// What the receivers were given is theirs: by value, payload intact.
	if s := n.Stats(); len(handled) != 2 || s.Delivered != 2 || s.Dropped != 4 {
		t.Fatalf("handler got %d messages, stats %+v, want 2 delivered and 4 dropped", len(handled), s)
	}
	for _, m := range handled {
		if m.From != "a" || m.To != "handler" || &m.Payload[0] != &payload[0] {
			t.Errorf("handler's message %+v is not the one sent", m)
		}
	}
}
