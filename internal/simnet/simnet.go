// Package simnet models the network joining the simulated hosts: a single
// shared link (a 1989-vintage 10 Mbit/s Ethernet in the calibrated
// configuration) with propagation delay, serialization by bandwidth, and
// optional deterministic message loss for exercising RPC retransmission.
package simnet

import (
	"fmt"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/xdr"
)

// Addr identifies a host endpoint on the network.
type Addr string

// Message is a datagram in flight or delivered to a port. Its bytes are
// Payload followed by Tail and the tail's XDR pad (xdr.Pad): a sender may
// hand a message's last part over by reference (xdr.Encoder.Image)
// instead of copying it behind the rest, and the pad travels as a
// length, not as bytes. Tail is nil for a message sent whole.
//
// Owner, when set, is the object Payload's bytes live in (SendOwned); nil
// means Payload is garbage-collected memory nobody recycles.
type Message struct {
	From    Addr
	To      Addr
	Payload []byte
	Tail    []byte
	Owner   Owner
}

// Owner is a recycled message head: the object whose bytes a Payload is,
// which counts its holders and goes back to its sender's free list when
// the last one lets go. The network holds one reference for each copy in
// flight: it takes it when the copy goes on the link and releases it when
// the copy is lost at the far end (no port there), or hands it to the
// port's handler with the delivered Message. A copy dropped before the
// link (DropEvery, LossProb, a cut) takes none. A holder that never
// releases leaves the owner to the garbage collector, which is always
// safe; a release that comes too early never is.
type Owner interface {
	Hold()
	Release()
}

// Len returns the message's length on the wire (xdr.WireLen).
func (m Message) Len() int { return xdr.WireLen(m.Payload, m.Tail) }

// Config holds the network cost model.
type Config struct {
	// PropDelay is the fixed per-message latency (propagation plus
	// protocol stack overhead at both ends).
	PropDelay sim.Duration
	// BytesPerSec is the link bandwidth; transmissions serialize on the
	// shared link at this rate. Zero means infinite bandwidth.
	BytesPerSec int64
	// DropEvery, if > 0, drops every Nth message (deterministic fault
	// injection for retransmission tests).
	DropEvery int64
	// LossProb, if > 0, drops each message independently with this
	// probability, drawn from the kernel's seeded RNG — a statistical
	// fault model beside DropEvery's deterministic one. The RNG is only
	// consulted when the probability is nonzero, so default
	// configurations consume no draws and stay schedule-identical.
	LossProb float64
	// DupProb, if > 0, delivers each (undropped) message a second time,
	// with the same seeded-draw rule. Duplicate requests exercise the
	// receiver's duplicate cache; duplicate replies are discarded by XID
	// matching.
	DupProb float64
}

// Stats reports aggregate network activity.
type Stats struct {
	Sent       int64
	Delivered  int64
	Dropped    int64
	Duplicated int64
	Cut        int64 // dropped by a one-way partition
	Bytes      int64
}

// cutKey identifies one direction of a host pair.
type cutKey struct{ from, to Addr }

// Network is the simulated shared medium.
type Network struct {
	k     *sim.Kernel
	cfg   Config
	link  *sim.Resource
	ports map[Addr]*Port
	cuts  map[cutKey]bool
	stats Stats
	// free holds the flights not in use; it grows to the most messages
	// ever in flight together.
	free []*flight
}

// flight is a message in flight: one object carries it through both hops
// — the link's completion, then the propagation delay — as the event's
// target, first in the link resource's completion lane and then in the
// kernel's lane for PropDelay (sim.Kernel.AfterFixed), and goes back to
// its network's free list when the message has been handed over. Only the
// network holds a *flight; a receiver gets the Message by value.
type flight struct {
	n      *Network
	msg    Message
	onWire bool // the link hop is done: the next Due is the arrival
}

// New returns a network on kernel k with the given cost model.
func New(k *sim.Kernel, cfg Config) *Network {
	return &Network{
		k:     k,
		cfg:   cfg,
		link:  sim.NewResource(k, "net"),
		ports: make(map[Addr]*Port),
		cuts:  make(map[cutKey]bool),
	}
}

// Stats returns a snapshot of network counters.
func (n *Network) Stats() Stats { return n.stats }

// LinkUtilization reports the fraction of elapsed time the link was busy.
func (n *Network) LinkUtilization() float64 { return n.link.Utilization() }

// Port is a host's receive endpoint: the handler arriving messages are
// handed to.
type Port struct {
	handler func(Message)
}

// Listen claims addr and returns its receive port. It panics if the
// address is already taken (a configuration error, not a runtime one).
func (n *Network) Listen(addr Addr) *Port {
	if _, ok := n.ports[addr]; ok {
		panic(fmt.Sprintf("simnet: address %q already in use", addr))
	}
	p := &Port{}
	n.ports[addr] = p
	return p
}

// Unlisten releases addr; in-flight messages to it are dropped on arrival.
func (n *Network) Unlisten(addr Addr) { delete(n.ports, addr) }

// Send transmits payload from from to to. The sender does not block: the
// transmission occupies the shared link for its serialization time and the
// message arrives PropDelay after the transmission completes. Messages to
// unclaimed addresses are silently dropped, like datagrams to a dead host.
func (n *Network) Send(from, to Addr, payload []byte) { n.SendOwned(from, to, payload, nil, nil) }

// SendTail is Send for a message in two parts, head‖tail‖pad, delivered
// as Message.Payload and Message.Tail. It is counted and serialized as the
// one message it is, its pad included (Message.Len).
func (n *Network) SendTail(from, to Addr, head, tail []byte) { n.SendOwned(from, to, head, tail, nil) }

// SendOwned is SendTail for a head whose bytes live in owner: every copy
// that goes on the link holds a reference to it (Owner).
func (n *Network) SendOwned(from, to Addr, head, tail []byte, owner Owner) {
	n.stats.Sent++
	n.stats.Bytes += int64(xdr.WireLen(head, tail))
	if n.cfg.DropEvery > 0 && n.stats.Sent%n.cfg.DropEvery == 0 {
		n.stats.Dropped++
		return
	}
	if n.cfg.LossProb > 0 && n.k.Rand().Float64() < n.cfg.LossProb {
		n.stats.Dropped++
		return
	}
	if len(n.cuts) > 0 && n.cuts[cutKey{from, to}] {
		// One-way partition: this direction is cut; the reverse
		// direction is unaffected unless cut separately.
		n.stats.Dropped++
		n.stats.Cut++
		return
	}
	msg := Message{From: from, To: to, Payload: head, Tail: tail, Owner: owner}
	n.transmit(msg)
	if n.cfg.DupProb > 0 && n.k.Rand().Float64() < n.cfg.DupProb {
		// The duplicate serializes on the link like any transmission
		// and so arrives strictly after the original. It flies in an
		// object of its own.
		n.stats.Duplicated++
		n.transmit(msg)
	}
}

// transmit occupies the link for the message's serialization time, with a
// flight to come due when the link is done with it. The flight holds a
// reference to the head's owner.
func (n *Network) transmit(msg Message) {
	if msg.Owner != nil {
		msg.Owner.Hold()
	}
	var xmit sim.Duration
	if n.cfg.BytesPerSec > 0 {
		xmit = sim.Duration(int64(msg.Len()) * int64(sim.Second) / n.cfg.BytesPerSec)
	}
	var f *flight
	if last := len(n.free) - 1; last >= 0 {
		f, n.free = n.free[last], n.free[:last]
	} else {
		f = &flight{n: n}
	}
	f.msg = msg
	n.link.UseAsync(xmit, f)
}

// Due is the flight's two events. The arrival is scheduled only when the
// link hop runs, not at Send: it takes its place among that instant's
// events as it always has, so same-instant ties resolve as before.
func (f *flight) Due() {
	n := f.n
	if !f.onWire {
		f.onWire = true
		n.k.AfterFixed(n.cfg.PropDelay, f)
		return
	}
	n.deliver(f.msg)
	// Back on the free list the flight references nothing: a payload
	// left here would stay reachable until the slot's next use.
	f.msg, f.onWire = Message{}, false
	n.free = append(n.free, f)
}

// deliver hands an arrived message to its port's handler, with the
// flight's reference to its owner, if the address is still claimed and has
// one; a message lost here lets its reference go.
func (n *Network) deliver(msg Message) {
	port := n.ports[msg.To]
	if port == nil || port.handler == nil {
		n.stats.Dropped++
		if msg.Owner != nil {
			msg.Owner.Release()
		}
		return
	}
	n.stats.Delivered++
	port.handler(msg)
}

// Cut severs the from→to direction: messages from `from` to `to` are
// dropped until Heal. The reverse direction keeps delivering — the
// asymmetric failure that makes `to` look dead to `from` while `to`
// still hears everyone (the case a viewservice must not mistake for a
// symmetric crash). Cutting an already-cut direction is a no-op.
func (n *Network) Cut(from, to Addr) { n.cuts[cutKey{from, to}] = true }

// Heal restores the from→to direction. Healing an uncut direction is a
// no-op.
func (n *Network) Heal(from, to Addr) { delete(n.cuts, cutKey{from, to}) }

// CutFor cuts from→to and schedules the heal after d plus a jitter drawn
// from the kernel's seeded RNG in [0, jitter) — deterministic for a
// fixed seed, varied across seeds. A zero jitter heals at exactly d.
func (n *Network) CutFor(from, to Addr, d, jitter sim.Duration) {
	n.Cut(from, to)
	if jitter > 0 {
		d += sim.Duration(n.k.Rand().Int63n(int64(jitter)))
	}
	n.k.After(d, func() { n.Heal(from, to) })
}

// CutBoth severs both directions between a and b (a symmetric partition
// built from the one-way primitive).
func (n *Network) CutBoth(a, b Addr) {
	n.Cut(a, b)
	n.Cut(b, a)
}

// HealBoth restores both directions between a and b.
func (n *Network) HealBoth(a, b Addr) {
	n.Heal(a, b)
	n.Heal(b, a)
}

// SetHandler sets the port's receiver: each arriving message is handed to
// fn at its delivery instant, in scheduler context (until one is set,
// arrivals are dropped). fn must not block; receivers that need blocking
// service hand the message off (e.g. to a sim.Executor). Event delivery is
// what lets a fleet-scale world run one RPC endpoint per client without
// one parked dispatcher goroutine per client.
//
// fn receives the Message by value, and that copy is all it gets. Its
// Payload and Tail are the sender's frozen buffers (DESIGN.md §14), never
// the network's, read-only. Who keeps them and for how long:
//
//	holder                       until
//	Tail, From, To               as long as fn likes: never reused here
//	Payload, Owner == nil        as long as fn likes: nobody recycles it
//	Payload, Owner != nil        fn calls Owner.Release (or never does:
//	                             then the owner is the collector's)
//	the flight (network's own)   fn returns: cleared and recycled
//
// A Payload with an Owner comes with the flight's reference to it: fn may
// keep the bytes, and views decoded from them, until it releases that
// reference and not an instant longer, since the sender may then build
// another message in them. Nothing of the network's own may be kept,
// which is why fn is not given the flight's address, and a handler must
// not be changed to take one.
func (p *Port) SetHandler(fn func(Message)) { p.handler = fn }
