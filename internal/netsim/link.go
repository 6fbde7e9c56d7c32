package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/sim/shard"
)

// Link is anything an interface can transmit packets into. Concrete links
// decide pacing, queueing, loss, and where the packet emerges.
type Link interface {
	// Send transmits pkt out of the given interface. Implementations take
	// ownership of pkt: they deliver it, hand it on, or Free it.
	Send(from *Iface, pkt *Packet)
}

// LinkConfig describes one direction of a point-to-point link.
type LinkConfig struct {
	// RateBps is the serialization rate in bits per second. Zero means
	// infinite (no serialization delay).
	RateBps float64
	// Delay is the fixed one-way propagation delay.
	Delay time.Duration
	// Jitter, if non-zero, adds a uniformly distributed extra delay in
	// [0, Jitter) per packet. Reordering is prevented: a packet never
	// arrives before a previously transmitted one.
	Jitter time.Duration
	// LossProb is an independent per-packet random loss probability.
	LossProb float64
	// QueueBytes bounds the transmit queue (drop-tail) in bytes of IP
	// packet. Zero means unbounded.
	QueueBytes int
	// QueuePackets bounds the transmit queue in packets. Zero means
	// unbounded.
	QueuePackets int
}

// DirStats counts per-direction link activity.
type DirStats struct {
	TxPackets  uint64 // packets fully serialized onto the wire
	TxBytes    uint64
	QueueDrops uint64 // drop-tail discards
	LossDrops  uint64 // random-loss discards
}

// P2PLink is a full-duplex point-to-point link between two interfaces,
// with independent per-direction rate, delay, jitter, loss and queue.
type P2PLink struct{ duplex }

// NewP2PLink creates a link. a2b configures the ends[0]->ends[1] direction
// and b2a the reverse. Attach the ends with Attach before sending.
func NewP2PLink(loop *sim.Loop, name string, a2b, b2a LinkConfig) *P2PLink {
	l := &P2PLink{duplex{name: name}}
	rng := loop.RNG("link/" + name)
	prefix := "netsim/link/" + name + "/"
	l.dirs[0] = newLinkDir(loop, rng, prefix, a2b)
	l.dirs[1] = newLinkDir(loop, rng, prefix, b2a)
	return l
}

// Attach connects iface as end 0 or 1 and points the interface at this
// link.
func (l *P2PLink) Attach(end int, iface *Iface) {
	l.ends[end] = iface
	l.dirs[1-end].to = iface
	iface.link = l
}

// Connect is a convenience that attaches both ends.
func (l *P2PLink) Connect(a, b *Iface) {
	l.Attach(0, a)
	l.Attach(1, b)
}

// duplex is what P2PLink and CrossLink share: the two ends and the two
// directions between them. The links differ only in a direction's
// delivery leg.
type duplex struct {
	name string
	ends [2]*Iface
	dirs [2]*linkDir // dirs[0] carries ends[0] -> ends[1]
}

// Send implements Link.
func (l *duplex) Send(from *Iface, pkt *Packet) {
	switch from {
	case l.ends[0]:
		l.dirs[0].send(pkt)
	case l.ends[1]:
		l.dirs[1].send(pkt)
	default:
		panic(fmt.Sprintf("netsim: iface %s not attached to link %s", from.Name, l.name))
	}
}

// Stats returns counters for the direction out of the given end.
func (l *duplex) Stats(end int) DirStats { return l.dirs[end].stats }

// SetLossProb changes the loss probability of the direction out of end
// — the fault-injection knob for backhaul flaps. Queued and in-flight
// packets are unaffected: loss is drawn when a packet is sent. Loss is
// resolved on the source loop before a cross-shard packet is shipped,
// so unlike delay it has no bearing on the shard engine's lookahead
// contract. The direction's loss RNG is only drawn while the
// probability is positive, so a flap window perturbs no RNG stream
// outside the window.
func (l *duplex) SetLossProb(end int, p float64) { l.dirs[end].cfg.LossProb = p }

// linkDir is one direction of a link: random loss, then a drop-tail
// queue in front of a sim.Pacer that serializes at cfg.RateBps, then
// the delivery leg, which adds the propagation delay and jitter (forced
// monotone) and either schedules the arrival on the direction's own
// loop (P2PLink) or ships the packet across a shard edge (CrossLink,
// edge != nil).
type linkDir struct {
	loop        *sim.Loop
	rng         *rand.Rand
	cfg         LinkConfig
	to          *Iface // destination end
	tx          sim.Pacer[*Packet]
	lastArrival time.Duration // monotone arrival guard against reordering
	stats       DirStats

	// The delivery leg. A cross-shard direction sends on edge; a local
	// one parks its packets in pending, the FIFO of packets whose
	// delivery events are scheduled, and schedules deliverFn (bound
	// once) for each. The ring works because arrivals are forced
	// monotone (lastArrival) and same-timestamp events fire in
	// scheduling order, so deliveries pop in exactly the order their
	// events fire.
	edge      *shard.Edge
	pending   sim.FIFO[*Packet]
	deliverFn func()

	// Registry instruments; both directions of a P2PLink share them.
	mTxPackets  *metrics.Counter
	mTxBytes    *metrics.Counter
	mQueueDrops *metrics.Counter
	mLossDrops  *metrics.Counter
	mQueueOcc   *metrics.Histogram
}

// newLinkDir creates one direction paced on loop; prefix starts its
// metric names.
func newLinkDir(loop *sim.Loop, rng *rand.Rand, prefix string, cfg LinkConfig) *linkDir {
	reg := loop.Metrics()
	d := &linkDir{
		loop: loop,
		rng:  rng,
		cfg:  cfg,

		mTxPackets:  reg.Counter(prefix + "tx_packets"),
		mTxBytes:    reg.Counter(prefix + "tx_bytes"),
		mQueueDrops: reg.Counter(prefix + "queue_drops"),
		mLossDrops:  reg.Counter(prefix + "loss_drops"),
		mQueueOcc:   reg.Histogram(prefix + "queue_occupancy_pkts"),
	}
	d.tx.Init(loop, d.txTime, d.txDone)
	d.deliverFn = d.deliverHead
	return d
}

func (d *linkDir) send(pkt *Packet) {
	if d.cfg.LossProb > 0 && d.rng.Float64() < d.cfg.LossProb {
		d.stats.LossDrops++
		d.mLossDrops.Inc()
		pkt.Free(d.loop.Buffers())
		return
	}
	if d.tx.Busy() &&
		((d.cfg.QueuePackets > 0 && d.tx.Len() >= d.cfg.QueuePackets) ||
			(d.cfg.QueueBytes > 0 && d.tx.Bytes()+pkt.Length() > d.cfg.QueueBytes)) {
		d.stats.QueueDrops++
		d.mQueueDrops.Inc()
		pkt.Free(d.loop.Buffers())
		return
	}
	if d.tx.Push(pkt, pkt.Length()) {
		d.mQueueOcc.Observe(int64(d.tx.Len()))
	}
}

func (d *linkDir) txTime(pkt *Packet) time.Duration {
	if d.cfg.RateBps > 0 {
		return time.Duration(float64(pkt.Length()*8) / d.cfg.RateBps * float64(time.Second))
	}
	return 0
}

// txDone runs when pkt finishes serializing: count it and send it on
// its delivery leg after the propagation delay.
func (d *linkDir) txDone(pkt *Packet) {
	d.stats.TxPackets++
	d.stats.TxBytes += uint64(pkt.Length())
	d.mTxPackets.Inc()
	d.mTxBytes.Add(int64(pkt.Length()))
	extra := d.cfg.Delay
	if d.cfg.Jitter > 0 {
		extra += time.Duration(d.rng.Int63n(int64(d.cfg.Jitter)))
	}
	arrival := d.loop.Now() + extra
	if arrival < d.lastArrival {
		arrival = d.lastArrival
	}
	d.lastArrival = arrival
	if d.edge != nil {
		d.edge.Send(arrival, pkt)
		return
	}
	d.pending.Push(pkt)
	d.loop.At(arrival, d.deliverFn)
}

// deliverHead fires at a scheduled arrival time and hands the oldest
// pending packet to the destination interface.
func (d *linkDir) deliverHead() {
	pkt := d.pending.Pop()
	if d.to != nil {
		d.to.Deliver(pkt)
	} else {
		pkt.Free(d.loop.Buffers())
	}
}

// arrive runs on the destination shard's loop at a cross-shard packet's
// arrival time.
func (d *linkDir) arrive(m shard.Message) {
	d.to.Deliver(m.Payload.(*Packet))
}

// FuncLink adapts a function to the Link interface; used to splice custom
// data paths (e.g. the PPP device) into a node's interface table.
type FuncLink func(from *Iface, pkt *Packet)

// Send implements Link.
func (f FuncLink) Send(from *Iface, pkt *Packet) { f(from, pkt) }
