package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/sim"
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
type P2PLink struct {
	loop *sim.Loop
	name string
	rng  *rand.Rand
	ends [2]*Iface
	dirs [2]*linkDir // dirs[0] carries ends[0] -> ends[1]
}

// NewP2PLink creates a link. a2b configures the ends[0]->ends[1] direction
// and b2a the reverse. Attach the ends with Attach before sending.
func NewP2PLink(loop *sim.Loop, name string, a2b, b2a LinkConfig) *P2PLink {
	l := &P2PLink{loop: loop, name: name, rng: loop.RNG("link/" + name)}
	reg := loop.Metrics()
	prefix := "netsim/link/" + name + "/"
	l.dirs[0] = &linkDir{link: l, cfg: a2b}
	l.dirs[1] = &linkDir{link: l, cfg: b2a}
	for _, d := range l.dirs {
		// Bind the event callbacks once: scheduling a stored func()
		// does not allocate, unlike a per-packet closure.
		d.txDoneFn = d.txDone
		d.deliverFn = d.deliverHead
		d.mTxPackets = reg.Counter(prefix + "tx_packets")
		d.mTxBytes = reg.Counter(prefix + "tx_bytes")
		d.mQueueDrops = reg.Counter(prefix + "queue_drops")
		d.mLossDrops = reg.Counter(prefix + "loss_drops")
		d.mQueueOcc = reg.Histogram(prefix + "queue_occupancy_pkts")
	}
	return l
}

// Attach connects iface as end 0 or 1 and points the interface at this
// link.
func (l *P2PLink) Attach(end int, iface *Iface) {
	l.ends[end] = iface
	iface.link = l
}

// Connect is a convenience that attaches both ends.
func (l *P2PLink) Connect(a, b *Iface) {
	l.Attach(0, a)
	l.Attach(1, b)
}

// Stats returns counters for the direction out of the given end.
func (l *P2PLink) Stats(end int) DirStats { return l.dirs[end].stats }

// SetConfig replaces the configuration of the direction out of the given
// end. In-flight and queued packets are unaffected; the new rate applies
// from the next serialization. This models link renegotiation (e.g. a UMTS
// bearer upgrade at a coarser layer).
func (l *P2PLink) SetConfig(end int, cfg LinkConfig) { l.dirs[end].cfg = cfg }

// Config returns the current configuration of the direction out of end.
func (l *P2PLink) Config(end int) LinkConfig { return l.dirs[end].cfg }

// Send implements Link.
func (l *P2PLink) Send(from *Iface, pkt *Packet) {
	switch from {
	case l.ends[0]:
		l.dirs[0].send(l.ends[1], pkt)
	case l.ends[1]:
		l.dirs[1].send(l.ends[0], pkt)
	default:
		panic(fmt.Sprintf("netsim: iface %s not attached to link %s", from.Name, l.name))
	}
}

type linkDir struct {
	link        *P2PLink
	cfg         LinkConfig
	busy        bool
	queue       sim.FIFO[queued] // packets waiting to serialize
	queuedBytes int
	lastArrival time.Duration // monotone arrival guard against reordering
	stats       DirStats

	// Allocation-free event plumbing: the packet being serialized, the
	// FIFO of packets whose delivery events are already scheduled, and
	// the two callbacks bound once at construction. The pending ring
	// works because arrivals are forced monotone (lastArrival) and
	// same-timestamp events fire in scheduling order, so deliveries pop
	// in exactly the order their events fire.
	inflight  queued
	pending   sim.FIFO[queued] // packets whose deliveries are scheduled
	txDoneFn  func()
	deliverFn func()

	// Registry instruments, shared by both directions of the link.
	mTxPackets  *metrics.Counter
	mTxBytes    *metrics.Counter
	mQueueDrops *metrics.Counter
	mLossDrops  *metrics.Counter
	mQueueOcc   *metrics.Histogram
}

type queued struct {
	pkt *Packet
	to  *Iface
}

func (d *linkDir) send(to *Iface, pkt *Packet) {
	if d.cfg.LossProb > 0 && d.link.rng.Float64() < d.cfg.LossProb {
		d.stats.LossDrops++
		d.mLossDrops.Inc()
		pkt.Free(d.link.loop.Buffers())
		return
	}
	if d.busy {
		if (d.cfg.QueuePackets > 0 && d.qlen() >= d.cfg.QueuePackets) ||
			(d.cfg.QueueBytes > 0 && d.queuedBytes+pkt.Length() > d.cfg.QueueBytes) {
			d.stats.QueueDrops++
			d.mQueueDrops.Inc()
			pkt.Free(d.link.loop.Buffers())
			return
		}
		d.queue.Push(queued{pkt, to})
		d.queuedBytes += pkt.Length()
		d.mQueueOcc.Observe(int64(d.qlen()))
		return
	}
	d.transmit(to, pkt)
}

func (d *linkDir) qlen() int { return d.queue.Len() }

func (d *linkDir) transmit(to *Iface, pkt *Packet) {
	d.busy = true
	var txDur time.Duration
	if d.cfg.RateBps > 0 {
		txDur = time.Duration(float64(pkt.Length()*8) / d.cfg.RateBps * float64(time.Second))
	}
	d.inflight = queued{pkt, to}
	d.link.loop.After(txDur, d.txDoneFn)
}

// txDone fires when the in-flight packet finishes serializing: schedule
// its delivery after propagation delay and start the next queued packet.
func (d *linkDir) txDone() {
	pkt, to := d.inflight.pkt, d.inflight.to
	d.inflight = queued{}
	loop := d.link.loop
	d.stats.TxPackets++
	d.stats.TxBytes += uint64(pkt.Length())
	d.mTxPackets.Inc()
	d.mTxBytes.Add(int64(pkt.Length()))
	extra := d.cfg.Delay
	if d.cfg.Jitter > 0 {
		extra += time.Duration(d.link.rng.Int63n(int64(d.cfg.Jitter)))
	}
	arrival := loop.Now() + extra
	if arrival < d.lastArrival {
		arrival = d.lastArrival
	}
	d.lastArrival = arrival
	d.pending.Push(queued{pkt, to})
	loop.At(arrival, d.deliverFn)
	// Start the next queued packet, if any.
	if d.queue.Len() > 0 {
		next := d.queue.Pop()
		d.queuedBytes -= next.pkt.Length()
		d.transmit(next.to, next.pkt)
	} else {
		d.busy = false
	}
}

// deliverHead fires at a scheduled arrival time and hands the oldest
// pending packet to its destination interface.
func (d *linkDir) deliverHead() {
	q := d.pending.Pop()
	if q.to != nil {
		q.to.Deliver(q.pkt)
	} else {
		q.pkt.Free(d.link.loop.Buffers())
	}
}

// QueueLen returns the number of packets waiting (not counting the one in
// serialization) in the direction out of end.
func (l *P2PLink) QueueLen(end int) int { return l.dirs[end].qlen() }

// QueueBytes returns the bytes waiting in the direction out of end.
func (l *P2PLink) QueueBytes(end int) int { return l.dirs[end].queuedBytes }

// FuncLink adapts a function to the Link interface; used to splice custom
// data paths (e.g. the PPP device) into a node's interface table.
type FuncLink func(from *Iface, pkt *Packet)

// Send implements Link.
func (f FuncLink) Send(from *Iface, pkt *Packet) { f(from, pkt) }
