package netsim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/sim/shard"
)

// CrossLink is the cross-shard counterpart of P2PLink: a full-duplex
// point-to-point link whose two endpoints live on different shards of a
// shard.Engine (or on the same shard — the data path is identical, which
// is what makes 1-shard and N-shard runs of the same topology
// comparable). Each direction is paced on its source shard's loop —
// loss, serialization, queueing, and jitter all resolve there — and the
// finished packet crosses to the destination shard through a shard.Edge
// whose minimum delay is the direction's fixed propagation delay. That
// delay therefore bounds the engine's synchronization window, so
// cross-shard links must have Delay > 0.
//
// Packets cross by pointer: a packet and its payload buffer are owned
// by exactly one side at a time (producers copy; see bufpool), so
// handing the pointer over migrates ownership to the destination loop
// without a copy, and the destination frees them into its own pool.
type CrossLink struct {
	name string
	ends [2]*Iface
	dirs [2]*xlinkDir // dirs[0] carries ends[0] -> ends[1]
}

// WireCross creates a full-duplex cross-shard link between new
// interfaces on nodes a (hosted by shard sa) and b (hosted by shard
// sb), mirroring Network.WireP2P's addressing. Both directions must
// declare a positive fixed Delay — it becomes the shard engine's
// lookahead contribution for that direction. Jitter never shortens the
// crossing: the per-packet extra delay is added on top of Delay.
func WireCross(eng *shard.Engine, name string, sa *shard.Shard, a *Node, ifA string, addrA netip.Addr,
	sb *shard.Shard, b *Node, ifB string, addrB netip.Addr, a2b, b2a LinkConfig) *CrossLink {

	if a2b.Delay <= 0 || b2a.Delay <= 0 {
		panic(fmt.Sprintf("netsim: cross-shard link %q needs positive delays (lookahead), got %v/%v",
			name, a2b.Delay, b2a.Delay))
	}
	ia := a.AddIface(ifA, addrA, netip.Prefix{})
	ib := b.AddIface(ifB, addrB, netip.Prefix{})
	ia.Peer = addrB
	ib.Peer = addrA

	l := &CrossLink{name: name}
	l.ends[0], l.ends[1] = ia, ib
	l.dirs[0] = newXlinkDir(sa.Loop(), name+"/ab", a2b, ib)
	l.dirs[1] = newXlinkDir(sb.Loop(), name+"/ba", b2a, ia)
	// Edge creation order (ab then ba) is fixed per link, so the global
	// edge numbering depends only on the order links are built — a
	// property of the scenario, not of the shard mapping.
	l.dirs[0].edge = eng.NewEdge(sa, sb, a2b.Delay, l.dirs[0].arrive)
	l.dirs[1].edge = eng.NewEdge(sb, sa, b2a.Delay, l.dirs[1].arrive)
	ia.link = l
	ib.link = l
	return l
}

// Send implements Link.
func (l *CrossLink) Send(from *Iface, pkt *Packet) {
	switch from {
	case l.ends[0]:
		l.dirs[0].send(pkt)
	case l.ends[1]:
		l.dirs[1].send(pkt)
	default:
		panic(fmt.Sprintf("netsim: iface %s not attached to cross link %s", from.Name, l.name))
	}
}

// Stats returns counters for the direction out of the given end.
func (l *CrossLink) Stats(end int) DirStats { return l.dirs[end].stats }

// Config returns the configuration of the direction out of end. Cross
// links are mostly immutable after wiring (a lowered delay could break
// the engine's lookahead contract), so there is no general SetConfig
// counterpart — only the loss probability can change (SetLossProb).
func (l *CrossLink) Config(end int) LinkConfig { return l.dirs[end].cfg }

// SetLossProb changes the loss probability of the direction out of end
// — the fault-injection knob for backhaul flaps. Loss is resolved on
// the source loop before the packet is shipped, so unlike delay it has
// no bearing on the engine's lookahead contract. Note that the
// direction's loss RNG only starts being drawn while the probability is
// positive: a flap window perturbs no RNG stream outside the window.
func (l *CrossLink) SetLossProb(end int, p float64) { l.dirs[end].cfg.LossProb = p }

// QueueLen returns the packets waiting (not counting the one in
// serialization) in the direction out of end.
func (l *CrossLink) QueueLen(end int) int { return l.dirs[end].qlen() }

// xlinkDir is one direction of a CrossLink. It is linkDir with the
// delivery leg replaced: instead of scheduling deliverHead on its own
// loop, txDone computes the arrival time (fixed delay + jitter, forced
// monotone) and ships the packet across the shard edge; the engine then
// runs arrive on the destination loop at exactly that time.
type xlinkDir struct {
	loop *sim.Loop
	rng  *rand.Rand
	cfg  LinkConfig
	edge *shard.Edge
	to   *Iface // destination end, on the edge's target shard

	busy        bool
	queue       sim.FIFO[*Packet] // packets waiting to serialize
	queuedBytes int
	lastArrival time.Duration
	stats       DirStats

	inflight *Packet
	txDoneFn func()

	mTxPackets  *metrics.Counter
	mTxBytes    *metrics.Counter
	mQueueDrops *metrics.Counter
	mLossDrops  *metrics.Counter
	mQueueOcc   *metrics.Histogram
}

func newXlinkDir(loop *sim.Loop, name string, cfg LinkConfig, to *Iface) *xlinkDir {
	reg := loop.Metrics()
	prefix := "netsim/xlink/" + name + "/"
	d := &xlinkDir{
		loop: loop,
		rng:  loop.RNG("xlink/" + name),
		cfg:  cfg,
		to:   to,

		mTxPackets:  reg.Counter(prefix + "tx_packets"),
		mTxBytes:    reg.Counter(prefix + "tx_bytes"),
		mQueueDrops: reg.Counter(prefix + "queue_drops"),
		mLossDrops:  reg.Counter(prefix + "loss_drops"),
		mQueueOcc:   reg.Histogram(prefix + "queue_occupancy_pkts"),
	}
	d.txDoneFn = d.txDone
	return d
}

func (d *xlinkDir) qlen() int { return d.queue.Len() }

func (d *xlinkDir) send(pkt *Packet) {
	if d.cfg.LossProb > 0 && d.rng.Float64() < d.cfg.LossProb {
		d.stats.LossDrops++
		d.mLossDrops.Inc()
		pkt.Free(d.loop.Buffers())
		return
	}
	if d.busy {
		if (d.cfg.QueuePackets > 0 && d.qlen() >= d.cfg.QueuePackets) ||
			(d.cfg.QueueBytes > 0 && d.queuedBytes+pkt.Length() > d.cfg.QueueBytes) {
			d.stats.QueueDrops++
			d.mQueueDrops.Inc()
			pkt.Free(d.loop.Buffers())
			return
		}
		d.queue.Push(pkt)
		d.queuedBytes += pkt.Length()
		d.mQueueOcc.Observe(int64(d.qlen()))
		return
	}
	d.transmit(pkt)
}

func (d *xlinkDir) transmit(pkt *Packet) {
	d.busy = true
	var txDur time.Duration
	if d.cfg.RateBps > 0 {
		txDur = time.Duration(float64(pkt.Length()*8) / d.cfg.RateBps * float64(time.Second))
	}
	d.inflight = pkt
	d.loop.After(txDur, d.txDoneFn)
}

// txDone fires on the source loop when the in-flight packet finishes
// serializing: ship it across the shard edge and start the next one.
func (d *xlinkDir) txDone() {
	pkt := d.inflight
	d.inflight = nil
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
	d.edge.Send(arrival, pkt)
	if d.queue.Len() > 0 {
		next := d.queue.Pop()
		d.queuedBytes -= next.Length()
		d.transmit(next)
	} else {
		d.busy = false
	}
}

// arrive runs on the destination shard's loop at the packet's arrival
// time.
func (d *xlinkDir) arrive(m shard.Message) {
	d.to.Deliver(m.Payload.(*Packet))
}
