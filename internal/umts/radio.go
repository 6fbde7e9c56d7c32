// Package umts simulates the operator-side UMTS network the paper's
// testbed dialed into: radio bearers with rate ladders and on-demand rate
// adaptation, TTI-aligned delivery jitter, HARQ-style retransmission
// delays, channel fades, a drop-tail radio buffer, the packet core
// (SGSN/GGSN transit), an address pool, and the operator firewall that
// blocks unsolicited inbound sessions (the reason the paper keeps node
// control on the wired interface, §2.2).
//
// Two calibrated profiles are provided: a commercial operator (matching
// the ~150 kbps -> ~400 kbps uplink behaviour measured in §3.2) and the
// Alcatel-Lucent private micro-cell of the OneLab testbed.
package umts

import (
	"math/rand"
	"time"

	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/sim"
)

// RadioDirConfig describes one direction of a radio bearer.
type RadioDirConfig struct {
	// RateBps is the bearer's net data rate in bits per second.
	RateBps float64
	// BaseDelay is the fixed radio-interface latency (node B processing,
	// interleaving, Iub transit).
	BaseDelay time.Duration
	// TTI is the transmission time interval; each delivery gets a
	// uniform extra delay in [0, TTI) modelling frame alignment.
	TTI time.Duration
	// HarqProb is the probability a transmission needs HARQ
	// retransmissions; each adds HarqRetx delay, geometrically up to
	// HarqMax rounds.
	HarqProb float64
	HarqRetx time.Duration
	HarqMax  int
	// QueueBytes bounds the buffer (drop-tail). Zero means unbounded.
	QueueBytes int
}

// RadioDirStats counts one direction's activity.
type RadioDirStats struct {
	TxChunks   uint64
	TxBytes    uint64
	QueueDrops uint64
	DropBytes  uint64
	HarqEvents uint64
}

// radioDir is a paced byte-chunk channel: each Write chunk (an HDLC frame
// from the PPP layer) is serialized at the current rate by a sim.Pacer,
// buffered drop-tail when the channel is busy, and delivered after radio
// latency and jitter. The rate can change mid-stream (bearer upgrade) and
// the channel can be paused (fade).
type radioDir struct {
	loop    *sim.Loop
	rng     *rand.Rand
	cfg     RadioDirConfig
	deliver func(p []byte)

	tx          sim.Pacer[[]byte]
	scale       float64 // fault-injection rate multiplier; 1 = nominal
	lastArrival time.Duration
	stats       RadioDirStats
	closed      bool

	// Allocation-free delivery (same scheme as netsim's links): the
	// FIFO of chunks whose delivery events are scheduled, and the
	// callback bound once. Arrivals are forced monotone (lastArrival),
	// so deliveries pop in the order their events fire.
	pending   sim.FIFO[[]byte]
	deliverFn func()

	// Registry instruments; name carries the direction ("umts/ul/...").
	mTxChunks  *metrics.Counter
	mTxBytes   *metrics.Counter
	mDrops     *metrics.Counter
	mDropBytes *metrics.Counter
	mHarq      *metrics.Counter
	mTTIStalls *metrics.Counter
	mStallNs   *metrics.Histogram
	mQueueOcc  *metrics.Histogram
}

// newRadioDir creates one bearer direction; name prefixes its metric
// names (e.g. "umts/ul").
func newRadioDir(loop *sim.Loop, rng *rand.Rand, name string, cfg RadioDirConfig, deliver func([]byte)) *radioDir {
	reg := loop.Metrics()
	d := &radioDir{
		loop: loop, rng: rng, cfg: cfg, deliver: deliver, scale: 1,
		mTxChunks:  reg.Counter(name + "/tx_chunks"),
		mTxBytes:   reg.Counter(name + "/tx_bytes"),
		mDrops:     reg.Counter(name + "/queue_drops"),
		mDropBytes: reg.Counter(name + "/drop_bytes"),
		mHarq:      reg.Counter(name + "/harq_events"),
		mTTIStalls: reg.Counter(name + "/tti_stalls"),
		mStallNs:   reg.Histogram(name + "/stall_ns"),
		mQueueOcc:  reg.Histogram(name + "/queue_occupancy_bytes"),
	}
	d.tx.Init(loop, d.txTime, d.txDone)
	d.deliverFn = d.deliverHead
	return d
}

// send enqueues one chunk for transmission. The radio takes ownership
// of p: chunks come from the loop's buffer pool (bearer/server writes
// copy into pooled buffers) and return to it on delivery or drop.
func (d *radioDir) send(p []byte) {
	if d.closed {
		d.loop.Buffers().Put(p)
		return
	}
	if d.tx.Busy() && d.cfg.QueueBytes > 0 && d.tx.Bytes()+len(p) > d.cfg.QueueBytes {
		d.stats.QueueDrops++
		d.stats.DropBytes += uint64(len(p))
		d.mDrops.Inc()
		d.mDropBytes.Add(int64(len(p)))
		d.loop.Buffers().Put(p)
		return
	}
	if d.tx.Push(p, len(p)) {
		d.mQueueOcc.Observe(int64(d.tx.Bytes()))
	}
}

func (d *radioDir) txTime(p []byte) time.Duration {
	if d.cfg.RateBps > 0 {
		// scale is 1 outside fault windows; multiplying by 1.0 is an
		// exact identity in IEEE arithmetic, so the fault knob costs
		// nothing in determinism when unused.
		return time.Duration(float64(len(p)*8) / (d.cfg.RateBps * d.scale) * float64(time.Second))
	}
	return 0
}

// txDone runs when chunk p finishes serializing: schedule its delivery
// after radio latency. A closed direction recycles it instead.
func (d *radioDir) txDone(p []byte) {
	if d.closed {
		d.loop.Buffers().Put(p)
		return
	}
	d.stats.TxChunks++
	d.stats.TxBytes += uint64(len(p))
	d.mTxChunks.Inc()
	d.mTxBytes.Add(int64(len(p)))
	extra := d.cfg.BaseDelay
	if d.cfg.TTI > 0 {
		// Frame-alignment wait: the chunk stalls until its TTI slot.
		stall := time.Duration(d.rng.Int63n(int64(d.cfg.TTI)))
		if stall > 0 {
			d.mTTIStalls.Inc()
			d.mStallNs.Observe(int64(stall))
		}
		extra += stall
	}
	if d.cfg.HarqProb > 0 && d.rng.Float64() < d.cfg.HarqProb {
		d.stats.HarqEvents++
		d.mHarq.Inc()
		rounds := 1
		for rounds < d.cfg.HarqMax && d.rng.Float64() < d.cfg.HarqProb {
			rounds++
		}
		extra += time.Duration(rounds) * d.cfg.HarqRetx
	}
	arrival := d.loop.Now() + extra
	if arrival < d.lastArrival {
		arrival = d.lastArrival
	}
	d.lastArrival = arrival
	d.pending.Push(p)
	d.loop.After(arrival-d.loop.Now(), d.deliverFn)
}

// deliverHead fires at a scheduled arrival time and hands the oldest
// pending chunk to the receiver. Receivers (PPP deframer, serial line)
// consume delivered chunks synchronously, so the chunk is recycled right
// after; a closed direction still recycles without delivering.
func (d *radioDir) deliverHead() {
	p := d.pending.Pop()
	if !d.closed && d.deliver != nil {
		d.deliver(p)
	}
	d.loop.Buffers().Put(p)
}

// setRate changes the bearer rate; queued chunks are transmitted at the
// new rate, the chunk in flight finishes at the old one.
func (d *radioDir) setRate(bps float64) { d.cfg.RateBps = bps }

// setScale applies a fault-injection multiplier on top of the bearer
// rate (rate fade); rate adaptation keeps operating on the nominal
// RateBps underneath.
func (d *radioDir) setScale(s float64) { d.scale = s }

// pause suspends new transmissions (channel fade). The chunk in flight
// completes.
func (d *radioDir) pause() { d.tx.Pause() }

// resume restarts transmission after a fade.
func (d *radioDir) resume() { d.tx.Resume() }

// close stops the direction; queued and in-flight chunks are discarded
// (queued ones go back to the buffer pool).
func (d *radioDir) close() {
	d.closed = true
	d.tx.Drain(d.loop.Buffers().Put)
}

// Stats returns a copy of the counters.
func (d *radioDir) Stats() RadioDirStats { return d.stats }

// QueuedBytes returns the current buffer occupancy.
func (d *radioDir) QueuedBytes() int { return d.tx.Bytes() }
