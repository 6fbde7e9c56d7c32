package itg

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
)

// Meter selects the measurement mode of a flow (D-ITG's -m switch).
type Meter int

// Meter modes.
const (
	// MeterOWD measures one-way metrics only: the receiver logs
	// arrivals.
	MeterOWD Meter = iota
	// MeterRTT additionally has the receiver reflect every packet so
	// the sender can log round-trip times.
	MeterRTT
)

// flagEchoRequest marks a data packet the receiver should reflect.
const flagEchoRequest byte = 0x80

// FlowSpec describes one generated flow (ITGSend's command line).
type FlowSpec struct {
	FlowID  uint32
	SrcAddr netip.Addr // optional explicit bind (zero = stack chooses)
	DstAddr netip.Addr
	SrcPort uint16
	DstPort uint16
	// IDT samples inter-departure times in seconds; PS samples payload
	// sizes in bytes.
	IDT Distribution
	PS  Distribution
	// Duration bounds the generation time.
	Duration time.Duration
	Meter    Meter
	// TOS is copied into the IP header (diffserv experiments).
	TOS uint8
}

// ExpectedPackets returns how many packets the flow sends if it runs to
// completion: exact for a Constant IDT, the mean count for an
// Exponential one, and 0 (unknown) for every other distribution or a
// degenerate IDT. Senders size their logs and stream decoders their
// samples with it, so a full-length flow's buffers are allocated once
// instead of grown.
func (f FlowSpec) ExpectedPackets() int {
	var idt float64
	switch d := f.IDT.(type) {
	case Constant:
		idt = d.V
	case Exponential:
		idt = d.Mean
	default:
		return 0
	}
	// The same conversion Sender.emit applies to every sample: packets
	// depart at k*step for every k with k*step < Duration.
	step := time.Duration(idt * float64(time.Second))
	if idt <= 0 || step <= 0 || f.Duration <= 0 {
		return 0
	}
	return int((f.Duration + step - 1) / step)
}

// VoIPG711 returns the paper's first traffic class (§3.1): a VoIP-like
// 72 kbps UDP CBR flow resembling a G.711 call — 100 packets per second
// of 90 bytes (voice frames plus RTP framing).
func VoIPG711(flowID uint32, dst netip.Addr, srcPort, dstPort uint16, duration time.Duration) FlowSpec {
	return FlowSpec{
		FlowID: flowID, DstAddr: dst, SrcPort: srcPort, DstPort: dstPort,
		IDT: Constant{0.010}, PS: Constant{90},
		Duration: duration, Meter: MeterRTT,
	}
}

// VoIPG729 returns a G.729-codec VoIP profile (D-ITG's other VoIP
// preset): 100 pps of 30-byte frames (10 B voice + RTP framing),
// 24 kbps — a lighter call for constrained uplinks.
func VoIPG729(flowID uint32, dst netip.Addr, srcPort, dstPort uint16, duration time.Duration) FlowSpec {
	return FlowSpec{
		FlowID: flowID, DstAddr: dst, SrcPort: srcPort, DstPort: dstPort,
		IDT: Constant{0.010}, PS: Constant{30},
		Duration: duration, Meter: MeterRTT,
	}
}

// Telnet returns D-ITG's Telnet-like profile: exponential inter-departure
// times (mean 500 ms) with small uniformly distributed packets — bursty
// interactive traffic for heterogeneity experiments.
func Telnet(flowID uint32, dst netip.Addr, srcPort, dstPort uint16, duration time.Duration) FlowSpec {
	return FlowSpec{
		FlowID: flowID, DstAddr: dst, SrcPort: srcPort, DstPort: dstPort,
		IDT: Exponential{0.5}, PS: Uniform{MinPayload, 200},
		Duration: duration, Meter: MeterOWD,
	}
}

// CBR1Mbps returns the paper's second traffic class (§3.1): a 1 Mbps UDP
// CBR flow with 1024-byte packets at 122 packets per second, which
// saturates the UMTS uplink.
func CBR1Mbps(flowID uint32, dst netip.Addr, srcPort, dstPort uint16, duration time.Duration) FlowSpec {
	return FlowSpec{
		FlowID: flowID, DstAddr: dst, SrcPort: srcPort, DstPort: dstPort,
		IDT: Constant{1.0 / 122.0}, PS: Constant{1024},
		Duration: duration, Meter: MeterRTT,
	}
}

// SendFunc injects a packet into some network stack: a node's Send, a
// slice's Send (VNET+ attribution), or a test capture. It owns the
// packet on every return, errors included.
type SendFunc func(*netsim.Packet) error

// Sender generates one flow (the ITGSend analog).
type Sender struct {
	loop *sim.Loop
	rng  *rand.Rand
	spec FlowSpec
	send SendFunc

	mSent     *metrics.Counter
	mEchoed   *metrics.Counter
	mErrors   *metrics.Counter
	mStreamed *metrics.Counter

	// SentLog records every transmitted data packet, and EchoLog every
	// reflected one (MeterRTT: TxTime is the original departure, RxTime
	// the echo arrival) — but only while Stream is nil: a sender logs
	// for post-hoc decoding (ITGDec, Decode) or decodes live, never
	// both.
	SentLog Log
	EchoLog Log
	// Stream, when non-nil, receives every sent and echo record at the
	// moment it is observed (AddSent/AddEcho) in place of the logs —
	// set it before Start, on the decoder built for this flow.
	// Streaming does not perturb the simulation: no timers, no
	// randomness, only accumulator updates.
	Stream *StreamDecoder
	// OnDone fires once generation finishes (all departures scheduled
	// within Duration are sent).
	OnDone func()

	seq        uint32
	started    bool
	stopped    bool
	deadline   time.Duration
	timer      sim.Timer
	emitFn     func() // bound once; a per-packet method value would allocate
	SendErrors uint64
}

// NewSender creates a sender for spec; name salts the RNG stream.
func NewSender(loop *sim.Loop, name string, spec FlowSpec, send SendFunc) *Sender {
	reg := loop.Metrics()
	s := &Sender{
		loop:      loop,
		rng:       loop.RNG("itg/" + name),
		spec:      spec,
		send:      send,
		mSent:     reg.Counter("itg/packets_sent"),
		mEchoed:   reg.Counter("itg/echoes_received"),
		mErrors:   reg.Counter("itg/send_errors"),
		mStreamed: reg.Counter("itg/records_streamed"),
	}
	s.emitFn = s.emit
	return s
}

// Spec returns the flow specification.
func (s *Sender) Spec() FlowSpec { return s.spec }

// Start begins generation: the first packet departs immediately, each
// subsequent one after an IDT sample, until Duration elapses. Without
// a decoder, the logs are reserved for the expected packet count up
// front.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	if n := s.spec.ExpectedPackets(); n > 0 && s.Stream == nil {
		s.SentLog.Reserve(n)
		if s.spec.Meter == MeterRTT {
			s.EchoLog.Reserve(n)
		}
	}
	s.deadline = s.loop.Now() + s.spec.Duration
	s.emit()
}

// Stop aborts generation early.
func (s *Sender) Stop() {
	s.stopped = true
	s.timer.Cancel()
}

func (s *Sender) emit() {
	if s.stopped {
		return
	}
	now := s.loop.Now()
	if now >= s.deadline {
		s.finish()
		return
	}
	size := int(s.spec.PS.Sample(s.rng))
	if size < MinPayload {
		size = MinPayload
	}
	kind := KindData
	if s.spec.Meter == MeterRTT {
		kind |= flagEchoRequest
	}
	// Draw the packet and its payload from the loop's pool; send owns
	// them from here and the stack frees them where the packet ends
	// (marshal onto a byte path, drop, or the receiver's Handle).
	pool := s.loop.Buffers()
	pkt := netsim.NewPacket(pool)
	pkt.Src = s.spec.SrcAddr
	pkt.Dst = s.spec.DstAddr
	pkt.Proto = netsim.ProtoUDP
	pkt.TOS = s.spec.TOS
	pkt.SrcPort = s.spec.SrcPort
	pkt.DstPort = s.spec.DstPort
	pkt.Payload = EncodePayloadInto(pool.Get(size), kind, s.spec.FlowID, s.seq, now)
	if err := s.send(pkt); err != nil {
		s.SendErrors++
		s.mErrors.Inc()
	}
	rec := Record{FlowID: s.spec.FlowID, Seq: s.seq, Size: size, TxTime: now}
	if s.Stream != nil {
		s.Stream.AddSent(rec)
		s.mStreamed.Inc()
	} else {
		s.SentLog.Add(rec)
	}
	s.mSent.Inc()
	s.seq++

	idt := s.spec.IDT.Sample(s.rng)
	if idt <= 0 {
		idt = 1e-6 // degenerate IDT: avoid a zero-delay storm
	}
	s.timer = s.loop.After(time.Duration(idt*float64(time.Second)), s.emitFn)
}

func (s *Sender) finish() {
	if s.OnDone != nil {
		done := s.OnDone
		s.OnDone = nil
		done()
	}
}

// HandleEcho processes a packet received on the sender's source port
// (MeterRTT reflections) and frees it. Non-echo or foreign-flow packets
// are not logged.
func (s *Sender) HandleEcho(pkt *netsim.Packet) {
	kind, flowID, seq, txTime, err := DecodePayload(pkt.Payload)
	size := len(pkt.Payload)
	pkt.Free(s.loop.Buffers())
	if err != nil || kind != KindEcho || flowID != s.spec.FlowID {
		return
	}
	rec := Record{
		FlowID: flowID, Seq: seq, Size: size,
		TxTime: txTime, RxTime: s.loop.Now(),
	}
	if s.Stream != nil {
		s.Stream.AddEcho(rec)
		s.mStreamed.Inc()
	} else {
		s.EchoLog.Add(rec)
	}
	s.mEchoed.Inc()
}

// Receiver logs one or more flows' arrivals and reflects echo-requested
// packets (the ITGRecv analog).
type Receiver struct {
	loop *sim.Loop
	// reply transmits reflections; nil disables echoing.
	reply SendFunc
	// RecvLog records every data packet received while Stream is nil
	// (see Sender.SentLog).
	RecvLog Log
	// Stream, when non-nil, receives every arrival record in place of
	// RecvLog (AddRecv) — the receiver's loop time is monotone, so the
	// feed satisfies the decoder's RxTime-order contract for free. The
	// decoder may simultaneously be fed by the flow's Sender from
	// another shard loop; the two sides touch disjoint state.
	Stream *StreamDecoder
	// Malformed counts packets that did not carry an ITG header.
	Malformed uint64

	mRecv     *metrics.Counter
	mEchoed   *metrics.Counter
	mStreamed *metrics.Counter
}

// NewReceiver creates a receiver; reply (may be nil) is used to send
// reflections back to the sender.
func NewReceiver(loop *sim.Loop, reply SendFunc) *Receiver {
	reg := loop.Metrics()
	r := &Receiver{
		loop: loop, reply: reply,
		mRecv:     reg.Counter("itg/packets_received"),
		mEchoed:   reg.Counter("itg/packets_echoed"),
		mStreamed: reg.Counter("itg/records_streamed"),
	}
	return r
}

// Handle processes one received packet; bind it to the flow's
// destination port. It ends the packet, or reflects it as the echo when
// the sender asked for one.
func (r *Receiver) Handle(pkt *netsim.Packet) {
	kind, flowID, seq, txTime, err := DecodePayload(pkt.Payload)
	if err != nil {
		r.Malformed++
		pkt.Free(r.loop.Buffers())
		return
	}
	if kind&^flagEchoRequest != KindData {
		pkt.Free(r.loop.Buffers())
		return // stray echo, not ours to log
	}
	rec := Record{
		FlowID: flowID, Seq: seq, Size: len(pkt.Payload),
		TxTime: txTime, RxTime: r.loop.Now(),
	}
	if r.Stream != nil {
		r.Stream.AddRecv(rec)
		r.mStreamed.Inc()
	} else {
		r.RecvLog.Add(rec)
	}
	r.mRecv.Inc()
	if kind&flagEchoRequest == 0 || r.reply == nil {
		pkt.Free(r.loop.Buffers())
		return
	}
	// Reflect the data packet itself: swap the endpoints, rewrite the
	// payload header, and clear everything a fresh packet would not
	// carry (TTL and ID are the sending node's to set).
	*pkt = netsim.Packet{
		Src:     pkt.Dst,
		Dst:     pkt.Src,
		Proto:   netsim.ProtoUDP,
		SrcPort: pkt.DstPort,
		DstPort: pkt.SrcPort,
		Payload: EncodePayloadInto(pkt.Payload, KindEcho, flowID, seq, txTime),
	}
	r.reply(pkt)
	r.mEchoed.Inc()
}

func (m Meter) String() string {
	switch m {
	case MeterOWD:
		return "owd"
	case MeterRTT:
		return "rtt"
	default:
		return fmt.Sprintf("meter(%d)", int(m))
	}
}
