package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/onelab/umtslab/internal/sim"
)

// twoHosts builds a <-> b over one link and returns the pieces.
func twoHosts(t *testing.T, a2b, b2a LinkConfig) (*sim.Loop, *Network, *Node, *Node, *P2PLink) {
	t.Helper()
	loop := sim.NewLoop(1)
	nw := NewNetwork(loop)
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	l := nw.WireP2P("ab", a, "eth0", MustAddr("10.0.0.1"), b, "eth0", MustAddr("10.0.0.2"), a2b, b2a)
	return loop, nw, a, b, l
}

func TestLinkDelivery(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{Delay: 10 * time.Millisecond}, LinkConfig{Delay: 10 * time.Millisecond})
	var gotAt time.Duration
	if err := b.Bind(ProtoUDP, 9000, func(pkt *Packet) { gotAt = loop.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(udpPacket(1, 9000, []byte("hi"))); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if gotAt != 10*time.Millisecond {
		t.Fatalf("arrival at %v, want 10ms", gotAt)
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	// 1000-byte payload => 1028 bytes on wire => 8224 bits at 8224 bps = 1s.
	loop, _, a, b, _ := twoHosts(t, LinkConfig{RateBps: 8224}, LinkConfig{})
	var gotAt time.Duration
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) { gotAt = loop.Now() })
	a.Send(udpPacket(1, 9000, make([]byte, 1000)))
	loop.Run()
	if gotAt != time.Second {
		t.Fatalf("arrival at %v, want 1s", gotAt)
	}
}

func TestLinkQueueingFIFO(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{RateBps: 8224}, LinkConfig{})
	var seq []byte
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) { seq = append(seq, pkt.Payload[0]) })
	for i := byte(0); i < 3; i++ {
		p := udpPacket(1, 9000, make([]byte, 1000))
		p.Payload[0] = i
		a.Send(p)
	}
	loop.Run()
	if len(seq) != 3 || seq[0] != 0 || seq[1] != 1 || seq[2] != 2 {
		t.Fatalf("out of order or lost: %v", seq)
	}
	// Back-to-back serialization: last arrival at 3s.
	if loop.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", loop.Now())
	}
}

func TestLinkQueuePacketsDropTail(t *testing.T) {
	loop, _, a, b, l := twoHosts(t, LinkConfig{RateBps: 8224, QueuePackets: 2}, LinkConfig{})
	got := 0
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) { got++ })
	// 1 in serialization + 2 queued + 2 dropped.
	for i := 0; i < 5; i++ {
		a.Send(udpPacket(1, 9000, make([]byte, 1000)))
	}
	loop.Run()
	if got != 3 {
		t.Fatalf("delivered %d, want 3", got)
	}
	if d := l.Stats(0).QueueDrops; d != 2 {
		t.Fatalf("QueueDrops = %d, want 2", d)
	}
}

func TestLinkQueueBytesDropTail(t *testing.T) {
	// Queue limit fits exactly one queued 1028-byte packet.
	loop, _, a, b, l := twoHosts(t, LinkConfig{RateBps: 8224, QueueBytes: 1100}, LinkConfig{})
	got := 0
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) { got++ })
	for i := 0; i < 4; i++ {
		a.Send(udpPacket(1, 9000, make([]byte, 1000)))
	}
	loop.Run()
	if got != 2 {
		t.Fatalf("delivered %d, want 2 (1 transmitting + 1 queued)", got)
	}
	if d := l.Stats(0).QueueDrops; d != 2 {
		t.Fatalf("QueueDrops = %d, want 2", d)
	}
}

func TestLinkRandomLoss(t *testing.T) {
	loop, _, a, b, l := twoHosts(t, LinkConfig{LossProb: 0.5}, LinkConfig{})
	got := 0
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) { got++ })
	const n = 2000
	for i := 0; i < n; i++ {
		a.Send(udpPacket(1, 9000, []byte("x")))
	}
	loop.Run()
	if got < n*4/10 || got > n*6/10 {
		t.Fatalf("delivered %d of %d with p=0.5 loss", got, n)
	}
	if int(l.Stats(0).LossDrops)+got != n {
		t.Fatalf("loss accounting: %d + %d != %d", l.Stats(0).LossDrops, got, n)
	}
}

func TestLinkJitterNoReorder(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t,
		LinkConfig{RateBps: 1e6, Delay: 5 * time.Millisecond, Jitter: 20 * time.Millisecond}, LinkConfig{})
	var seqs []byte
	var times []time.Duration
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) {
		seqs = append(seqs, pkt.Payload[0])
		times = append(times, loop.Now())
	})
	for i := byte(0); i < 50; i++ {
		p := udpPacket(1, 9000, make([]byte, 100))
		p.Payload[0] = i
		a.Send(p)
	}
	loop.Run()
	if len(seqs) != 50 {
		t.Fatalf("delivered %d, want 50", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("reordered at %d: %v", i, seqs)
		}
		if times[i] < times[i-1] {
			t.Fatalf("arrival times went backwards at %d", i)
		}
	}
}

func TestLinkBidirectional(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{Delay: time.Millisecond}, LinkConfig{Delay: time.Millisecond})
	pong := false
	a.Bind(ProtoUDP, 5000, func(pkt *Packet) { pong = true })
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) {
		reply := udpPacket(9000, 5000, []byte("pong"))
		reply.Src = MustAddr("10.0.0.2")
		reply.Dst = MustAddr("10.0.0.1")
		b.Send(reply)
	})
	a.Send(udpPacket(5000, 9000, []byte("ping")))
	loop.Run()
	if !pong {
		t.Fatal("no pong received")
	}
	if loop.Now() != 2*time.Millisecond {
		t.Fatalf("RTT = %v, want 2ms", loop.Now())
	}
}

func TestFuncLink(t *testing.T) {
	loop := sim.NewLoop(1)
	n := NewNode(loop, "x")
	ifc := n.AddIface("tun0", MustAddr("10.9.9.1"), netip0())
	var captured *Packet
	ifc.SetLink(FuncLink(func(from *Iface, pkt *Packet) { captured = pkt }))
	ifc.Peer = MustAddr("10.9.9.2")
	n.Send(udpPacket(1, 2, []byte("via func link")))
	loop.Run()
	if captured == nil {
		t.Fatal("FuncLink did not receive the packet")
	}
}

// Property: over any sequence of sends, every packet is either delivered,
// dropped at the queue, or lost to the random-loss process — nothing
// disappears and nothing is duplicated.
func TestPropertyLinkConservation(t *testing.T) {
	f := func(sizes []uint8, queuePkts uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		loop := sim.NewLoop(11)
		nw := NewNetwork(loop)
		a := nw.AddNode("a")
		b := nw.AddNode("b")
		l := nw.WireP2P("ab", a, "eth0", MustAddr("10.0.0.1"), b, "eth0", MustAddr("10.0.0.2"),
			LinkConfig{RateBps: 1e5, LossProb: 0.1, QueuePackets: int(queuePkts%8) + 1},
			LinkConfig{})
		got := 0
		b.Bind(ProtoUDP, 9, func(*Packet) { got++ })
		sent := 0
		for _, sz := range sizes {
			p := udpPacket(1, 9, make([]byte, int(sz)))
			if a.Send(p) == nil {
				sent++
			}
		}
		loop.Run()
		st := l.Stats(0)
		return got+int(st.QueueDrops)+int(st.LossDrops) == sent && uint64(got) == st.TxPackets
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLinkFIFOsBoundedUnderSteadyLoad is the regression test for link
// FIFOs that only rewound when drained: a direction kept busy for 100k
// packets, whose transmit queue and in-flight delivery FIFO never
// empty, must keep its delivery FIFO within twice its peak occupancy
// plus 64. The transmit queue is the pacer's; TestPacerSteadyState
// bounds it.
func TestLinkFIFOsBoundedUnderSteadyLoad(t *testing.T) {
	// 100-byte payloads are 128 bytes on the wire: 1 ms each at
	// 1.024 Mbps, with 80 ms of propagation behind them.
	loop, _, a, b, l := twoHosts(t, LinkConfig{RateBps: 1024e3, Delay: 80 * time.Millisecond}, LinkConfig{})
	received := 0
	b.Bind(ProtoUDP, 9000, func(*Packet) { received++ })
	d := l.dirs[0]
	peakQueue, peakPending := 0, 0
	const total = 100000
	for i := 0; i < 20; i++ {
		a.Send(udpPacket(1, 9000, make([]byte, 100)))
	}
	sent := 20
	var tick *sim.Ticker
	tick = loop.NewTicker(time.Millisecond, func() {
		a.Send(udpPacket(1, 9000, make([]byte, 100)))
		peakQueue = max(peakQueue, d.tx.Len())
		peakPending = max(peakPending, d.pending.Len())
		if sent++; sent == total {
			tick.Stop()
		}
	})
	loop.Run()
	if received != total {
		t.Fatalf("received %d packets, want %d", received, total)
	}
	if peakQueue == 0 || peakPending == 0 {
		t.Fatalf("link never backed up (peak queue %d, pending %d)", peakQueue, peakPending)
	}
	if c := d.pending.Cap(); c > 2*peakPending+64 {
		t.Errorf("delivery FIFO cap %d, peak occupancy %d", c, peakPending)
	}
}
