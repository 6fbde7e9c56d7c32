package netsim

import (
	"fmt"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/sim/shard"
)

// crossHosts builds a <-> b over a cross-shard link: a on shard 0, b on
// shard (n-1) of an n-shard engine.
func crossHosts(t *testing.T, seed int64, n int, a2b, b2a LinkConfig) (*shard.Engine, *Node, *Node) {
	t.Helper()
	eng := shard.NewEngine(seed, n)
	sa, sb := eng.Shard(0), eng.Shard(n-1)
	a := NewNode(sa.Loop(), "a")
	b := NewNode(sb.Loop(), "b")
	WireCross(eng, "ab", sa, a, "eth0", MustAddr("10.0.0.1"),
		sb, b, "eth0", MustAddr("10.0.0.2"), a2b, b2a)
	return eng, a, b
}

func TestCrossLinkDeliveryTiming(t *testing.T) {
	eng, a, b := crossHosts(t, 1, 2,
		LinkConfig{Delay: 10 * time.Millisecond}, LinkConfig{Delay: 10 * time.Millisecond})
	var gotAt time.Duration
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) { gotAt = b.Loop.Now() })
	a.Send(udpPacket(1, 9000, []byte("hi")))
	eng.Run(50 * time.Millisecond)
	if gotAt != 10*time.Millisecond {
		t.Fatalf("arrival at %v, want 10ms", gotAt)
	}
}

// TestCrossLinkMatchesP2P drives the identical deterministic (no jitter,
// no loss) packet train through a P2PLink on one loop and a CrossLink
// across two shards; serialization and queueing must resolve to the
// same arrival instants.
func TestCrossLinkMatchesP2P(t *testing.T) {
	cfg := LinkConfig{RateBps: 8224, Delay: 5 * time.Millisecond, QueuePackets: 100}
	train := func(send func(*Packet) error) {
		for i := byte(0); i < 4; i++ {
			p := udpPacket(1, 9000, make([]byte, 1000))
			p.Payload[0] = i
			send(p)
		}
	}

	loop, _, pa, pb, _ := twoHosts(t, cfg, cfg)
	var p2pAt []time.Duration
	pb.Bind(ProtoUDP, 9000, func(pkt *Packet) { p2pAt = append(p2pAt, loop.Now()) })
	train(pa.Send)
	loop.Run()

	eng, xa, xb := crossHosts(t, 1, 2, cfg, cfg)
	var xAt []time.Duration
	xb.Bind(ProtoUDP, 9000, func(pkt *Packet) { xAt = append(xAt, xb.Loop.Now()) })
	train(xa.Send)
	eng.Run(10 * time.Second)

	if fmt.Sprint(p2pAt) != fmt.Sprint(xAt) {
		t.Fatalf("arrival instants differ:\np2p:   %v\ncross: %v", p2pAt, xAt)
	}
}

// TestCrossLinkPlacementIndependent runs the same jittery, lossy
// topology with both endpoints on one shard (self-edge) and on separate
// shards; every arrival instant and loss decision must match, because
// the direction's RNG stream and pacing live with the source partition
// either way.
func TestCrossLinkPlacementIndependent(t *testing.T) {
	cfg := LinkConfig{RateBps: 1e6, Delay: 3 * time.Millisecond, Jitter: time.Millisecond,
		LossProb: 0.2, QueuePackets: 10}
	runIt := func(n int) []time.Duration {
		eng, a, b := crossHosts(t, 42, n, cfg, cfg)
		var at []time.Duration
		b.Bind(ProtoUDP, 9000, func(pkt *Packet) { at = append(at, b.Loop.Now()) })
		for i := 0; i < 50; i++ {
			a.Loop.At(time.Duration(i)*500*time.Microsecond, func() {
				a.Send(udpPacket(1, 9000, make([]byte, 200)))
			})
		}
		eng.Run(time.Second)
		return at
	}
	one, two := runIt(1), runIt(2)
	if fmt.Sprint(one) != fmt.Sprint(two) {
		t.Fatalf("placement changed arrivals:\n1 shard:  %v\n2 shards: %v", one, two)
	}
	if len(one) == 50 || len(one) == 0 {
		t.Fatalf("want some but not all of 50 packets through the lossy link, got %d", len(one))
	}
}

func TestCrossLinkQueueDrops(t *testing.T) {
	cfg := LinkConfig{RateBps: 8224, Delay: time.Millisecond, QueuePackets: 1}
	eng, a, b := crossHosts(t, 1, 2, cfg, cfg)
	got := 0
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) { got++ })
	for i := 0; i < 5; i++ {
		a.Send(udpPacket(1, 9000, make([]byte, 1000)))
	}
	eng.Run(20 * time.Second)
	// One serializing + one queued; three dropped.
	if got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
	ifc := a.Iface("eth0")
	xl, ok := ifc.link.(*CrossLink)
	if !ok {
		t.Fatal("iface not attached to a CrossLink")
	}
	if xl.Stats(0).QueueDrops != 3 {
		t.Fatalf("queue drops %d, want 3", xl.Stats(0).QueueDrops)
	}
	snap := a.Loop.Metrics().Snapshot()
	if snap.Counter("netsim/xlink/ab/ab/queue_drops") != 3 {
		t.Fatalf("metrics: %d queue drops", snap.Counter("netsim/xlink/ab/ab/queue_drops"))
	}
}

func TestCrossLinkZeroDelayPanics(t *testing.T) {
	eng := shard.NewEngine(1, 2)
	a := NewNode(eng.Shard(0).Loop(), "a")
	b := NewNode(eng.Shard(1).Loop(), "b")
	defer func() {
		if recover() == nil {
			t.Fatal("zero-delay cross link did not panic")
		}
	}()
	WireCross(eng, "ab", eng.Shard(0), a, "eth0", MustAddr("10.0.0.1"),
		eng.Shard(1), b, "eth0", MustAddr("10.0.0.2"),
		LinkConfig{RateBps: 1e6}, LinkConfig{RateBps: 1e6})
}
