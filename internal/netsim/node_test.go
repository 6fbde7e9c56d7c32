package netsim

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/sim"
)

func netip0() netip.Prefix { return netip.Prefix{} }

func TestLoopbackDelivery(t *testing.T) {
	loop := sim.NewLoop(1)
	n := NewNode(loop, "lo")
	n.AddIface("eth0", MustAddr("10.0.0.1"), netip0())
	got := false
	n.Bind(ProtoUDP, 7, func(pkt *Packet) { got = true })
	p := udpPacket(1, 7, []byte("self"))
	p.Dst = MustAddr("10.0.0.1")
	if err := n.Send(p); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if !got {
		t.Fatal("loopback packet not delivered")
	}
}

func TestSendNoRoute(t *testing.T) {
	loop := sim.NewLoop(1)
	n := NewNode(loop, "x")
	// Interface with a prefix that does not contain the destination and
	// no peer: nothing to route over.
	n.AddIface("eth0", MustAddr("10.0.0.1"), MustPrefix("10.0.0.0/24"))
	p := udpPacket(1, 2, nil)
	p.Dst = MustAddr("192.168.5.5")
	if err := n.Send(p); err != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestSendInvalidDst(t *testing.T) {
	loop := sim.NewLoop(1)
	n := NewNode(loop, "x")
	if err := n.Send(&Packet{}); err != ErrBadPacket {
		t.Fatalf("err = %v, want ErrBadPacket", err)
	}
}

func TestOutputHookDrop(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{}, LinkConfig{})
	a.Hooks.Output = func(pkt *Packet, out *Iface) Verdict { return VerdictDrop }
	got := false
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) { got = true })
	if err := a.Send(udpPacket(1, 9000, nil)); err != ErrHookDrop {
		t.Fatalf("err = %v, want ErrHookDrop", err)
	}
	loop.Run()
	if got {
		t.Fatal("dropped packet delivered")
	}
	if a.Stats().OutputDrops != 1 {
		t.Fatalf("OutputDrops = %d", a.Stats().OutputDrops)
	}
}

func TestPostRoutingHookSeesEgress(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{}, LinkConfig{})
	var egress string
	a.Hooks.PostRouting = func(pkt *Packet, out *Iface) Verdict {
		egress = out.Name
		return VerdictAccept
	}
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) {})
	a.Send(udpPacket(1, 9000, nil))
	loop.Run()
	if egress != "eth0" {
		t.Fatalf("egress = %q, want eth0", egress)
	}
}

func TestInputHookDrop(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{}, LinkConfig{})
	b.Hooks.Input = func(pkt *Packet, out *Iface) Verdict { return VerdictDrop }
	got := false
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) { got = true })
	a.Send(udpPacket(1, 9000, nil))
	loop.Run()
	if got {
		t.Fatal("INPUT-dropped packet delivered")
	}
}

func TestMarkInfluencesRouting(t *testing.T) {
	// Output hook marks the packet; a custom route function sends marked
	// packets over a second interface. This is the §2.3 semantics the
	// whole contribution depends on.
	loop := sim.NewLoop(1)
	nw := NewNetwork(loop)
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	nw.WireP2P("path1", a, "eth0", MustAddr("10.0.0.1"), b, "eth0", MustAddr("10.0.0.2"), LinkConfig{}, LinkConfig{})
	nw.WireP2P("path2", a, "ppp0", MustAddr("10.1.0.1"), b, "ppp-peer", MustAddr("10.1.0.2"), LinkConfig{}, LinkConfig{})
	dst := MustAddr("10.0.0.2")

	a.Hooks.Output = func(pkt *Packet, out *Iface) Verdict {
		if pkt.SliceCtx == 77 {
			pkt.Mark = 5
		}
		return VerdictAccept
	}
	a.Route = func(pkt *Packet) (RouteResult, error) {
		if pkt.Mark == 5 {
			return RouteResult{Iface: a.Iface("ppp0"), Table: "umts"}, nil
		}
		return RouteResult{Iface: a.Iface("eth0"), Table: "main"}, nil
	}
	var inIface string
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) { inIface = pkt.InIface })

	p := udpPacket(1, 9000, nil)
	p.Dst = dst
	p.SliceCtx = 77
	a.Send(p)
	loop.Run()
	if inIface != "ppp-peer" {
		t.Fatalf("marked packet arrived via %q, want ppp-peer", inIface)
	}

	q := udpPacket(1, 9000, nil)
	q.Dst = dst
	a.Send(q)
	loop.Run()
	if inIface != "eth0" {
		t.Fatalf("unmarked packet arrived via %q, want eth0", inIface)
	}
}

func TestForwarding(t *testing.T) {
	// a -- r -- b: r forwards.
	loop := sim.NewLoop(1)
	nw := NewNetwork(loop)
	a := nw.AddNode("a")
	r := nw.AddNode("r")
	b := nw.AddNode("b")
	r.Forwarding = true
	nw.WireP2P("ar", a, "eth0", MustAddr("10.0.1.1"), r, "eth0", MustAddr("10.0.1.2"), LinkConfig{Delay: time.Millisecond}, LinkConfig{Delay: time.Millisecond})
	nw.WireP2P("rb", r, "eth1", MustAddr("10.0.2.1"), b, "eth0", MustAddr("10.0.2.2"), LinkConfig{Delay: time.Millisecond}, LinkConfig{Delay: time.Millisecond})
	r.Route = func(pkt *Packet) (RouteResult, error) {
		if pkt.Dst == MustAddr("10.0.2.2") {
			return RouteResult{Iface: r.Iface("eth1")}, nil
		}
		return RouteResult{Iface: r.Iface("eth0")}, nil
	}
	var gotTTL uint8
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) { gotTTL = pkt.TTL })
	p := udpPacket(1, 9000, nil)
	p.Dst = MustAddr("10.0.2.2")
	a.Send(p)
	loop.Run()
	if gotTTL != 63 {
		t.Fatalf("TTL = %d, want 63 (decremented once)", gotTTL)
	}
	if r.Stats().Forwarded != 1 {
		t.Fatalf("Forwarded = %d, want 1", r.Stats().Forwarded)
	}
}

func TestNonForwardingDropsTransit(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{}, LinkConfig{})
	p := udpPacket(1, 9000, nil)
	p.Dst = MustAddr("203.0.113.9") // not b's address
	a.Iface("eth0").Peer = MustAddr("10.0.0.2")
	a.Send(p)
	loop.Run()
	if b.Stats().InputDrops != 1 {
		t.Fatalf("InputDrops = %d, want 1", b.Stats().InputDrops)
	}
}

func TestTTLExceededOnForward(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{}, LinkConfig{})
	b.Forwarding = true
	p := udpPacket(1, 9000, nil)
	p.Dst = MustAddr("203.0.113.9")
	p.TTL = 1
	a.Send(p)
	loop.Run()
	if b.Stats().InputDrops != 1 {
		t.Fatalf("TTL=1 packet should be dropped on forward")
	}
}

func TestBindDuplicatePort(t *testing.T) {
	n := NewNode(sim.NewLoop(1), "x")
	if err := n.Bind(ProtoUDP, 80, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := n.Bind(ProtoUDP, 80, func(*Packet) {}); err == nil {
		t.Fatal("duplicate bind should fail")
	}
	if err := n.Unbind(ProtoUDP, 80); err != nil {
		t.Fatal(err)
	}
	if err := n.Unbind(ProtoUDP, 80); err == nil {
		t.Fatal("double unbind should fail")
	}
}

func TestWildcardPortHandler(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{}, LinkConfig{})
	got := 0
	b.Bind(ProtoUDP, 0, func(pkt *Packet) { got++ })
	for _, port := range []uint16{1, 500, 65535} {
		a.Send(udpPacket(1, port, nil))
	}
	loop.Run()
	if got != 3 {
		t.Fatalf("wildcard received %d, want 3", got)
	}
}

func TestUnboundPortDrops(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{}, LinkConfig{})
	a.Send(udpPacket(1, 9999, nil))
	loop.Run()
	if b.Stats().InputDrops != 1 {
		t.Fatalf("InputDrops = %d, want 1", b.Stats().InputDrops)
	}
}

func TestRemoveIface(t *testing.T) {
	loop := sim.NewLoop(1)
	n := NewNode(loop, "x")
	n.AddIface("ppp0", MustAddr("10.3.0.1"), netip0())
	if n.Iface("ppp0") == nil {
		t.Fatal("iface missing")
	}
	if !n.RemoveIface("ppp0") {
		t.Fatal("RemoveIface returned false")
	}
	if n.Iface("ppp0") != nil {
		t.Fatal("iface still present")
	}
	if n.RemoveIface("ppp0") {
		t.Fatal("second remove should return false")
	}
}

func TestIfaceDownBlocksTraffic(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{}, LinkConfig{})
	a.Iface("eth0").SetUp(false)
	if err := a.Send(udpPacket(1, 9000, nil)); err == nil {
		t.Fatal("send over downed iface should fail")
	}
	loop.Run()
	if b.Stats().Received != 0 {
		t.Fatal("packet crossed a downed interface")
	}
}

func TestSrcAddrSelection(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{}, LinkConfig{})
	var src netip.Addr
	b.Bind(ProtoUDP, 9000, func(pkt *Packet) { src = pkt.Src })
	p := &Packet{Dst: MustAddr("10.0.0.2"), Proto: ProtoUDP, SrcPort: 1, DstPort: 9000}
	a.Send(p)
	loop.Run()
	if src != MustAddr("10.0.0.1") {
		t.Fatalf("selected src %v, want egress iface addr", src)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nw := NewNetwork(sim.NewLoop(1))
	nw.AddNode("x")
	nw.AddNode("x")
}

// TestDuplicateIfacePanics: a second interface under a name the node
// already has would be unreachable by name, so AddIface refuses it;
// the name is free again once the first is removed.
func TestDuplicateIfacePanics(t *testing.T) {
	n := NewNode(sim.NewLoop(1), "x")
	n.AddIface("eth0", MustAddr("10.0.0.1"), netip.MustParsePrefix("10.0.0.0/24"))
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, ErrDuplicate) {
				t.Fatalf("second eth0: recovered %v, want ErrDuplicate", err)
			}
		}()
		n.AddIface("eth0", MustAddr("10.0.1.1"), netip.MustParsePrefix("10.0.1.0/24"))
	}()
	if got := n.Iface("eth0").Addr; got != MustAddr("10.0.0.1") {
		t.Fatalf("eth0 has address %v after the refused add, want the first one's", got)
	}
	n.RemoveIface("eth0")
	if ifc := n.AddIface("eth0", MustAddr("10.0.1.1"), netip.Prefix{}); n.Iface("eth0") != ifc {
		t.Fatal("eth0 re-added after removal is not the one found by name")
	}
}

func TestSendNoSrcAddrCountsDrop(t *testing.T) {
	loop := sim.NewLoop(1)
	n := NewNode(loop, "x")
	// An unnumbered point-to-point interface: routable, but it has no
	// address to stamp on a packet that brings none.
	n.AddIface("gtp0", netip.Addr{}, netip0()).Peer = MustAddr("10.9.0.2")
	p := &Packet{Dst: MustAddr("10.9.0.2"), Proto: ProtoUDP, SrcPort: 1, DstPort: 2}
	if err := n.Send(p); err != ErrNoSrcAddr {
		t.Fatalf("err = %v, want ErrNoSrcAddr", err)
	}
	if st := n.Stats(); st.OutputDrops != 1 || st.Sent != 0 {
		t.Fatalf("stats = %+v, want one output drop and nothing sent", st)
	}
}

// TestDropPathsFreePacket walks every place a node or link drops a
// packet and checks the ownership rule there: the dropped packet and its
// payload are back on the loop's free lists when the run ends.
func TestDropPathsFreePacket(t *testing.T) {
	drop := func(*Packet, *Iface) Verdict { return VerdictDrop }
	noRoute := func(*Packet) (RouteResult, error) { return RouteResult{}, ErrNoRoute }
	transit := func(b *Node, p *Packet) {
		b.Forwarding = true
		p.Dst = MustAddr("203.0.113.9")
	}
	cases := []struct {
		name  string
		a2b   LinkConfig
		setup func(a, b *Node, p *Packet)
	}{
		{"bad packet", LinkConfig{}, func(a, b *Node, p *Packet) { p.Dst = netip.Addr{} }},
		{"output hook", LinkConfig{}, func(a, b *Node, p *Packet) { a.Hooks.Output = drop }},
		{"no route", LinkConfig{}, func(a, b *Node, p *Packet) { a.Route = noRoute }},
		{"no source address", LinkConfig{}, func(a, b *Node, p *Packet) {
			a.Iface("eth0").Addr = netip.Addr{}
			p.Src = netip.Addr{}
		}},
		{"postrouting hook", LinkConfig{}, func(a, b *Node, p *Packet) { a.Hooks.PostRouting = drop }},
		{"egress down", LinkConfig{}, func(a, b *Node, p *Packet) {
			a.Route = func(*Packet) (RouteResult, error) { return RouteResult{Iface: a.Iface("eth0")}, nil }
			a.Iface("eth0").SetUp(false)
		}},
		{"link loss", LinkConfig{LossProb: 1}, func(a, b *Node, p *Packet) {}},
		{"ingress down", LinkConfig{}, func(a, b *Node, p *Packet) { b.Iface("eth0").SetUp(false) }},
		{"prerouting hook", LinkConfig{}, func(a, b *Node, p *Packet) { b.Hooks.PreRouting = drop }},
		{"input hook", LinkConfig{}, func(a, b *Node, p *Packet) { b.Hooks.Input = drop }},
		{"no handler", LinkConfig{}, func(a, b *Node, p *Packet) { p.DstPort = 9999 }},
		{"not forwarding", LinkConfig{}, func(a, b *Node, p *Packet) { p.Dst = MustAddr("203.0.113.9") }},
		{"ttl exceeded", LinkConfig{}, func(a, b *Node, p *Packet) { transit(b, p); p.TTL = 1 }},
		{"forward hook", LinkConfig{}, func(a, b *Node, p *Packet) { transit(b, p); b.Hooks.Forward = drop }},
		{"forward no route", LinkConfig{}, func(a, b *Node, p *Packet) { transit(b, p); b.Route = noRoute }},
		{"forward postrouting hook", LinkConfig{}, func(a, b *Node, p *Packet) { transit(b, p); b.Hooks.PostRouting = drop }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			loop, _, a, b, _ := twoHosts(t, c.a2b, LinkConfig{})
			b.Bind(ProtoUDP, 9000, func(*Packet) {}) // keeps what it gets
			pool := loop.Buffers()
			p := NewPacket(pool)
			*p = *udpPacket(1, 9000, pool.Get(64))
			payload := &p.Payload[0]
			c.setup(a, b, p)
			a.Send(p)
			loop.Run()
			if q := NewPacket(pool); q != p {
				t.Error("dropped packet is not on the loop's free list")
			}
			if buf := pool.Get(64); &buf[0] != payload {
				t.Error("dropped packet's payload is not back in the pool")
			}
		})
	}
}

// TestQueueOverflowFreesPacket: a drop-tail discard frees exactly the
// discarded packet; the ones the link accepted reach the receiver.
func TestQueueOverflowFreesPacket(t *testing.T) {
	loop, _, a, b, _ := twoHosts(t, LinkConfig{RateBps: 8000, QueuePackets: 1}, LinkConfig{})
	var got []*Packet
	b.Bind(ProtoUDP, 9000, func(p *Packet) { got = append(got, p) })
	pool := loop.Buffers()
	var sent []*Packet
	for i := 0; i < 3; i++ {
		p := NewPacket(pool)
		*p = *udpPacket(1, 9000, nil)
		sent = append(sent, p)
		a.Send(p) // in flight, queued, dropped
	}
	loop.Run()
	if len(got) != 2 || got[0] != sent[0] || got[1] != sent[1] {
		t.Fatalf("receiver got %v, want the first two packets", got)
	}
	if q := NewPacket(pool); q != sent[2] {
		t.Fatal("the overflowing packet is not on the loop's free list")
	}
}
