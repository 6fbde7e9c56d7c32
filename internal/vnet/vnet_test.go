package vnet

import (
	"net/netip"
	"testing"

	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
)

func newPair(t *testing.T) (*sim.Loop, *Subsystem, *netsim.Node) {
	t.Helper()
	loop := sim.NewLoop(1)
	nw := netsim.NewNetwork(loop)
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	nw.WireP2P("l", a, "eth0", netsim.MustAddr("10.0.0.1"), b, "eth0", netsim.MustAddr("10.0.0.2"),
		netsim.LinkConfig{}, netsim.LinkConfig{})
	return loop, New(a), b
}

func TestSendStampsContext(t *testing.T) {
	loop, v, _ := newPair(t)
	var stamped uint32
	v.Node().Hooks.Output = func(pkt *netsim.Packet, _ *netsim.Iface) netsim.Verdict {
		stamped = pkt.SliceCtx
		return netsim.VerdictAccept
	}
	p := &netsim.Packet{Dst: netsim.MustAddr("10.0.0.2"), Proto: netsim.ProtoUDP, SrcPort: 1, DstPort: 2}
	n := uint64(p.Length()) // Send owns p from here on
	if err := v.Send(1234, p); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if stamped != 1234 {
		t.Fatalf("SliceCtx = %d", stamped)
	}
	st := v.Stats(1234)
	if st.TxPackets != 1 || st.TxBytes != n {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStampDoesNotCrossTheWire(t *testing.T) {
	loop, v, b := newPair(t)
	var gotCtx uint32 = 999
	b.Bind(netsim.ProtoUDP, 2, func(pkt *netsim.Packet) { gotCtx = pkt.SliceCtx })
	// The stamp is skb metadata; over a byte-level path it vanishes. On
	// this direct link the struct travels intact, but VNET+ attribution
	// is only meaningful on the emitting node — assert the receiver can
	// still see it here (same-struct link) to document the semantics.
	v.Send(7, &netsim.Packet{Dst: netsim.MustAddr("10.0.0.2"), Proto: netsim.ProtoUDP, SrcPort: 1, DstPort: 2})
	loop.Run()
	if gotCtx != 7 {
		t.Fatalf("ctx = %d", gotCtx)
	}
	// And across marshalling (the PPP path) it is dropped:
	wire := (&netsim.Packet{Src: netsim.MustAddr("10.0.0.1"), Dst: netsim.MustAddr("10.0.0.2"),
		Proto: netsim.ProtoUDP, SliceCtx: 7}).Marshal()
	pkt, err := netsim.Unmarshal(wire)
	if err != nil || pkt.SliceCtx != 0 {
		t.Fatalf("SliceCtx crossed a byte path: %d %v", pkt.SliceCtx, err)
	}
}

func TestBindAccountsRx(t *testing.T) {
	loop, v, b := newPair(t)
	got := 0
	if err := v.Bind(55, netsim.ProtoUDP, 9000, func(pkt *netsim.Packet) { got++ }); err != nil {
		t.Fatal(err)
	}
	b.Send(&netsim.Packet{Src: netsim.MustAddr("10.0.0.2"), Dst: netsim.MustAddr("10.0.0.1"),
		Proto: netsim.ProtoUDP, SrcPort: 1, DstPort: 9000, Payload: []byte("x")})
	loop.Run()
	if got != 1 {
		t.Fatalf("handler calls = %d", got)
	}
	if st := v.Stats(55); st.RxPackets != 1 || st.RxBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := v.Unbind(netsim.ProtoUDP, 9000); err != nil {
		t.Fatal(err)
	}
}

func TestSendErrorAccounting(t *testing.T) {
	loop := sim.NewLoop(1)
	n := netsim.NewNode(loop, "isolated")
	v := New(n)
	err := v.Send(3, &netsim.Packet{Dst: netsim.MustAddr("10.0.0.2"), Proto: netsim.ProtoUDP})
	if err == nil {
		t.Fatal("expected no-route error")
	}
	if st := v.Stats(3); st.TxErrors != 1 || st.TxPackets != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStatsUnknownContext(t *testing.T) {
	_, v, _ := newPair(t)
	if st := v.Stats(42); st != (SliceStats{}) {
		t.Fatalf("unknown ctx stats = %+v", st)
	}
}

// TestSendCountsBytesOfAPacketTheLinkEnds: a byte-path link (PPP, GTP)
// marshals and frees the packet inside node.Send, so the slice's byte
// count must be taken before the packet is handed over.
func TestSendCountsBytesOfAPacketTheLinkEnds(t *testing.T) {
	loop := sim.NewLoop(1)
	n := netsim.NewNode(loop, "umts")
	ifc := n.AddIface("ppp0", netsim.MustAddr("10.3.0.1"), netip.Prefix{})
	ifc.Peer = netsim.MustAddr("10.3.0.2")
	var wire []byte
	ifc.SetLink(netsim.FuncLink(func(_ *netsim.Iface, pkt *netsim.Packet) {
		wire = pkt.Marshal()
		pkt.Free(loop.Buffers())
	}))
	v := New(n)
	pkt := netsim.NewPacket(loop.Buffers())
	pkt.Dst, pkt.Proto, pkt.Payload = netsim.MustAddr("192.0.2.1"), netsim.ProtoUDP, loop.Buffers().Get(90)
	if err := v.Send(9, pkt); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(9); st.TxPackets != 1 || st.TxBytes != 118 || len(wire) != 118 {
		t.Fatalf("stats = %+v for a %d-byte datagram, want 1 packet of 118 bytes", st, len(wire))
	}
}
