package netsim

import (
	"fmt"
	"net/netip"

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
type CrossLink struct{ duplex }

// WireCross creates a full-duplex cross-shard link between new
// interfaces on nodes a (hosted by shard sa) and b (hosted by shard
// sb), mirroring Network.WireP2P's addressing. Both directions must
// declare a positive fixed Delay — it becomes the shard engine's
// lookahead contribution for that direction. Jitter never shortens the
// crossing: the per-packet extra delay is added on top of Delay. Cross
// links are immutable after wiring (a lowered delay could break the
// engine's lookahead contract), except for the loss probability
// (SetLossProb).
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

	l := &CrossLink{duplex{name: name}}
	l.ends[0], l.ends[1] = ia, ib
	l.dirs[0] = newCrossDir(sa.Loop(), name+"/ab", a2b, ib)
	l.dirs[1] = newCrossDir(sb.Loop(), name+"/ba", b2a, ia)
	// Edge creation order (ab then ba) is fixed per link, so the global
	// edge numbering depends only on the order links are built — a
	// property of the scenario, not of the shard mapping.
	l.dirs[0].edge = eng.NewEdge(sa, sb, a2b.Delay, l.dirs[0].arrive)
	l.dirs[1].edge = eng.NewEdge(sb, sa, b2a.Delay, l.dirs[1].arrive)
	ia.link = l
	ib.link = l
	return l
}

// newCrossDir creates one direction of a CrossLink, paced on its source
// shard's loop with its own RNG stream.
func newCrossDir(loop *sim.Loop, name string, cfg LinkConfig, to *Iface) *linkDir {
	d := newLinkDir(loop, loop.RNG("xlink/"+name), "netsim/xlink/"+name+"/", cfg)
	d.to = to
	return d
}
