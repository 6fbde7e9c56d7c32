package netsim

import (
	"errors"
	"fmt"
	"net/netip"

	"github.com/onelab/umtslab/internal/sim"
)

// Verdict is the outcome of a hook evaluation.
type Verdict int

// Hook verdicts.
const (
	VerdictAccept Verdict = iota
	VerdictDrop
)

// RouteResult is the outcome of a routing decision: the egress interface
// and the routing table that supplied it.
type RouteResult struct {
	Iface *Iface
	Table string
}

// RouteFunc resolves the egress for a locally generated or forwarded
// packet. Returning an error drops the packet (ENETUNREACH analog).
type RouteFunc func(pkt *Packet) (RouteResult, error)

// HookFunc inspects (and may modify) a packet at a netfilter-style hook
// point. out is the already-chosen egress interface for output-side hooks
// and nil on the input path.
type HookFunc func(pkt *Packet, out *Iface) Verdict

// Hooks are the node's packet-path extension points, in traversal order.
// A nil hook accepts everything.
//
// Simplification relative to Linux: the OUTPUT hook runs before the
// routing decision, so a mark applied there influences routing without
// needing the kernel's "reroute after OUTPUT" special case. The paper's
// rule set (§2.3) depends exactly on mark-then-route semantics.
type Hooks struct {
	Output      HookFunc // locally generated, before routing (mangle marks)
	PostRouting HookFunc // after routing, before transmission (filter drops)
	PreRouting  HookFunc // packets entering from a link
	Input       HookFunc // packets addressed to this node
	Forward     HookFunc // packets being forwarded
}

// PortHandler consumes packets delivered to a bound transport port. The
// handler owns pkt: it may Free it, send it on, or keep it.
type PortHandler func(pkt *Packet)

type portKey struct {
	proto Proto
	port  uint16
}

// NodeStats counts packet-path events on a node.
type NodeStats struct {
	Sent        uint64 // locally generated packets handed to an interface
	Received    uint64 // packets delivered to local handlers
	Forwarded   uint64
	OutputDrops uint64 // dropped by hooks, routing or source selection on the way out
	InputDrops  uint64 // no handler, hook drop, TTL exceeded, not local
}

// Node is a host or router in the simulated network.
type Node struct {
	Name string
	Loop *sim.Loop

	// Route resolves egress; if nil, a connected-prefix lookup over the
	// node's interfaces is used.
	Route RouteFunc
	// Hooks are the netfilter attachment points.
	Hooks Hooks
	// Forwarding enables routing of non-local packets (router behavior).
	Forwarding bool

	ifaces   []*Iface
	ifaceGen uint64 // bumped by AddIface and RemoveIface
	ports    map[portKey]PortHandler
	ipSeq    uint16
	stats    NodeStats

	// Trace, if set, receives a line per notable packet event. Used by
	// tests and the -v experiment mode.
	Trace func(format string, args ...any)
}

// NewNode creates a node with no interfaces.
func NewNode(loop *sim.Loop, name string) *Node {
	return &Node{Name: name, Loop: loop, ports: make(map[portKey]PortHandler)}
}

// Stats returns a copy of the node's counters.
func (n *Node) Stats() NodeStats { return n.stats }

func (n *Node) tracef(format string, args ...any) {
	if n.Trace != nil {
		n.Trace(format, args...)
	}
}

// Iface is a network interface attached to a node.
type Iface struct {
	Name   string
	Node   *Node
	Addr   netip.Addr
	Peer   netip.Addr   // remote address for point-to-point interfaces
	Prefix netip.Prefix // connected subnet, if any
	MTU    int

	up   bool
	link Link

	TxPackets, RxPackets uint64
	TxBytes, RxBytes     uint64
}

// AddIface creates an interface on the node. prefix may be the zero value
// for point-to-point interfaces without a connected subnet.
func (n *Node) AddIface(name string, addr netip.Addr, prefix netip.Prefix) *Iface {
	ifc := &Iface{Name: name, Node: n, Addr: addr, Prefix: prefix, MTU: 1500, up: true}
	n.ifaces = append(n.ifaces, ifc)
	n.ifaceGen++
	return ifc
}

// RemoveIface detaches the named interface (e.g. ppp0 teardown). It
// returns false if no such interface exists.
func (n *Node) RemoveIface(name string) bool {
	for i, ifc := range n.ifaces {
		if ifc.Name == name {
			ifc.up = false
			ifc.link = nil
			n.ifaces = append(n.ifaces[:i], n.ifaces[i+1:]...)
			n.ifaceGen++
			return true
		}
	}
	return false
}

// IfaceGen returns the interface generation: it changes whenever an
// interface is added or removed, so a routing function that caches
// name-to-interface resolutions knows when to redo them.
func (n *Node) IfaceGen() uint64 { return n.ifaceGen }

// Iface returns the named interface, or nil.
func (n *Node) Iface(name string) *Iface {
	for _, ifc := range n.ifaces {
		if ifc.Name == name {
			return ifc
		}
	}
	return nil
}

// Ifaces returns the node's interfaces in attachment order.
func (n *Node) Ifaces() []*Iface { return append([]*Iface(nil), n.ifaces...) }

// HasAddr reports whether addr is assigned to any interface of the node.
func (n *Node) HasAddr(addr netip.Addr) bool {
	for _, ifc := range n.ifaces {
		if ifc.Addr == addr {
			return true
		}
	}
	return false
}

// SetUp changes the administrative state of the interface.
func (i *Iface) SetUp(up bool) { i.up = up }

// Up reports the administrative state.
func (i *Iface) Up() bool { return i.up }

// Link returns the attached link (nil if detached).
func (i *Iface) Link() Link { return i.link }

// SetLink attaches a custom link implementation (e.g. a PPP device).
func (i *Iface) SetLink(l Link) { i.link = l }

// Output transmits a packet out of this interface. Output owns pkt:
// the link takes it, or it is freed when the interface is down or
// detached.
func (i *Iface) Output(pkt *Packet) {
	if !i.up || i.link == nil {
		i.Node.free(pkt)
		return
	}
	i.TxPackets++
	i.TxBytes += uint64(pkt.Length())
	i.link.Send(i, pkt)
}

// Deliver hands a packet arriving from the link to the owning node,
// which owns it from then on (it is freed if the interface is down).
func (i *Iface) Deliver(pkt *Packet) {
	if !i.up {
		i.Node.free(pkt)
		return
	}
	i.RxPackets++
	i.RxBytes += uint64(pkt.Length())
	pkt.InIface = i.Name
	i.Node.input(pkt)
}

// Errors returned on the send path.
var (
	ErrNoRoute    = errors.New("netsim: no route to host")
	ErrHookDrop   = errors.New("netsim: packet dropped by hook")
	ErrNoSrcAddr  = errors.New("netsim: no source address available")
	ErrIfaceDown  = errors.New("netsim: egress interface down")
	ErrBadPacket  = errors.New("netsim: malformed packet")
	ErrPortInUse  = errors.New("netsim: port already bound")
	ErrNotBound   = errors.New("netsim: port not bound")
	ErrDuplicate  = errors.New("netsim: duplicate interface name")
	ErrNoSuchNode = errors.New("netsim: no such node")
)

// Send transmits a locally generated packet: OUTPUT hook, routing,
// POSTROUTING hook, then egress. Source address selection: if pkt.Src is
// the zero value, the egress interface address is used. Send owns pkt
// on every return, errors included: the caller must not touch it again.
func (n *Node) Send(pkt *Packet) error {
	if !pkt.Dst.IsValid() {
		n.free(pkt)
		return ErrBadPacket
	}
	if pkt.TTL == 0 {
		pkt.TTL = 64
	}
	n.ipSeq++
	pkt.ID = n.ipSeq

	if h := n.Hooks.Output; h != nil {
		if h(pkt, nil) == VerdictDrop {
			n.tracef("%s: OUTPUT drop %s", n.Name, pkt)
			n.dropOutput(pkt)
			return ErrHookDrop
		}
	}

	// Loopback: destination is one of our own addresses.
	if n.HasAddr(pkt.Dst) {
		if !pkt.Src.IsValid() {
			pkt.Src = pkt.Dst
		}
		n.Loop.Post(func() { n.deliverLocal(pkt) })
		n.stats.Sent++
		return nil
	}

	res, err := n.route(pkt)
	if err != nil {
		n.tracef("%s: no route for %s", n.Name, pkt)
		n.dropOutput(pkt)
		return err
	}
	if !pkt.Src.IsValid() {
		if !res.Iface.Addr.IsValid() {
			n.dropOutput(pkt)
			return ErrNoSrcAddr
		}
		pkt.Src = res.Iface.Addr
	}
	if h := n.Hooks.PostRouting; h != nil {
		if h(pkt, res.Iface) == VerdictDrop {
			n.tracef("%s: POSTROUTING drop %s via %s", n.Name, pkt, res.Iface.Name)
			n.dropOutput(pkt)
			return ErrHookDrop
		}
	}
	if !res.Iface.up {
		n.dropOutput(pkt)
		return ErrIfaceDown
	}
	n.stats.Sent++
	res.Iface.Output(pkt)
	return nil
}

func (n *Node) route(pkt *Packet) (RouteResult, error) {
	if n.Route != nil {
		return n.Route(pkt)
	}
	return n.connectedRoute(pkt)
}

// connectedRoute is the fallback routing policy: direct delivery over an
// interface whose prefix contains the destination, or over a
// point-to-point interface whose peer is the destination; otherwise the
// first up interface with a peer acts as default.
func (n *Node) connectedRoute(pkt *Packet) (RouteResult, error) {
	for _, ifc := range n.ifaces {
		if !ifc.up {
			continue
		}
		if ifc.Peer.IsValid() && ifc.Peer == pkt.Dst {
			return RouteResult{Iface: ifc, Table: "connected"}, nil
		}
		if ifc.Prefix.IsValid() && ifc.Prefix.Contains(pkt.Dst) {
			return RouteResult{Iface: ifc, Table: "connected"}, nil
		}
	}
	for _, ifc := range n.ifaces {
		if ifc.up && ifc.Peer.IsValid() {
			return RouteResult{Iface: ifc, Table: "connected-default"}, nil
		}
	}
	return RouteResult{}, ErrNoRoute
}

// input processes a packet arriving on an interface.
func (n *Node) input(pkt *Packet) {
	if h := n.Hooks.PreRouting; h != nil {
		if h(pkt, nil) == VerdictDrop {
			n.dropInput(pkt)
			return
		}
	}
	if n.HasAddr(pkt.Dst) {
		n.deliverLocal(pkt)
		return
	}
	if !n.Forwarding {
		n.tracef("%s: not forwarding, dropped %s", n.Name, pkt)
		n.dropInput(pkt)
		return
	}
	if pkt.TTL <= 1 {
		n.tracef("%s: TTL exceeded for %s", n.Name, pkt)
		n.dropInput(pkt)
		return
	}
	pkt.TTL--
	if h := n.Hooks.Forward; h != nil {
		if h(pkt, nil) == VerdictDrop {
			n.dropInput(pkt)
			return
		}
	}
	res, err := n.route(pkt)
	if err != nil {
		n.tracef("%s: forward no route for %s", n.Name, pkt)
		n.dropInput(pkt)
		return
	}
	if h := n.Hooks.PostRouting; h != nil {
		if h(pkt, res.Iface) == VerdictDrop {
			n.dropInput(pkt)
			return
		}
	}
	n.stats.Forwarded++
	res.Iface.Output(pkt)
}

// free ends a packet the node owns, recycling it into the loop's pool.
func (n *Node) free(pkt *Packet) { pkt.Free(n.Loop.Buffers()) }

// dropOutput counts and frees a packet dropped on the way out.
func (n *Node) dropOutput(pkt *Packet) {
	n.stats.OutputDrops++
	n.free(pkt)
}

// dropInput counts and frees a packet dropped on the input path.
func (n *Node) dropInput(pkt *Packet) {
	n.stats.InputDrops++
	n.free(pkt)
}

func (n *Node) deliverLocal(pkt *Packet) {
	if h := n.Hooks.Input; h != nil {
		if h(pkt, nil) == VerdictDrop {
			n.dropInput(pkt)
			return
		}
	}
	h, ok := n.ports[portKey{pkt.Proto, pkt.DstPort}]
	if !ok {
		// Wildcard handler on port 0, if any (packet sniffers, ICMP).
		h, ok = n.ports[portKey{pkt.Proto, 0}]
	}
	if !ok {
		n.tracef("%s: no handler for %s", n.Name, pkt)
		n.dropInput(pkt)
		return
	}
	n.stats.Received++
	h(pkt)
}

// Bind registers a handler for a transport port. Port 0 acts as a
// wildcard receiver for the protocol.
func (n *Node) Bind(proto Proto, port uint16, h PortHandler) error {
	k := portKey{proto, port}
	if _, exists := n.ports[k]; exists {
		return fmt.Errorf("%w: %s/%d on %s", ErrPortInUse, proto, port, n.Name)
	}
	n.ports[k] = h
	return nil
}

// Unbind removes a port handler.
func (n *Node) Unbind(proto Proto, port uint16) error {
	k := portKey{proto, port}
	if _, exists := n.ports[k]; !exists {
		return fmt.Errorf("%w: %s/%d on %s", ErrNotBound, proto, port, n.Name)
	}
	delete(n.ports, k)
	return nil
}
