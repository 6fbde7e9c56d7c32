package tcp

import (
	"fmt"
	"net/netip"

	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
)

// fourTuple identifies a connection.
type fourTuple struct {
	local, peer  netip.Addr
	lport, rport uint16
}

// SendFunc injects packets into a network stack (a node's Send or a
// slice's Send, so TCP inside a slice gets VNET+ attribution).
type SendFunc func(*netsim.Packet) error

// Stack is a node's TCP layer: it demultiplexes incoming segments to
// connections and listeners.
type Stack struct {
	loop      *sim.Loop
	node      *netsim.Node
	sendFn    SendFunc
	conns     map[fourTuple]*Conn
	listeners map[uint16]func(*Conn)
	// RefusedSegments counts segments that matched no connection or
	// listener (answered with RST).
	RefusedSegments uint64
}

// NewStack attaches a TCP layer to a node. sendFn defaults to node.Send;
// pass a slice's Send for in-slice TCP. The stack claims the node's
// wildcard TCP handler.
func NewStack(loop *sim.Loop, node *netsim.Node, sendFn SendFunc) (*Stack, error) {
	s := &Stack{
		loop: loop, node: node, sendFn: sendFn,
		conns:     make(map[fourTuple]*Conn),
		listeners: make(map[uint16]func(*Conn)),
	}
	if s.sendFn == nil {
		s.sendFn = node.Send
	}
	if err := node.Bind(netsim.ProtoTCP, 0, s.input); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Stack) send(pkt *netsim.Packet) { s.sendFn(pkt) }

func (s *Stack) remove(c *Conn) {
	delete(s.conns, fourTuple{c.local, c.peer, c.lport, c.rport})
}

// Listen accepts connections on a port; accept is invoked with each new
// connection after its handshake completes.
func (s *Stack) Listen(port uint16, accept func(*Conn)) error {
	if _, dup := s.listeners[port]; dup {
		return fmt.Errorf("tcp: port %d already listening", port)
	}
	s.listeners[port] = accept
	return nil
}

// Dial opens a connection to addr:port from the given local address
// (zero means the stack's routing picks it — here the caller must supply
// one, as the simulator has no source-address discovery for TCP).
func (s *Stack) Dial(local netip.Addr, addr netip.Addr, port uint16) (*Conn, error) {
	lport := s.ephemeralPort()
	c := &Conn{
		stack: s, local: local, peer: addr, lport: lport, rport: port,
	}
	c.init(s.loop)
	key := fourTuple{local, addr, lport, port}
	if _, dup := s.conns[key]; dup {
		return nil, fmt.Errorf("tcp: connection %v exists", key)
	}
	s.conns[key] = c
	c.startActive()
	return c, nil
}

func (s *Stack) ephemeralPort() uint16 {
	for {
		p := uint16(32768 + s.loop.RNG("tcp/ephemeral").Intn(28000))
		inUse := false
		for k := range s.conns {
			if k.lport == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p
		}
	}
}

// input demultiplexes one packet.
func (s *Stack) input(pkt *netsim.Packet) {
	seg, err := parseSegment(pkt.Payload)
	if err != nil {
		return
	}
	key := fourTuple{pkt.Dst, pkt.Src, pkt.DstPort, pkt.SrcPort}
	if c, ok := s.conns[key]; ok {
		c.input(seg)
		return
	}
	// New connection for a listener?
	if accept, ok := s.listeners[pkt.DstPort]; ok && seg.Flags&flagSYN != 0 && seg.Flags&flagACK == 0 {
		c := &Conn{
			stack: s, local: pkt.Dst, peer: pkt.Src,
			lport: pkt.DstPort, rport: pkt.SrcPort,
		}
		c.init(s.loop)
		c.state = stateSynRcvd
		c.iss = s.loop.RNG("tcp/iss").Uint32()
		c.sndUna = c.iss
		c.sndNxt = c.iss
		c.rcvNxt = seg.Seq + 1
		c.peerWnd = seg.Wnd
		s.conns[key] = c
		// Deliver the connection to the application before the handshake
		// completes so it can install OnData/OnConnect handlers.
		accept(c)
		c.sendSYN(true)
		return
	}
	// No taker: RST (unless the stray segment is itself a RST).
	s.RefusedSegments++
	if seg.Flags&flagRST == 0 {
		rst := segment{Seq: seg.Ack, Ack: seg.Seq + uint32(len(seg.Data)), Flags: flagRST | flagACK}
		s.send(&netsim.Packet{
			Src: pkt.Dst, Dst: pkt.Src, Proto: netsim.ProtoTCP,
			SrcPort: pkt.DstPort, DstPort: pkt.SrcPort,
			Payload: rst.marshal(),
		})
	}
}

// Conns returns the number of live connections.
func (s *Stack) Conns() int { return len(s.conns) }
