// Package netsim implements the packet-level network substrate used by the
// reproduction: IPv4/UDP packets with real header marshalling, network
// interfaces, rate/delay/loss links with drop-tail queues, and nodes with
// pluggable routing and netfilter-style hooks.
//
// The substrate is event-driven on a sim.Loop, so a whole testbed (hosts,
// routers, the UMTS radio path) advances deterministically in virtual time.
package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"github.com/onelab/umtslab/internal/bufpool"
)

// Proto is an IPv4 protocol number.
type Proto uint8

// Protocol numbers used by the testbed.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Header sizes in bytes. The simulator uses fixed 20-byte IPv4 headers
// (no options).
const (
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
)

// Packet is an IPv4 datagram in flight, together with node-local metadata
// that in a real kernel would live in the skb (and which therefore does
// NOT survive Marshal/Unmarshal across a byte-level path such as PPP).
type Packet struct {
	// Wire fields.
	Src, Dst netip.Addr
	Proto    Proto
	TTL      uint8
	TOS      uint8
	ID       uint16
	SrcPort  uint16 // UDP/TCP only
	DstPort  uint16 // UDP/TCP only
	Payload  []byte

	// Node-local metadata (skb analog): never serialized.
	Mark     uint32 // netfilter fwmark
	SliceCtx uint32 // VNET+ slice attribution (security context id)
	InIface  string // ingress interface name, set on receive
}

// NewPacket returns a zero packet from pool's packet free list, or a new
// one when the list is empty or pool is nil. Whoever ends the packet
// hands it back with Free (see DESIGN.md §5d for who that is).
func NewPacket(pool *bufpool.Pool) *Packet {
	if pool == nil {
		return new(Packet)
	}
	p := bufpool.GetObj[Packet](pool)
	*p = Packet{}
	return p
}

// Free ends the packet: its payload goes back to pool's buffer classes
// (Put drops one that did not come from a pool) and the packet to
// pool's packet free list. The caller must own p and must not touch it,
// or its payload, afterwards.
func (p *Packet) Free(pool *bufpool.Pool) {
	pool.Put(p.Payload)
	p.Payload = nil
	bufpool.PutObj(pool, p)
}

// Length returns the total on-wire IPv4 length of the packet in bytes.
func (p *Packet) Length() int {
	n := IPv4HeaderLen + len(p.Payload)
	if p.Proto == ProtoUDP || p.Proto == ProtoTCP {
		n += UDPHeaderLen
	}
	return n
}

// Clone returns a deep copy of the packet, including local metadata.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Payload = append([]byte(nil), p.Payload...)
	return &q
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s %s:%d > %s:%d len=%d mark=%#x slice=%d",
		p.Proto, p.Src, p.SrcPort, p.Dst, p.DstPort, p.Length(), p.Mark, p.SliceCtx)
}

// FlowKey identifies a unidirectional transport flow.
type FlowKey struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Proto            Proto
}

// Flow returns the packet's flow key.
func (p *Packet) Flow() FlowKey {
	return FlowKey{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// Reverse returns the key of the opposite direction of the flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Errors returned by Unmarshal.
var (
	ErrTruncated   = errors.New("netsim: truncated packet")
	ErrBadVersion  = errors.New("netsim: not an IPv4 packet")
	ErrBadChecksum = errors.New("netsim: bad IPv4 header checksum")
	ErrBadLength   = errors.New("netsim: inconsistent length fields")
)

// Marshal serializes the packet to real IPv4 (+UDP) wire format. This is
// the representation carried over byte-level paths (the PPP link).
func (p *Packet) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, p.Length()))
}

// AppendMarshal appends the wire format to dst and returns the extended
// slice. dst is typically the empty slice of a recycled buffer; every
// wire byte is written explicitly (including the zero UDP checksum), so
// recycled garbage never leaks onto the wire.
func (p *Packet) AppendMarshal(dst []byte) []byte {
	total := p.Length()
	start := len(dst)
	for cap(dst) < start+total {
		dst = append(dst[:cap(dst)], 0)
	}
	dst = dst[:start+total]
	b := dst[start:]
	b[0] = 0x45 // version 4, IHL 5
	b[1] = p.TOS
	binary.BigEndian.PutUint16(b[2:], uint16(total))
	binary.BigEndian.PutUint16(b[4:], p.ID)
	// flags+fragment offset: DF set, no fragmentation in the simulator
	binary.BigEndian.PutUint16(b[6:], 0x4000)
	b[8] = p.TTL
	b[9] = uint8(p.Proto)
	// Zero the checksum field before summing: a recycled buffer carries
	// whatever the previous user left there.
	b[10] = 0
	b[11] = 0
	srcA := p.Src.As4()
	dstA := p.Dst.As4()
	copy(b[12:16], srcA[:])
	copy(b[16:20], dstA[:])
	binary.BigEndian.PutUint16(b[10:], ipChecksum(b[:IPv4HeaderLen]))

	off := IPv4HeaderLen
	if p.Proto == ProtoUDP || p.Proto == ProtoTCP {
		binary.BigEndian.PutUint16(b[off:], p.SrcPort)
		binary.BigEndian.PutUint16(b[off+2:], p.DstPort)
		binary.BigEndian.PutUint16(b[off+4:], uint16(UDPHeaderLen+len(p.Payload)))
		// UDP checksum zero (legal for IPv4); the simulated radio link
		// delivers frames intact or not at all. Written explicitly: a
		// recycled buffer is not pre-zeroed.
		b[off+6] = 0
		b[off+7] = 0
		off += UDPHeaderLen
	}
	copy(b[off:], p.Payload)
	return dst
}

// Unmarshal parses wire bytes into a Packet. Local metadata fields are
// zero: attribution does not cross a wire.
func Unmarshal(b []byte) (*Packet, error) { return UnmarshalPooled(b, nil) }

// UnmarshalPooled is Unmarshal drawing the packet and its payload copy
// from pool (when non-nil) instead of the allocator. The consumer that
// ends the packet hands both back with Free.
func UnmarshalPooled(b []byte, pool *bufpool.Pool) (*Packet, error) {
	if len(b) < IPv4HeaderLen {
		return nil, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return nil, ErrTruncated
	}
	if ipChecksum(b[:ihl]) != 0 {
		return nil, ErrBadChecksum
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total < ihl || total > len(b) {
		return nil, ErrBadLength
	}
	proto := Proto(b[9])
	rest := b[ihl:total]
	var srcPort, dstPort uint16
	if proto == ProtoUDP || proto == ProtoTCP {
		if len(rest) < UDPHeaderLen {
			return nil, ErrTruncated
		}
		srcPort = binary.BigEndian.Uint16(rest[0:])
		dstPort = binary.BigEndian.Uint16(rest[2:])
		ulen := int(binary.BigEndian.Uint16(rest[4:]))
		if ulen < UDPHeaderLen || ulen > len(rest) {
			return nil, ErrBadLength
		}
		rest = rest[UDPHeaderLen:ulen]
	}
	p := NewPacket(pool)
	*p = Packet{
		TOS:     b[1],
		ID:      binary.BigEndian.Uint16(b[4:]),
		TTL:     b[8],
		Proto:   proto,
		Src:     netip.AddrFrom4([4]byte(b[12:16])),
		Dst:     netip.AddrFrom4([4]byte(b[16:20])),
		SrcPort: srcPort,
		DstPort: dstPort,
		Payload: copyPayload(rest, pool),
	}
	return p, nil
}

func copyPayload(src []byte, pool *bufpool.Pool) []byte {
	var dst []byte
	if pool != nil {
		dst = pool.Get(len(src))
	} else {
		dst = make([]byte, len(src))
	}
	copy(dst, src)
	return dst
}

// ipChecksum computes the RFC 791 header checksum. Computing it over a
// header with a correct checksum in place yields zero.
func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// MustAddr parses an IPv4 address, panicking on error. For test and
// topology-construction code.
func MustAddr(s string) netip.Addr {
	a, err := netip.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// MustPrefix parses a CIDR prefix, panicking on error.
func MustPrefix(s string) netip.Prefix {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}
