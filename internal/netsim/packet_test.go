package netsim

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/onelab/umtslab/internal/bufpool"
	"github.com/onelab/umtslab/internal/metrics"
)

func udpPacket(srcPort, dstPort uint16, payload []byte) *Packet {
	return &Packet{
		Src:     MustAddr("10.0.0.1"),
		Dst:     MustAddr("10.0.0.2"),
		Proto:   ProtoUDP,
		TTL:     64,
		SrcPort: srcPort,
		DstPort: dstPort,
		Payload: payload,
	}
}

func TestLengthUDP(t *testing.T) {
	p := udpPacket(1000, 2000, make([]byte, 1024))
	if got := p.Length(); got != 20+8+1024 {
		t.Fatalf("Length = %d, want 1052", got)
	}
}

func TestLengthRaw(t *testing.T) {
	p := &Packet{Src: MustAddr("1.1.1.1"), Dst: MustAddr("2.2.2.2"), Proto: ProtoICMP, Payload: make([]byte, 56)}
	if got := p.Length(); got != 20+56 {
		t.Fatalf("Length = %d, want 76", got)
	}
}

func TestMarshalUnmarshalRoundtrip(t *testing.T) {
	p := udpPacket(5001, 9000, []byte("hello umts"))
	p.TOS = 0x10
	p.ID = 4242
	b := p.Marshal()
	q, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if q.Src != p.Src || q.Dst != p.Dst || q.SrcPort != p.SrcPort || q.DstPort != p.DstPort {
		t.Fatalf("addressing mismatch: %v vs %v", q, p)
	}
	if q.TOS != p.TOS || q.ID != p.ID || q.TTL != p.TTL || q.Proto != p.Proto {
		t.Fatalf("header mismatch: %+v vs %+v", q, p)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("payload mismatch")
	}
}

func TestUnmarshalDropsLocalMetadata(t *testing.T) {
	p := udpPacket(1, 2, []byte("x"))
	p.Mark = 99
	p.SliceCtx = 1234
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q.Mark != 0 || q.SliceCtx != 0 {
		t.Fatalf("local metadata crossed the wire: mark=%d slice=%d", q.Mark, q.SliceCtx)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	p := udpPacket(1, 2, []byte("payload"))
	b := p.Marshal()
	for _, n := range []int{0, 10, 19} {
		if _, err := Unmarshal(b[:n]); err == nil {
			t.Fatalf("Unmarshal of %d bytes should fail", n)
		}
	}
}

func TestUnmarshalBadVersion(t *testing.T) {
	b := udpPacket(1, 2, nil).Marshal()
	b[0] = 0x65 // version 6
	if _, err := Unmarshal(b); err != ErrBadVersion {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestUnmarshalCorruptChecksum(t *testing.T) {
	b := udpPacket(1, 2, []byte("abc")).Marshal()
	b[12] ^= 0xff // corrupt source address
	if _, err := Unmarshal(b); err != ErrBadChecksum {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestUnmarshalBadUDPLength(t *testing.T) {
	p := udpPacket(1, 2, []byte("abcdef"))
	b := p.Marshal()
	// Oversized UDP length that exceeds the IP payload.
	b[24] = 0xff
	b[25] = 0xff
	// Fix the IP checksum? UDP length is outside the IP header, so the
	// IP checksum is still fine; only the UDP length check should fire.
	if _, err := Unmarshal(b); err != ErrBadLength {
		t.Fatalf("err = %v, want ErrBadLength", err)
	}
}

func TestIPChecksumKnownVector(t *testing.T) {
	// Example from RFC 1071 discussions: header with checksum zeroed.
	h := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01,
		0xc0, 0xa8, 0x00, 0xc7,
	}
	if got := ipChecksum(h); got != 0xb861 {
		t.Fatalf("checksum = %#04x, want 0xb861", got)
	}
}

func TestFlowKeyReverse(t *testing.T) {
	p := udpPacket(1000, 2000, nil)
	k := p.Flow()
	r := k.Reverse()
	if r.Src != k.Dst || r.Dst != k.Src || r.SrcPort != k.DstPort || r.DstPort != k.SrcPort {
		t.Fatalf("Reverse broken: %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse should be identity")
	}
}

func TestClone(t *testing.T) {
	p := udpPacket(1, 2, []byte{1, 2, 3})
	q := p.Clone()
	q.Payload[0] = 9
	if p.Payload[0] != 1 {
		t.Fatal("Clone shares payload storage")
	}
}

func TestProtoString(t *testing.T) {
	cases := map[Proto]string{ProtoUDP: "udp", ProtoTCP: "tcp", ProtoICMP: "icmp", 99: "proto(99)"}
	for p, want := range cases {
		if p.String() != want {
			t.Fatalf("Proto(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
}

// Property: marshal/unmarshal is an identity on wire-visible fields for
// arbitrary ports and payloads.
func TestPropertyMarshalRoundtrip(t *testing.T) {
	f := func(srcPort, dstPort uint16, a, b, c, d byte, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		p := &Packet{
			Src: netip.AddrFrom4([4]byte{a, b, c, d}), Dst: MustAddr("192.0.2.7"),
			Proto: ProtoUDP, TTL: 64, SrcPort: srcPort, DstPort: dstPort, Payload: payload,
		}
		q, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		return q.Src == p.Src && q.SrcPort == srcPort && q.DstPort == dstPort &&
			bytes.Equal(q.Payload, payload)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: any random byte corruption of a marshalled packet is either
// detected or parses into a structurally valid packet (never panics).
func TestPropertyCorruptionSafety(t *testing.T) {
	base := udpPacket(7000, 8000, bytes.Repeat([]byte{0xAA}, 64)).Marshal()
	f := func(pos uint16, bit uint8) bool {
		b := append([]byte(nil), base...)
		b[int(pos)%len(b)] ^= 1 << (bit % 8)
		_, err := Unmarshal(b) // must not panic
		_ = err
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// stale fills a pool with what a busy loop leaves behind: freed packets
// whose metadata and wire fields belong to their last user, and payload
// buffers full of garbage in every class up to the one that fits n.
func stale(pool *bufpool.Pool, junk byte, n int) {
	for i := 0; i < 4; i++ {
		p := NewPacket(pool)
		*p = Packet{
			Src: MustAddr("198.51.100.1"), Dst: MustAddr("198.51.100.2"),
			Proto: ProtoTCP, TTL: junk, TOS: junk, ID: 0xbeef, SrcPort: 7, DstPort: 7,
			Mark: 0xdead, SliceCtx: 0xbeef, InIface: "stale0",
			Payload: bytes.Repeat([]byte{junk}, 64<<i),
		}
		p.Free(pool)
	}
	for c := 64; c <= 1<<16 && c/2 < n; c <<= 1 {
		b := pool.Get(c)
		for i := range b {
			b[i] = junk
		}
		pool.Put(b)
	}
}

// TestRecycledPacketIsClean is the packet analogue of the recycled
// checksum-field bug: a packet drawn from a dirty free list must carry
// nothing of its previous user, whether it is built by hand (NewPacket)
// or decoded (UnmarshalPooled).
func TestRecycledPacketIsClean(t *testing.T) {
	pool := bufpool.New(metrics.NewRegistry())
	stale(pool, 0xa5, 64)
	if p := NewPacket(pool); !reflect.DeepEqual(*p, Packet{}) {
		t.Fatalf("NewPacket from a dirty list = %+v, want the zero packet", *p)
	}
	wire := udpPacket(1000, 2000, []byte("fresh")).Marshal()
	want, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPooled(wire, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !samePacket(got, want) {
		t.Fatalf("UnmarshalPooled from a dirty pool = %+v, want %+v", *got, *want)
	}
}

// samePacket compares every field, payload by content.
func samePacket(a, b *Packet) bool {
	x, y := *a, *b
	x.Payload, y.Payload = nil, nil
	return reflect.DeepEqual(x, y) && bytes.Equal(a.Payload, b.Payload)
}

// FuzzUnmarshalPooled is a differential target: decoding through a pool
// whose packets and buffers are dirty must agree with decoding through
// the allocator (nil pool) on every field and error, and the decoded
// packet must marshal, into a dirty buffer, to the same bytes.
func FuzzUnmarshalPooled(f *testing.F) {
	f.Add(udpPacket(5000, 9000, []byte("seed payload")).Marshal(), byte(0xff))
	f.Add((&Packet{Src: MustAddr("10.0.0.1"), Dst: MustAddr("10.0.0.2"), Proto: ProtoTCP, TTL: 3, TOS: 0x10,
		SrcPort: 22, DstPort: 40000, Payload: bytes.Repeat([]byte{0x7e, 0x7d}, 40)}).Marshal(), byte(0x7e))
	f.Add(NewEchoRequest(MustAddr("10.0.0.1"), MustAddr("10.0.0.2"), 1, 2, []byte("ping")).Marshal(), byte(0))
	f.Add(udpPacket(1, 2, nil).Marshal()[:IPv4HeaderLen+3], byte(1))
	f.Add([]byte{0x46, 0, 0, 24}, byte(2))
	f.Fuzz(func(t *testing.T, b []byte, junk byte) {
		want, werr := Unmarshal(b)
		pool := bufpool.New(metrics.NewRegistry())
		stale(pool, junk, len(b))
		got, gerr := UnmarshalPooled(b, pool)
		if gerr != werr {
			t.Fatalf("error %v through a dirty pool, %v through the allocator", gerr, werr)
		}
		if werr != nil {
			return
		}
		if !samePacket(got, want) {
			t.Fatalf("decoded %+v through a dirty pool, %+v through the allocator", *got, *want)
		}
		wire := want.Marshal()
		dirty := pool.Get(len(wire))
		for i := range dirty {
			dirty[i] = junk
		}
		if again := got.AppendMarshal(dirty[:0]); !bytes.Equal(again, wire) {
			t.Fatalf("marshal into a dirty buffer = %x, want %x", again, wire)
		}
		back, err := Unmarshal(wire)
		if err != nil || !samePacket(back, want) {
			t.Fatalf("round trip = %+v, %v; want %+v", back, err, *want)
		}
	})
}
