package ppp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PPP protocol numbers.
const (
	ProtoIPv4 uint16 = 0x0021
	ProtoLCP  uint16 = 0xc021
	ProtoPAP  uint16 = 0xc023
	ProtoCHAP uint16 = 0xc223
	ProtoIPCP uint16 = 0x8021
)

// Control-protocol packet codes (RFC 1661 §5).
const (
	CodeConfReq    = 1
	CodeConfAck    = 2
	CodeConfNak    = 3
	CodeConfRej    = 4
	CodeTermReq    = 5
	CodeTermAck    = 6
	CodeCodeRej    = 7
	CodeProtRej    = 8
	CodeEchoReq    = 9
	CodeEchoRep    = 10
	CodeDiscardReq = 11
)

// LCP configuration option types.
const (
	OptMRU       = 1
	OptACCM      = 2
	OptAuthProto = 3
	OptMagic     = 5
)

// IPCP configuration option types.
const (
	OptIPAddress = 3
)

// CHAP codes (RFC 1994).
const (
	ChapChallenge = 1
	ChapResponse  = 2
	ChapSuccess   = 3
	ChapFailure   = 4
)

// PAP codes (RFC 1334).
const (
	PapAuthReq = 1
	PapAuthAck = 2
	PapAuthNak = 3
)

// ErrShortPacket reports a truncated control packet or option list.
var ErrShortPacket = errors.New("ppp: short packet")

// ControlPacket is the common LCP/IPCP/PAP/CHAP packet shape.
type ControlPacket struct {
	Code byte
	ID   byte
	Data []byte
}

// Marshal serializes the packet with its length field.
func (p ControlPacket) Marshal() []byte {
	b := make([]byte, 4+len(p.Data))
	b[0] = p.Code
	b[1] = p.ID
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	copy(b[4:], p.Data)
	return b
}

// ParseControl parses a control packet, validating the length field.
func ParseControl(b []byte) (ControlPacket, error) {
	if len(b) < 4 {
		return ControlPacket{}, ErrShortPacket
	}
	n := int(binary.BigEndian.Uint16(b[2:]))
	if n < 4 || n > len(b) {
		return ControlPacket{}, fmt.Errorf("%w: length field %d of %d", ErrShortPacket, n, len(b))
	}
	return ControlPacket{Code: b[0], ID: b[1], Data: append([]byte(nil), b[4:n]...)}, nil
}

// Option is a configuration option (type-length-value).
type Option struct {
	Type byte
	Data []byte
}

// MarshalOptions serializes an option list.
func MarshalOptions(opts []Option) []byte {
	var b []byte
	for _, o := range opts {
		b = append(b, o.Type, byte(len(o.Data)+2))
		b = append(b, o.Data...)
	}
	return b
}

// ParseOptions parses an option list.
func ParseOptions(b []byte) ([]Option, error) {
	var opts []Option
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, ErrShortPacket
		}
		olen := int(b[1])
		if olen < 2 || olen > len(b) {
			return nil, fmt.Errorf("%w: option length %d of %d", ErrShortPacket, olen, len(b))
		}
		opts = append(opts, Option{Type: b[0], Data: append([]byte(nil), b[2:olen]...)})
		b = b[olen:]
	}
	return opts, nil
}

// U16Option builds an option holding a big-endian uint16 (e.g. MRU).
func U16Option(typ byte, v uint16) Option {
	d := make([]byte, 2)
	binary.BigEndian.PutUint16(d, v)
	return Option{Type: typ, Data: d}
}

// U32Option builds an option holding a big-endian uint32 (e.g. magic).
func U32Option(typ byte, v uint32) Option {
	d := make([]byte, 4)
	binary.BigEndian.PutUint32(d, v)
	return Option{Type: typ, Data: d}
}

// EncapsulatePPP prepends the PPP protocol number to an information
// field, producing the payload AppendFrame expects.
func EncapsulatePPP(proto uint16, info []byte) []byte {
	b := make([]byte, 2+len(info))
	binary.BigEndian.PutUint16(b, proto)
	copy(b[2:], info)
	return b
}

// DecapsulatePPP splits a frame payload into protocol and information.
func DecapsulatePPP(b []byte) (proto uint16, info []byte, err error) {
	if len(b) < 2 {
		return 0, nil, ErrShortPacket
	}
	return binary.BigEndian.Uint16(b), b[2:], nil
}
