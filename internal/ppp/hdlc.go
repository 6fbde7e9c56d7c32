// Package ppp implements the Point-to-Point Protocol suite used to bring
// up the UMTS data connection: HDLC-like framing (RFC 1662), the LCP and
// IPCP control protocols (RFC 1661/1332), and PAP/CHAP authentication
// (RFC 1334/1994). A Client speaks to a Server over any byte channel —
// in the testbed, the serial line to the 3G modem, which relays bytes over
// the simulated radio link to the operator's GGSN.
package ppp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
)

// HDLC framing constants (RFC 1662).
const (
	hdlcFlag    = 0x7e
	hdlcEscape  = 0x7d
	hdlcXOR     = 0x20
	hdlcAddress = 0xff // all-stations
	hdlcControl = 0x03 // unnumbered information
)

// fcsInit and fcsGood are the FCS-16 start value and the residue left by
// a frame whose trailing FCS is correct.
const (
	fcsInit = 0xffff
	fcsGood = 0xf0b8
)

// fcsTables drives the slicing-by-16 FCS. fcsTables[0] is the CCITT
// CRC-16 table with the reversed polynomial 0x8408, as specified by
// RFC 1662 appendix C; fcsTables[k][b] is the FCS contribution of octet b
// followed by k zero octets, so sixteen independent lookups fold sixteen
// octets. It measured faster than slicing-by-8 on 1 KB frames.
var fcsTables [16][256]uint16

// escCtl marks the octets escaped under the default async control
// character map: everything below 0x20, plus the flag and escape octets.
var escCtl [256]bool

func init() {
	for i := range fcsTables[0] {
		v := uint16(i)
		for b := 0; b < 8; b++ {
			if v&1 != 0 {
				v = (v >> 1) ^ 0x8408
			} else {
				v >>= 1
			}
		}
		fcsTables[0][i] = v
	}
	for k := 1; k < len(fcsTables); k++ {
		for i, v := range fcsTables[k-1] {
			fcsTables[k][i] = (v >> 8) ^ fcsTables[0][byte(v)]
		}
	}
	for i := range escCtl {
		escCtl[i] = i < 0x20 || i == hdlcFlag || i == hdlcEscape
	}
}

// fcs16 updates the running FCS with data.
func fcs16(fcs uint16, data []byte) uint16 {
	t := &fcsTables
	for len(data) >= 16 {
		v := binary.LittleEndian.Uint64(data) ^ uint64(fcs)
		w := binary.LittleEndian.Uint64(data[8:])
		fcs = t[15][byte(v)] ^ t[14][byte(v>>8)] ^ t[13][byte(v>>16)] ^ t[12][byte(v>>24)] ^
			t[11][byte(v>>32)] ^ t[10][byte(v>>40)] ^ t[9][byte(v>>48)] ^ t[8][byte(v>>56)] ^
			t[7][byte(w)] ^ t[6][byte(w>>8)] ^ t[5][byte(w>>16)] ^ t[4][byte(w>>24)] ^
			t[3][byte(w>>32)] ^ t[2][byte(w>>40)] ^ t[1][byte(w>>48)] ^ t[0][byte(w>>56)]
		data = data[16:]
	}
	for _, b := range data {
		fcs = (fcs >> 8) ^ t[0][byte(fcs)^b]
	}
	return fcs
}

// AppendFrame wraps a PPP packet (protocol + information) into an HDLC
// frame appended to dst (which may be an empty slice of a recycled
// buffer), returning the extended slice. It uses the default async
// control character map: every octet below 0x20 is escaped. LCP traffic
// always uses this form (RFC 1662 §7).
func AppendFrame(dst, pppPayload []byte) []byte {
	return appendFrame(dst, pppPayload, true)
}

// AppendFrameACCM0 appends a frame encoded under a negotiated ACCM of
// zero: only the flag and escape octets themselves are escaped. Data
// traffic switches to this once LCP has opened, roughly halving the
// on-wire size of zero-padded payloads — without this negotiation a
// 72 kbps VoIP flow would not fit the initial UMTS bearer.
func AppendFrameACCM0(dst, pppPayload []byte) []byte {
	return appendFrame(dst, pppPayload, false)
}

func appendFrame(dst, pppPayload []byte, escapeCtl bool) []byte {
	if len(pppPayload) < 2 {
		return dst
	}
	proto := uint16(pppPayload[0])<<8 | uint16(pppPayload[1])
	return appendFrameProto(dst, proto, pppPayload[2:], escapeCtl)
}

// appendFrameProto frames header+info, splicing the protocol field in
// front of info so callers need no EncapsulatePPP copy. The FCS covers
// the raw octets; escaping is a separate pass.
//
// The worst-case encoded size (every octet escaped) is
// 2*(len(info)+6)+2 bytes: address, control, protocol, FCS and both
// flags on top of the information field. dst is grown to that once.
func appendFrameProto(dst []byte, proto uint16, info []byte, escapeCtl bool) []byte {
	hdr := [4]byte{hdlcAddress, hdlcControl, byte(proto >> 8), byte(proto)}
	// The FCS octets are escaped like data but do not update the FCS.
	fin := ^fcs16(fcs16(fcsInit, hdr[:]), info)
	fcs := [2]byte{byte(fin), byte(fin >> 8)}
	dst = slices.Grow(dst, 2*(len(info)+6)+2)
	dst = append(dst, hdlcFlag)
	if escapeCtl {
		dst = appendEscapedCtl(dst, hdr[:])
		dst = appendEscapedCtl(dst, info)
		dst = appendEscapedCtl(dst, fcs[:])
	} else {
		dst = appendEscapedRuns(dst, hdr[:])
		dst = appendEscapedRuns(dst, info)
		dst = appendEscapedRuns(dst, fcs[:])
	}
	return append(dst, hdlcFlag)
}

// appendEscapedCtl appends src escaped under the default ACCM, filling
// dst through an index after growing it once to the worst case.
func appendEscapedCtl(dst, src []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 2*len(src))[:n+2*len(src)]
	for _, b := range src {
		if escCtl[b] {
			dst[n] = hdlcEscape
			dst[n+1] = b ^ hdlcXOR
			n += 2
		} else {
			dst[n] = b
			n++
		}
	}
	return dst[:n]
}

// appendEscapedRuns appends src escaped under ACCM 0, where only flag
// and escape octets need escaping: the runs between them are copied in
// bulk. The positions of the next flag and the next escape are both
// kept, and only the one just consumed is searched for again, so the
// total work stays linear in len(src).
func appendEscapedRuns(dst, src []byte) []byte {
	flag, esc := indexOrLen(src, hdlcFlag), indexOrLen(src, hdlcEscape)
	for {
		i := min(flag, esc)
		if i == len(src) {
			return append(dst, src...)
		}
		dst = append(dst, src[:i]...)
		dst = append(dst, hdlcEscape, src[i]^hdlcXOR)
		src = src[i+1:]
		flag, esc = flag-(i+1), esc-(i+1)
		if flag < 0 {
			flag = indexOrLen(src, hdlcFlag)
		} else {
			esc = indexOrLen(src, hdlcEscape)
		}
	}
}

// indexOrLen is bytes.IndexByte with len(b) standing for "absent", which
// stays correct when b is resliced from the front by the same amount.
func indexOrLen(b []byte, c byte) int {
	if i := bytes.IndexByte(b, c); i >= 0 {
		return i
	}
	return len(b)
}

// Deframer is a streaming HDLC decoder: feed it arbitrary byte chunks and
// it emits complete, FCS-verified PPP payloads.
type Deframer struct {
	// OnFrame receives each valid frame's PPP payload (protocol +
	// information, without address/control/FCS).
	OnFrame func(pppPayload []byte)
	// OnFCSError, if set, is invoked for each frame discarded on an FCS
	// mismatch (observability hook; the frame is dropped either way).
	OnFCSError func()
	// Borrow makes OnFrame receive a borrowed slice instead of a fresh
	// copy: of the deframer's internal buffer, or — when a whole frame
	// without escapes arrives in one chunk — of the chunk passed to
	// Feed itself. The payload is only valid for the duration of the
	// callback; handlers that keep the bytes must copy. The PPP link
	// layer sets this — all its protocol handlers consume frames
	// synchronously — to keep the receive path allocation- and
	// copy-free.
	Borrow bool

	buf     []byte
	escaped bool
	inFrame bool

	// Stats.
	Frames    uint64
	FCSErrors uint64
	Runts     uint64
}

// ErrOversizedFrame guards against unbounded buffering on a corrupted
// stream.
var ErrOversizedFrame = errors.New("ppp: oversized HDLC frame")

// maxFrame bounds the accumulated frame size (MRU 1500 + headers, with
// generous slack).
const maxFrame = 4096

// Feed consumes a chunk of line bytes, one flag-delimited segment at a
// time. Every ByteChannel write carries exactly one frame, so a chunk
// normally holds a whole frame: when it has no escapes and nothing is
// buffered, the frame is checked and delivered in place. Anything else
// is unescaped run by run into the frame buffer. On ErrOversizedFrame
// the rest of the chunk is dropped.
func (d *Deframer) Feed(data []byte) error {
	for len(data) > 0 {
		i := bytes.IndexByte(data, hdlcFlag)
		if i < 0 {
			if d.inFrame {
				return d.unescape(data)
			}
			return nil
		}
		switch seg := data[:i]; {
		case !d.inFrame:
			// Inter-frame noise (e.g. modem "CONNECT" text) is ignored.
		case len(d.buf) == 0 && !d.escaped && len(seg) <= maxFrame &&
			bytes.IndexByte(seg, hdlcEscape) < 0:
			if len(seg) > 0 {
				d.finish(seg)
			}
		default:
			if err := d.unescape(seg); err != nil {
				return err
			}
			if len(d.buf) > 0 {
				d.finish(d.buf)
			}
		}
		// The flag closes the current frame and opens the next.
		d.inFrame, d.escaped, d.buf = true, false, d.buf[:0]
		data = data[i+1:]
	}
	return nil
}

// unescape appends a flag-free segment to the frame buffer through an
// index, copying runs of plain octets in bulk. An escape octet directly
// after another one restarts the escape, so the first is dropped.
//
// Each line octet yields at most one frame octet, so the segment is
// taken in pieces of the room left below maxFrame plus one: the buffer
// never holds more than maxFrame+1 octets, and it crosses maxFrame
// exactly when octet-wise decoding would. Crossing it drops the partial
// frame and leaves the deframer hunting for the next flag.
func (d *Deframer) unescape(seg []byte) error {
	esc := d.escaped
	for len(seg) > 0 {
		piece := seg[:min(len(seg), maxFrame+1-len(d.buf))]
		seg = seg[len(piece):]
		n := len(d.buf)
		out := slices.Grow(d.buf, len(piece))[:n+len(piece)]
		for i := 0; i < len(piece); {
			switch b := piece[i]; {
			case b == hdlcEscape:
				esc = true
				i++
			case esc:
				out[n] = b ^ hdlcXOR
				esc = false
				n++
				i++
			default:
				j := indexOrLen(piece[i:], hdlcEscape)
				n += copy(out[n:], piece[i:i+j])
				i += j
			}
		}
		d.buf = out[:n]
		if n > maxFrame {
			d.buf = d.buf[:0]
			d.inFrame = false
			return ErrOversizedFrame
		}
	}
	d.escaped = esc
	return nil
}

// finish checks and delivers one unescaped frame (address through FCS).
func (d *Deframer) finish(frame []byte) {
	// Minimum frame: address + control + protocol(2) + FCS(2).
	if len(frame) < 6 {
		d.Runts++
		return
	}
	if fcs16(fcsInit, frame) != fcsGood {
		d.FCSErrors++
		if d.OnFCSError != nil {
			d.OnFCSError()
		}
		return
	}
	payload := frame[:len(frame)-2] // strip FCS
	if payload[0] != hdlcAddress || payload[1] != hdlcControl {
		// Address/control field compression is not negotiated; frames
		// without the expected header are discarded.
		d.Runts++
		return
	}
	d.Frames++
	if d.OnFrame != nil {
		if d.Borrow {
			d.OnFrame(payload[2:])
		} else {
			d.OnFrame(append([]byte(nil), payload[2:]...))
		}
	}
}
