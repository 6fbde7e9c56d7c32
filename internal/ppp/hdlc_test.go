package ppp

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/onelab/umtslab/internal/sim"
)

func simNewLoopForFuzz() *sim.Loop { return sim.NewLoop(99) }

// --- Octet-at-a-time reference implementations ---
//
// The production framer works a word or a run at a time. These are the
// RFC 1662 algorithms as written, one octet per step; the tests and fuzz
// targets below hold the production code to them.

// refFCS is the bitwise FCS-16 of RFC 1662, without tables.
func refFCS(fcs uint16, data []byte) uint16 {
	for _, b := range data {
		fcs ^= uint16(b)
		for k := 0; k < 8; k++ {
			if fcs&1 != 0 {
				fcs = (fcs >> 1) ^ 0x8408
			} else {
				fcs >>= 1
			}
		}
	}
	return fcs
}

// refFrame appends body's FCS and wraps the escaped result in flags.
func refFrame(body []byte, escapeCtl bool) []byte {
	fin := ^refFCS(fcsInit, body)
	out := []byte{hdlcFlag}
	for _, b := range append(bytes.Clone(body), byte(fin), byte(fin>>8)) {
		if b == hdlcFlag || b == hdlcEscape || (escapeCtl && b < 0x20) {
			out = append(out, hdlcEscape, b^hdlcXOR)
		} else {
			out = append(out, b)
		}
	}
	return append(out, hdlcFlag)
}

// refEncode is the reference for AppendFrame (escapeCtl) and
// AppendFrameACCM0 into a nil slice.
func refEncode(pppPayload []byte, escapeCtl bool) []byte {
	if len(pppPayload) < 2 {
		return nil
	}
	return refFrame(append([]byte{hdlcAddress, hdlcControl}, pppPayload...), escapeCtl)
}

// refDeframer is the reference for Deframer: one state transition per
// line octet, and the FCS checked over the buffered frame.
type refDeframer struct {
	onFrame    func(pppPayload []byte)
	onFCSError func()

	buf                      []byte
	escaped, inFrame         bool
	frames, fcsErrors, runts uint64
}

func (d *refDeframer) feed(data []byte) error {
	for _, b := range data {
		switch {
		case b == hdlcFlag:
			if d.inFrame && len(d.buf) > 0 {
				d.finish()
			}
			d.inFrame = true
			d.escaped = false
			d.buf = d.buf[:0]
		case !d.inFrame:
		case b == hdlcEscape:
			d.escaped = true
		default:
			if d.escaped {
				b ^= hdlcXOR
				d.escaped = false
			}
			d.buf = append(d.buf, b)
			if len(d.buf) > maxFrame {
				d.buf = d.buf[:0]
				d.inFrame = false
				return ErrOversizedFrame
			}
		}
	}
	return nil
}

func (d *refDeframer) finish() {
	switch {
	case len(d.buf) < 6:
		d.runts++
	case refFCS(fcsInit, d.buf) != fcsGood:
		d.fcsErrors++
		d.onFCSError()
	case d.buf[0] != hdlcAddress || d.buf[1] != hdlcControl:
		d.runts++
	default:
		d.frames++
		d.onFrame(d.buf[2 : len(d.buf)-2])
	}
}

func TestFCSKnownVector(t *testing.T) {
	// CRC-16/X-25 check value: FCS("123456789") = 0x906e.
	if got := ^fcs16(fcsInit, []byte("123456789")); got != 0x906e {
		t.Fatalf("FCS = %#04x, want 0x906e", got)
	}
}

func TestFCSGoodResidue(t *testing.T) {
	data := []byte("any old frame content")
	fcs := ^fcs16(fcsInit, data)
	framed := append(append([]byte(nil), data...), byte(fcs&0xff), byte(fcs>>8))
	if fcs16(fcsInit, framed) != fcsGood {
		t.Fatal("appending the FCS must leave the good residue")
	}
}

// TestFCSMatchesBitwise holds the table-sliced FCS to the bitwise one
// across every tail length and alignment, over a long buffer, and when
// the FCS is carried across a split at any point.
func TestFCSMatchesBitwise(t *testing.T) {
	buf := make([]byte, 4096)
	rand.New(rand.NewSource(16)).Read(buf)
	for off := 0; off < 8; off++ {
		for n := 0; n <= 64; n++ {
			data := buf[off : off+n]
			if got, want := fcs16(fcsInit, data), refFCS(fcsInit, data); got != want {
				t.Fatalf("offset %d, length %d: fcs16 = %#04x, want %#04x", off, n, got, want)
			}
		}
	}
	want := refFCS(fcsInit, buf)
	if got := fcs16(fcsInit, buf); got != want {
		t.Fatalf("4 KiB buffer: fcs16 = %#04x, want %#04x", got, want)
	}
	for i := range len(buf) + 1 {
		if got := fcs16(fcs16(fcsInit, buf[:i]), buf[i:]); got != want {
			t.Fatalf("split at %d: fcs16 = %#04x, want %#04x", i, got, want)
		}
	}
}

func deframeAll(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	d := Deframer{OnFrame: func(p []byte) { frames = append(frames, p) }}
	if err := d.Feed(stream); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	return frames
}

func TestEncodeDeframeRoundtrip(t *testing.T) {
	payload := EncapsulatePPP(ProtoLCP, []byte{1, 2, 0, 8, 0xde, 0xad, 0xbe, 0xef})
	frames := deframeAll(t, AppendFrame(nil, payload))
	if len(frames) != 1 || !bytes.Equal(frames[0], payload) {
		t.Fatalf("roundtrip failed: %x", frames)
	}
}

func TestEscapingOfControlBytes(t *testing.T) {
	// Payload containing flag, escape, and low control bytes.
	payload := []byte{0x00, 0x21, hdlcFlag, hdlcEscape, 0x00, 0x1f, 0x20, 0x7f}
	wire := AppendFrame(nil, payload)
	// Between the framing flags there must be no raw flag/escape/ctl bytes.
	inner := wire[1 : len(wire)-1]
	for i := 0; i < len(inner); i++ {
		if inner[i] == hdlcFlag {
			t.Fatalf("unescaped flag byte at %d", i)
		}
		if inner[i] == hdlcEscape {
			i++ // next byte is the escaped value
			continue
		}
		if inner[i] < 0x20 {
			t.Fatalf("unescaped control byte %#02x at %d", inner[i], i)
		}
	}
	frames := deframeAll(t, wire)
	if len(frames) != 1 || !bytes.Equal(frames[0], payload) {
		t.Fatalf("roundtrip failed: %x", frames)
	}
}

func TestDeframerSplitDelivery(t *testing.T) {
	payload := EncapsulatePPP(ProtoIPv4, bytes.Repeat([]byte{0x7e, 0x7d, 0x03, 0xaa}, 50))
	wire := AppendFrame(nil, payload)
	var frames [][]byte
	d := Deframer{OnFrame: func(p []byte) { frames = append(frames, p) }}
	// Feed one byte at a time.
	for _, b := range wire {
		d.Feed([]byte{b})
	}
	if len(frames) != 1 || !bytes.Equal(frames[0], payload) {
		t.Fatal("byte-at-a-time deframing failed")
	}
}

func TestDeframerBackToBackFrames(t *testing.T) {
	p1 := EncapsulatePPP(ProtoLCP, []byte{9, 1, 0, 4})
	p2 := EncapsulatePPP(ProtoIPCP, []byte{1, 1, 0, 4})
	stream := append(AppendFrame(nil, p1), AppendFrame(nil, p2)...)
	frames := deframeAll(t, stream)
	if len(frames) != 2 || !bytes.Equal(frames[0], p1) || !bytes.Equal(frames[1], p2) {
		t.Fatalf("got %d frames", len(frames))
	}
}

func TestDeframerSharedFlag(t *testing.T) {
	// A single flag may terminate one frame and open the next.
	p1 := EncapsulatePPP(ProtoLCP, []byte{9, 1, 0, 4})
	p2 := EncapsulatePPP(ProtoLCP, []byte{10, 1, 0, 4})
	w1 := AppendFrame(nil, p1)
	w2 := AppendFrame(nil, p2)
	stream := append(w1, w2[1:]...) // drop the opening flag of frame 2
	frames := deframeAll(t, stream)
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(frames))
	}
}

func TestDeframerFCSError(t *testing.T) {
	payload := EncapsulatePPP(ProtoLCP, []byte{1, 1, 0, 4})
	wire := AppendFrame(nil, payload)
	wire[3] ^= 0x01 // corrupt a payload byte
	var d Deframer
	d.OnFrame = func(p []byte) { t.Fatal("corrupted frame delivered") }
	d.Feed(wire)
	if d.FCSErrors != 1 {
		t.Fatalf("FCSErrors = %d, want 1", d.FCSErrors)
	}
}

func TestDeframerIgnoresInterFrameNoise(t *testing.T) {
	payload := EncapsulatePPP(ProtoLCP, []byte{1, 1, 0, 4})
	stream := append([]byte("\r\nCONNECT 3600000\r\n"), AppendFrame(nil, payload)...)
	frames := deframeAll(t, stream)
	if len(frames) != 1 {
		t.Fatalf("got %d frames, want 1 (noise must be skipped)", len(frames))
	}
}

func TestDeframerRunt(t *testing.T) {
	var d Deframer
	d.OnFrame = func(p []byte) { t.Fatal("runt delivered") }
	d.Feed([]byte{hdlcFlag, 0xff, 0x03, 0x01, hdlcFlag})
	if d.Runts != 1 {
		t.Fatalf("Runts = %d, want 1", d.Runts)
	}
}

func TestDeframerOversized(t *testing.T) {
	var d Deframer
	stream := append([]byte{hdlcFlag}, bytes.Repeat([]byte{0xaa}, maxFrame+10)...)
	if err := d.Feed(stream); err != ErrOversizedFrame {
		t.Fatalf("err = %v, want ErrOversizedFrame", err)
	}
	// Recovery: a valid frame afterwards is still decoded.
	payload := EncapsulatePPP(ProtoLCP, []byte{1, 1, 0, 4})
	got := 0
	d.OnFrame = func(p []byte) { got++ }
	d.Feed(AppendFrame(nil, payload))
	if got != 1 {
		t.Fatal("deframer did not recover after oversized frame")
	}
}

// Property: AppendFrame/Deframer round-trip arbitrary payloads, including
// every byte value.
func TestPropertyHDLCRoundtrip(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) < 4 {
			payload = append(payload, 0, 0, 0, 0)
		}
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		var got [][]byte
		d := Deframer{OnFrame: func(p []byte) { got = append(got, p) }}
		if err := d.Feed(AppendFrame(nil, payload)); err != nil {
			return false
		}
		return len(got) == 1 && bytes.Equal(got[0], payload)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: random single-byte corruption is never delivered as a valid
// frame with different content (FCS catches it) — or is detected as a
// framing anomaly. It must never panic.
func TestPropertyHDLCCorruption(t *testing.T) {
	payload := EncapsulatePPP(ProtoIPv4, bytes.Repeat([]byte{0x55}, 100))
	wire := AppendFrame(nil, payload)
	f := func(pos uint16, bit uint8) bool {
		w := append([]byte(nil), wire...)
		w[int(pos)%len(w)] ^= 1 << (bit % 8)
		ok := true
		d := Deframer{OnFrame: func(p []byte) {
			// If a frame is delivered it must be the original payload
			// (corruption of framing bytes can still yield the frame).
			if !bytes.Equal(p, payload) {
				ok = false
			}
		}}
		d.Feed(w)
		d.Feed([]byte{hdlcFlag}) // flush a possibly unterminated frame
		return ok
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// itgShapedIPv4 is a 1,052-byte datagram shaped like the paper's 1 Mbps
// ITG traffic: a 16-byte header, then zero padding.
func itgShapedIPv4() []byte {
	ip := make([]byte, 1052)
	copy(ip, []byte{0x45, 0x00, 0x04, 0x1c, 0x00, 0x2a, 0x00, 0x00, 0x40, 0x11, 0x5c, 0x3b, 0x0a, 0x85, 0x07, 0x2a})
	return ip
}

// hdlcSeedPayloads are PPP payloads (protocol + information) of the kinds
// the link carries: LCP, IPCP and CHAP control packets, and IPv4
// datagrams, some dense with flag and escape octets.
func hdlcSeedPayloads() [][]byte {
	lcp := ControlPacket{Code: CodeConfReq, ID: 1, Data: MarshalOptions([]Option{
		U16Option(OptMRU, 1500), U32Option(OptACCM, 0), U32Option(OptMagic, 0x7e7d2001),
	})}
	ipcp := ControlPacket{Code: CodeConfNak, ID: 2, Data: MarshalOptions([]Option{
		{Type: OptIPAddress, Data: []byte{10, 133, 7, 42}},
	})}
	chap := ControlPacket{Code: ChapChallenge, ID: 3,
		Data: marshalChapValue(bytes.Repeat([]byte{0x7d, 0x11, 0x7e, 0x00}, 4), "nas")}
	return [][]byte{
		EncapsulatePPP(ProtoLCP, lcp.Marshal()),
		EncapsulatePPP(ProtoIPCP, ipcp.Marshal()),
		EncapsulatePPP(ProtoCHAP, chap.Marshal()),
		EncapsulatePPP(ProtoLCP, []byte{0x00, 0x01, 0x7e, 0x7d, 0x1f, 0x20, 0xff}),
		EncapsulatePPP(ProtoIPv4, []byte{}),
		EncapsulatePPP(ProtoIPv4, []byte("plain ascii payload")),
		EncapsulatePPP(ProtoIPv4, bytes.Repeat([]byte{0x7e, 0x7d, 0x03, 0xaa}, 64)),
		EncapsulatePPP(ProtoIPv4, bytes.Repeat([]byte{0x7e}, 64)),
		EncapsulatePPP(ProtoIPv4, itgShapedIPv4()),
		EncapsulatePPP(ProtoCHAP, bytes.Repeat([]byte{0x00}, 300)),
	}
}

// FuzzAppendFrame holds both encoders to the reference byte for byte,
// checks that they leave what dst already holds alone, and round-trips
// every frame through a Deframer.
func FuzzAppendFrame(f *testing.F) {
	for _, p := range hdlcSeedPayloads() {
		f.Add(p)
	}
	f.Add([]byte{0xc0}) // shorter than the protocol field: no frame
	f.Fuzz(func(t *testing.T, p []byte) {
		for _, escapeCtl := range []bool{true, false} {
			encode := AppendFrameACCM0
			if escapeCtl {
				encode = AppendFrame
			}
			want := refEncode(p, escapeCtl)
			if got := encode(nil, p); !bytes.Equal(got, want) {
				t.Fatalf("escapeCtl=%v: frame\n got %x\nwant %x", escapeCtl, got, want)
			}
			prefix := []byte("prefix")
			if got := encode(bytes.Clone(prefix), p); !bytes.Equal(got, append(prefix, want...)) {
				t.Fatalf("escapeCtl=%v: appending after a prefix\n got %x\nwant %s%x", escapeCtl, got, prefix, want)
			}
			if len(p) < 2 {
				continue
			}
			var frames [][]byte
			d := Deframer{Borrow: true, OnFrame: func(b []byte) { frames = append(frames, bytes.Clone(b)) }}
			err := d.Feed(want)
			if len(p)+4 > maxFrame {
				if err != ErrOversizedFrame || len(frames) != 0 {
					t.Fatalf("escapeCtl=%v: %d-byte payload gave %v and %d frames, want ErrOversizedFrame", escapeCtl, len(p), err, len(frames))
				}
				continue
			}
			if err != nil || len(frames) != 1 || !bytes.Equal(frames[0], p) || d.FCSErrors != 0 || d.Runts != 0 {
				t.Fatalf("escapeCtl=%v: round trip gave %x (err %v, %d FCS errors, %d runts), want %x",
					escapeCtl, frames, err, d.FCSErrors, d.Runts, p)
			}
		}
	})
}

// splitChunks cuts stream into chunks whose lengths are the octets of
// cuts (empty chunks included); what is left is the last chunk.
func splitChunks(stream, cuts []byte) [][]byte {
	var chunks [][]byte
	for _, c := range cuts {
		n := min(int(c), len(stream))
		chunks = append(chunks, stream[:n])
		stream = stream[n:]
	}
	return append(chunks, stream)
}

// FuzzDeframerFeed feeds fuzz bytes, cut into fuzz-chosen chunks, to the
// Deframer and to the reference, in both Borrow modes, and requires the
// same frames, FCS-error calls, Feed errors and counters.
func FuzzDeframerFeed(f *testing.F) {
	var wires [][]byte
	for _, p := range hdlcSeedPayloads() {
		wires = append(wires, AppendFrame(nil, p), AppendFrameACCM0(nil, p))
	}
	for _, w := range wires {
		f.Add(w, []byte(nil))
		if i := bytes.IndexByte(w, hdlcEscape); i >= 0 && i < 255 {
			f.Add(w, []byte{byte(i + 1)}) // split between escape and escaped octet
		}
		if len(w) < 64 {
			f.Add(w, bytes.Repeat([]byte{1}, len(w)))
		}
	}
	noisy := []byte("\r\nCONNECT 3600000\r\n")
	for _, w := range wires {
		noisy = append(noisy, w...)
	}
	f.Add(noisy, []byte{7, 0, 200, 3})
	shared := append(bytes.Clone(wires[0]), wires[2][1:]...)
	f.Add(shared, []byte(nil))
	corrupt := bytes.Clone(wires[1])
	corrupt[3] ^= 0x01
	f.Add(corrupt, []byte(nil))
	f.Add([]byte{hdlcFlag, 0xff, 0x03, 0x01, hdlcFlag}, []byte(nil))              // runt
	f.Add(refFrame([]byte{0x00, 0x03, 0xc0, 0x21, 1, 2}, true), []byte(nil))      // wrong address
	f.Add([]byte{hdlcFlag, hdlcEscape, hdlcEscape, 0x41, hdlcFlag}, []byte{1, 1}) // escape restarts
	f.Add([]byte{hdlcFlag, 0xff, hdlcEscape, hdlcFlag, hdlcEscape}, []byte(nil))  // escape then flag
	f.Add(append([]byte{hdlcFlag, hdlcEscape}, wires[1]...), []byte{2})           // the flag cancels the escape
	for k := range 4 {
		// A frame whose first octet is escaped, cut right after the escape.
		f.Add(refFrame([]byte{hdlcFlag, byte(k), 0xc0, 0x21, 1, 2}, false), []byte{2})
	}
	dense := AppendFrameACCM0(nil, EncapsulatePPP(ProtoIPv4, bytes.Repeat([]byte{hdlcFlag}, 64)))
	i := bytes.IndexByte(dense, hdlcEscape)
	f.Add(append(append(bytes.Clone(dense[:i]), hdlcEscape), dense[i:]...), []byte(nil)) // a doubled escape
	for _, n := range []int{maxFrame, maxFrame + 1} {
		f.Add(append(append([]byte{hdlcFlag}, bytes.Repeat([]byte{0xaa}, n)...), hdlcFlag), []byte(nil))
	}
	f.Add(append(append([]byte{hdlcFlag}, bytes.Repeat([]byte{0xaa}, maxFrame+10)...), wires[0]...), []byte(nil))
	f.Add(append(append([]byte{hdlcFlag}, bytes.Repeat([]byte{hdlcEscape, 0x5e}, maxFrame/2+4)...), wires[1]...), []byte{255})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		for _, borrow := range []bool{false, true} {
			checkDeframerMatchesReference(t, splitChunks(stream, cuts), borrow)
		}
	})
}

func checkDeframerMatchesReference(t *testing.T, chunks [][]byte, borrow bool) {
	t.Helper()
	var want, got []string
	ref := refDeframer{
		onFrame:    func(p []byte) { want = append(want, fmt.Sprintf("frame %x", p)) },
		onFCSError: func() { want = append(want, "FCS error") },
	}
	var owned [][]byte // payloads handed out without Borrow
	d := Deframer{
		Borrow: borrow,
		OnFrame: func(p []byte) {
			got = append(got, fmt.Sprintf("frame %x", p))
			if !borrow {
				owned = append(owned, p)
			}
		},
		OnFCSError: func() { got = append(got, "FCS error") },
	}
	for i, c := range chunks {
		want = append(want, fmt.Sprintf("feed %d: %v", i, ref.feed(c)))
		line := bytes.Clone(c)
		got = append(got, fmt.Sprintf("feed %d: %v", i, d.Feed(line)))
		for j := range line {
			line[j] = ^line[j] // the chunk belongs to the caller again
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Borrow=%v: events\n got %q\nwant %q", borrow, got, want)
	}
	if d.Frames != ref.frames || d.FCSErrors != ref.fcsErrors || d.Runts != ref.runts {
		t.Fatalf("Borrow=%v: frames/FCS errors/runts = %d/%d/%d, want %d/%d/%d", borrow,
			d.Frames, d.FCSErrors, d.Runts, ref.frames, ref.fcsErrors, ref.runts)
	}
	k := 0
	for _, e := range want {
		if strings.HasPrefix(e, "frame ") {
			if !borrow && fmt.Sprintf("frame %x", owned[k]) != e {
				t.Fatalf("payload %d changed after Feed returned; without Borrow it must be a copy", k)
			}
			k++
		}
	}
}

func TestOptionCodecRoundtrip(t *testing.T) {
	opts := []Option{
		U16Option(OptMRU, 1500),
		U32Option(OptMagic, 0xdeadbeef),
		{Type: OptAuthProto, Data: []byte{0xc2, 0x23, 0x05}},
	}
	parsed, err := ParseOptions(MarshalOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 3 {
		t.Fatalf("parsed %d options", len(parsed))
	}
	for i := range opts {
		if parsed[i].Type != opts[i].Type || !bytes.Equal(parsed[i].Data, opts[i].Data) {
			t.Fatalf("option %d mismatch", i)
		}
	}
}

func TestParseOptionsMalformed(t *testing.T) {
	for _, bad := range [][]byte{{1}, {1, 1}, {1, 9, 0}} {
		if _, err := ParseOptions(bad); err == nil {
			t.Fatalf("ParseOptions(%v) should fail", bad)
		}
	}
}

func TestControlPacketCodec(t *testing.T) {
	p := ControlPacket{Code: CodeConfReq, ID: 7, Data: []byte{1, 4, 5, 220}}
	got, err := ParseControl(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != p.Code || got.ID != p.ID || !bytes.Equal(got.Data, p.Data) {
		t.Fatalf("roundtrip: %+v vs %+v", got, p)
	}
}

func TestParseControlMalformed(t *testing.T) {
	if _, err := ParseControl([]byte{1, 2, 0}); err == nil {
		t.Fatal("short packet should fail")
	}
	if _, err := ParseControl([]byte{1, 2, 0, 99}); err == nil {
		t.Fatal("bad length field should fail")
	}
	// Length smaller than header.
	if _, err := ParseControl([]byte{1, 2, 0, 2}); err == nil {
		t.Fatal("undersized length field should fail")
	}
}

func TestChapValueCodec(t *testing.T) {
	v, name, err := parseChapValue(marshalChapValue([]byte{1, 2, 3}, "operator"))
	if err != nil || !bytes.Equal(v, []byte{1, 2, 3}) || name != "operator" {
		t.Fatalf("chap value roundtrip: %v %q %v", v, name, err)
	}
	if _, _, err := parseChapValue(nil); err == nil {
		t.Fatal("empty chap value should fail")
	}
	if _, _, err := parseChapValue([]byte{10, 1, 2}); err == nil {
		t.Fatal("short chap value should fail")
	}
}

func TestPapRequestCodec(t *testing.T) {
	c := Credentials{User: "onelab", Password: "secret!"}
	got, err := parsePapRequest(marshalPapRequest(c))
	if err != nil || got != c {
		t.Fatalf("pap roundtrip: %+v %v", got, err)
	}
	for _, bad := range [][]byte{nil, {5, 'a'}, {1, 'a', 9, 'x'}} {
		if _, err := parsePapRequest(bad); err == nil {
			t.Fatalf("parsePapRequest(%v) should fail", bad)
		}
	}
}

func TestChapHashVerify(t *testing.T) {
	ch := []byte("challenge-bytes")
	h := chapHash(7, "s3cret", ch)
	if !chapVerify(7, "s3cret", ch, h) {
		t.Fatal("verify of own hash failed")
	}
	if chapVerify(8, "s3cret", ch, h) {
		t.Fatal("different id must not verify")
	}
	if chapVerify(7, "other", ch, h) {
		t.Fatal("different secret must not verify")
	}
}

// Property: the control-protocol automaton survives arbitrary byte blobs
// presented as control packets (fuzzing the parser + state machine).
func TestPropertyAutomatonRobust(t *testing.T) {
	f := func(blobs [][]byte) bool {
		loop := simNewLoopForFuzz()
		a := newAutomaton(automatonConfig{
			Name: "fuzz", Proto: ProtoLCP, Loop: loop,
			Send:   func(uint16, ControlPacket) {},
			Policy: &lcpPolicy{mru: 1500, localACCM0: true},
		})
		a.Open()
		a.Up()
		for _, b := range blobs {
			p, err := ParseControl(b)
			if err != nil {
				continue
			}
			a.Input(p) // must not panic
		}
		loop.RunUntil(loop.Now() + 120e9)
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(15))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHDLC frames and deframes an ITG-shaped IPv4 datagram under
// both ACCMs. ACCM 0 is what every data frame uses once LCP is open;
// the default map is what LCP and pre-LCP traffic uses.
func BenchmarkHDLC(b *testing.B) {
	payload := EncapsulatePPP(ProtoIPv4, itgShapedIPv4())
	for _, accm := range []struct {
		name   string
		encode func(dst, pppPayload []byte) []byte
	}{{"accm-default", AppendFrame}, {"accm0", AppendFrameACCM0}} {
		wire := accm.encode(nil, payload)
		b.Run(accm.name+"/frame", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			buf := make([]byte, 0, 2*len(payload)+16)
			for i := 0; i < b.N; i++ {
				buf = accm.encode(buf[:0], payload)
			}
		})
		b.Run(accm.name+"/deframe", func(b *testing.B) {
			d := Deframer{Borrow: true, OnFrame: func([]byte) {}}
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if err := d.Feed(wire); err != nil {
					b.Fatal(err)
				}
			}
			if d.Frames != uint64(b.N) {
				b.Fatalf("%d of %d frames delivered", d.Frames, b.N)
			}
		})
	}
}
