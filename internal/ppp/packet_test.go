package ppp

import (
	"bytes"
	"net/netip"
	"testing"
)

// FuzzParseControlOptions feeds arbitrary bytes to the LCP/IPCP/PAP/CHAP
// wire parsers: none may panic, and whatever one accepts must marshal
// back to the bytes it was parsed from.
func FuzzParseControlOptions(f *testing.F) {
	lcp := MarshalOptions([]Option{U16Option(OptMRU, 1500), U32Option(OptACCM, 0), U16Option(OptAuthProto, ProtoPAP), U32Option(OptMagic, 0x5a5a1234)})
	ipcp := MarshalOptions([]Option{addrOption(netip.MustParseAddr("10.133.7.2"))})
	for _, p := range []ControlPacket{
		{Code: CodeConfReq, ID: 1, Data: lcp},
		{Code: CodeConfNak, ID: 2, Data: ipcp},
		{Code: CodeEchoReq, ID: 3, Data: []byte{0x5a, 0x5a, 0x12, 0x34}},
		{Code: PapAuthReq, ID: 1, Data: marshalPapRequest(Credentials{User: "onelab", Password: "secret"})},
		{Code: ChapResponse, ID: 7, Data: marshalChapValue(bytes.Repeat([]byte{0xab}, 16), "onelab")},
		{Code: CodeTermAck, ID: 9},
	} {
		f.Add(p.Marshal())
		f.Add(p.Data)
	}
	f.Add([]byte{CodeConfReq, 1, 0, 3})       // length field below the header
	f.Add([]byte{CodeConfReq, 1, 0xff, 0xff}) // length field past the input
	f.Add([]byte{OptMRU, 1})                  // option length below its header
	f.Fuzz(func(t *testing.T, b []byte) {
		if p, err := ParseControl(b); err == nil {
			if got := p.Marshal(); !bytes.Equal(got, b[:len(got)]) {
				t.Fatalf("control packet %x re-marshals to %x", b, got)
			}
			checkOptions(t, p.Data)
		}
		checkOptions(t, b)
		if c, err := parsePapRequest(b); err == nil {
			if got := marshalPapRequest(c); !bytes.HasPrefix(b, got) {
				t.Fatalf("PAP request %x re-marshals to %x", b, got)
			}
		}
		if value, name, err := parseChapValue(b); err == nil {
			if got := marshalChapValue(value, name); !bytes.Equal(got, b) {
				t.Fatalf("CHAP value %x re-marshals to %x", b, got)
			}
		}
	})
}

func checkOptions(t *testing.T, b []byte) {
	t.Helper()
	opts, err := ParseOptions(b)
	if err != nil {
		return
	}
	if got := MarshalOptions(opts); !bytes.Equal(got, b) {
		t.Fatalf("options %x re-marshal to %x", b, got)
	}
}
