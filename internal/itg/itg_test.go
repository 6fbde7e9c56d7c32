package itg

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
)

// --- distributions ---

func sampleMean(t *testing.T, d Distribution, n int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	return sum / float64(n)
}

func TestDistributionMeans(t *testing.T) {
	cases := []struct {
		d    Distribution
		mean float64
		tol  float64
	}{
		{Constant{1024}, 1024, 0},
		{Uniform{500, 1500}, 1000, 20},
		{Exponential{0.01}, 0.01, 0.001},
		{Normal{512, 10}, 512, 2},
		{Weibull{2, 100}, 100 * math.Gamma(1.5), 3},
		// Pareto mean = shape*scale/(shape-1) for shape > 1.
		{Pareto{3, 200}, 300, 10},
	}
	for _, c := range cases {
		got := sampleMean(t, c.d, 50000)
		if math.Abs(got-c.mean) > c.tol {
			t.Errorf("%s: mean %v, want %v ± %v", c.d, got, c.mean, c.tol)
		}
	}
}

func TestDistributionBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := Uniform{500, 1500}
	n := Normal{10, 100} // frequently negative before truncation
	c := Cauchy{5, 50}   // heavy tails both ways before truncation
	for i := 0; i < 20000; i++ {
		if v := u.Sample(rng); v < 500 || v >= 1500 {
			t.Fatalf("uniform out of range: %v", v)
		}
		if v := n.Sample(rng); v < 0 {
			t.Fatalf("normal went negative: %v", v)
		}
		if v := c.Sample(rng); v < 0 {
			t.Fatalf("cauchy went negative: %v", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := Pareto{1.2, 100}
	saw := false
	for i := 0; i < 100000; i++ {
		if p.Sample(rng) > 2000 {
			saw = true
			break
		}
	}
	if !saw {
		t.Fatal("pareto(1.2) should occasionally produce large samples")
	}
}

func TestParseDistribution(t *testing.T) {
	good := map[string]string{
		"constant:1024":    "constant(1024)",
		"const:8":          "constant(8)",
		"uniform:1,2":      "uniform(1,2)",
		"exponential:0.01": "exponential(0.01)",
		"exp:5":            "exponential(5)",
		"normal:512,100":   "normal(512,100)",
		"pareto:1.5,200":   "pareto(1.5,200)",
		"cauchy:100,10":    "cauchy(100,10)",
		"weibull:2,100":    "weibull(2,100)",
	}
	for spec, want := range good {
		d, err := ParseDistribution(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		if d.String() != want {
			t.Fatalf("parse %q = %s, want %s", spec, d, want)
		}
	}
	for _, bad := range []string{"", "constant", "constant:x", "uniform:1", "mystery:1", "normal:1,2,3"} {
		if _, err := ParseDistribution(bad); err == nil {
			t.Fatalf("parse %q should fail", bad)
		}
	}
}

// --- payload and log codecs ---

func TestPayloadRoundtrip(t *testing.T) {
	b := EncodePayload(KindData|flagEchoRequest, 7, 1234, 5*time.Second, 1024)
	if len(b) != 1024 {
		t.Fatalf("len = %d", len(b))
	}
	kind, flowID, seq, tx, err := DecodePayload(b)
	if err != nil || kind != KindData|flagEchoRequest || flowID != 7 || seq != 1234 || tx != 5*time.Second {
		t.Fatalf("decode: %v %v %v %v %v", kind, flowID, seq, tx, err)
	}
}

func TestPayloadClampsToMin(t *testing.T) {
	b := EncodePayload(KindData, 1, 1, 0, 4)
	if len(b) != MinPayload {
		t.Fatalf("len = %d, want %d", len(b), MinPayload)
	}
}

func TestPayloadTooShort(t *testing.T) {
	if _, _, _, _, err := DecodePayload(make([]byte, MinPayload-1)); err != ErrShortPayload {
		t.Fatalf("err = %v", err)
	}
}

func TestLogCodecRoundtrip(t *testing.T) {
	l := &Log{}
	for i := 0; i < 100; i++ {
		l.Add(Record{
			FlowID: 3, Seq: uint32(i), Size: 90 + i,
			TxTime: time.Duration(i) * time.Millisecond,
			RxTime: time.Duration(i)*time.Millisecond + 30*time.Millisecond,
		})
	}
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 100 {
		t.Fatalf("decoded %d records", got.Len())
	}
	for i, r := range got.Records {
		if r != l.Records[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, r, l.Records[i])
		}
	}
}

func TestLogDecodeErrors(t *testing.T) {
	if _, err := DecodeLog(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("bad magic should fail")
	}
	l := &Log{}
	l.Add(Record{Seq: 1})
	var buf bytes.Buffer
	l.Encode(&buf)
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := DecodeLog(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated log should fail")
	}
}

// --- sender/receiver over a perfect in-memory path ---

// loopback wires a sender and receiver through direct function calls
// with a fixed one-way delay.
func loopback(t *testing.T, loop *sim.Loop, delay time.Duration, spec FlowSpec) (*Sender, *Receiver) {
	t.Helper()
	var snd *Sender
	rcv := NewReceiver(loop, func(echo *netsim.Packet) error {
		loop.After(delay, func() { snd.HandleEcho(echo) })
		return nil
	})
	snd = NewSender(loop, "test", spec, func(pkt *netsim.Packet) error {
		loop.After(delay, func() { rcv.Handle(pkt) })
		return nil
	})
	return snd, rcv
}

func cbrSpec(pps float64, size int, dur time.Duration, meter Meter) FlowSpec {
	return FlowSpec{
		FlowID: 1, DstAddr: netsim.MustAddr("192.0.2.1"), SrcPort: 5000, DstPort: 9000,
		IDT: Constant{1 / pps}, PS: Constant{float64(size)},
		Duration: dur, Meter: meter,
	}
}

func TestSenderRateAndCount(t *testing.T) {
	loop := sim.NewLoop(1)
	snd, rcv := loopback(t, loop, 10*time.Millisecond, cbrSpec(100, 90, 10*time.Second, MeterOWD))
	done := false
	snd.OnDone = func() { done = true }
	snd.Start()
	loop.Run()
	if !done {
		t.Fatal("OnDone not fired")
	}
	// 100 pps for 10 s, first at t=0: exactly 1000 packets.
	if snd.SentLog.Len() != 1000 {
		t.Fatalf("sent %d, want 1000", snd.SentLog.Len())
	}
	if rcv.RecvLog.Len() != 1000 {
		t.Fatalf("received %d", rcv.RecvLog.Len())
	}
}

func TestSenderStop(t *testing.T) {
	loop := sim.NewLoop(1)
	snd, _ := loopback(t, loop, 0, cbrSpec(100, 90, time.Hour, MeterOWD))
	snd.Start()
	loop.RunUntil(time.Second)
	snd.Stop()
	loop.Run()
	if n := snd.SentLog.Len(); n < 99 || n > 102 {
		t.Fatalf("sent %d in 1s at 100pps", n)
	}
}

func TestRTTMeterEchoes(t *testing.T) {
	loop := sim.NewLoop(1)
	snd, _ := loopback(t, loop, 25*time.Millisecond, cbrSpec(50, 100, 2*time.Second, MeterRTT))
	snd.Start()
	loop.Run()
	if snd.EchoLog.Len() != snd.SentLog.Len() {
		t.Fatalf("echoes %d != sent %d", snd.EchoLog.Len(), snd.SentLog.Len())
	}
	for _, r := range snd.EchoLog.Records {
		if rtt := r.RxTime - r.TxTime; rtt != 50*time.Millisecond {
			t.Fatalf("rtt = %v, want 50ms", rtt)
		}
	}
}

func TestOWDMeterDoesNotEcho(t *testing.T) {
	loop := sim.NewLoop(1)
	snd, _ := loopback(t, loop, 10*time.Millisecond, cbrSpec(50, 100, time.Second, MeterOWD))
	snd.Start()
	loop.Run()
	if snd.EchoLog.Len() != 0 {
		t.Fatalf("OWD flow produced %d echoes", snd.EchoLog.Len())
	}
}

func TestReceiverMalformedCounter(t *testing.T) {
	loop := sim.NewLoop(1)
	rcv := NewReceiver(loop, nil)
	rcv.Handle(&netsim.Packet{Payload: []byte("short")})
	if rcv.Malformed != 1 {
		t.Fatalf("Malformed = %d", rcv.Malformed)
	}
}

func TestSendErrorsCounted(t *testing.T) {
	loop := sim.NewLoop(1)
	spec := cbrSpec(100, 90, 100*time.Millisecond, MeterOWD)
	snd := NewSender(loop, "err", spec, func(*netsim.Packet) error { return netsim.ErrNoRoute })
	snd.Start()
	loop.Run()
	if snd.SendErrors == 0 {
		t.Fatal("send errors not counted")
	}
}

// --- decoder ---

func TestDecodeCBRCleanPath(t *testing.T) {
	loop := sim.NewLoop(1)
	snd, rcv := loopback(t, loop, 30*time.Millisecond, cbrSpec(100, 90, 10*time.Second, MeterRTT))
	snd.Start()
	loop.Run()
	res := Decode(&snd.SentLog, &rcv.RecvLog, &snd.EchoLog, 200*time.Millisecond)
	if res.Lost != 0 {
		t.Fatalf("lost = %d", res.Lost)
	}
	// 100 pps x 90 B = 72 kbps.
	br := res.BitrateSeries()
	// Skip the first and last windows (edge effects).
	for _, p := range br[1 : len(br)-2] {
		if math.Abs(p.V-72) > 8 {
			t.Fatalf("bitrate at %v = %v kbps, want ~72", p.T, p.V)
		}
	}
	if math.Abs(res.AvgBitrateKbps-72) > 4 {
		t.Fatalf("avg bitrate %v", res.AvgBitrateKbps)
	}
	// Constant delay: zero jitter.
	if res.AvgJitter != 0 {
		t.Fatalf("jitter on a constant-delay path: %v", res.AvgJitter)
	}
	if res.AvgDelay != 30*time.Millisecond {
		t.Fatalf("avg delay %v", res.AvgDelay)
	}
	if res.AvgRTT != 60*time.Millisecond || res.MaxRTT != 60*time.Millisecond {
		t.Fatalf("rtt %v/%v", res.AvgRTT, res.MaxRTT)
	}
}

func TestDecodeLossAttribution(t *testing.T) {
	sent := &Log{}
	recv := &Log{}
	// 10 packets, one per 100ms; seq 3 and 7 lost.
	for i := 0; i < 10; i++ {
		tx := time.Duration(i) * 100 * time.Millisecond
		sent.Add(Record{Seq: uint32(i), Size: 100, TxTime: tx})
		if i != 3 && i != 7 {
			recv.Add(Record{Seq: uint32(i), Size: 100, TxTime: tx, RxTime: tx + 20*time.Millisecond})
		}
	}
	res := Decode(sent, recv, nil, 200*time.Millisecond)
	if res.Lost != 2 {
		t.Fatalf("lost = %d", res.Lost)
	}
	// seq 3 departs at 300ms -> window 1; seq 7 at 700ms -> window 3.
	if res.Windows[1].Loss != 1 || res.Windows[3].Loss != 1 {
		t.Fatalf("loss windows: %+v", res.LossSeries())
	}
	if res.Windows[0].Loss != 0 {
		t.Fatal("spurious loss in window 0")
	}
}

func TestDecodeJitterDetectsVariation(t *testing.T) {
	sent := &Log{}
	recv := &Log{}
	// Alternating delays 20ms/30ms: |dv| = 10ms everywhere.
	for i := 0; i < 100; i++ {
		tx := time.Duration(i) * 10 * time.Millisecond
		d := 20 * time.Millisecond
		if i%2 == 1 {
			d = 30 * time.Millisecond
		}
		sent.Add(Record{Seq: uint32(i), Size: 100, TxTime: tx})
		recv.Add(Record{Seq: uint32(i), Size: 100, TxTime: tx, RxTime: tx + d})
	}
	res := Decode(sent, recv, nil, 200*time.Millisecond)
	if got := res.AvgJitter; got != 10*time.Millisecond {
		t.Fatalf("avg jitter = %v, want 10ms", got)
	}
}

func TestDecodeEmpty(t *testing.T) {
	res := Decode(nil, nil, nil, 0)
	if len(res.Windows) != 0 || res.Sent != 0 {
		t.Fatalf("empty decode: %+v", res)
	}
	if res.Summary() == "" {
		t.Fatal("summary should render")
	}
}

func TestDecodeDefaultWindow(t *testing.T) {
	res := Decode(&Log{}, &Log{}, nil, 0)
	if res.Window != 200*time.Millisecond {
		t.Fatalf("default window = %v", res.Window)
	}
}

func TestVoIPProfileIs72Kbps(t *testing.T) {
	spec := VoIPG711(1, netsim.MustAddr("192.0.2.1"), 1, 2, time.Minute)
	idt := spec.IDT.(Constant).V
	ps := spec.PS.(Constant).V
	if kbps := ps * 8 / idt / 1000; kbps != 72 {
		t.Fatalf("VoIP profile = %v kbps, want 72 (paper §3.1)", kbps)
	}
}

func TestCBRProfileIs1Mbps(t *testing.T) {
	spec := CBR1Mbps(1, netsim.MustAddr("192.0.2.1"), 1, 2, time.Minute)
	idt := spec.IDT.(Constant).V
	ps := spec.PS.(Constant).V
	if pps := 1 / idt; math.Abs(pps-122) > 0.01 {
		t.Fatalf("rate = %v pps, want 122", pps)
	}
	if ps != 1024 {
		t.Fatalf("size = %v, want 1024", ps)
	}
}

func TestMeterString(t *testing.T) {
	if MeterOWD.String() != "owd" || MeterRTT.String() != "rtt" {
		t.Fatal("meter strings")
	}
}

func TestDecodeMultiFlowLossKeying(t *testing.T) {
	// Two flows sharing sequence numbers: flow 2 loses its seq 0; flow
	// 1 receives everything. Keying losses by seq alone would hide it.
	sent := &Log{}
	recv := &Log{}
	for i := 0; i < 5; i++ {
		tx := time.Duration(i) * 100 * time.Millisecond
		sent.Add(Record{FlowID: 1, Seq: uint32(i), Size: 100, TxTime: tx})
		sent.Add(Record{FlowID: 2, Seq: uint32(i), Size: 100, TxTime: tx})
		recv.Add(Record{FlowID: 1, Seq: uint32(i), Size: 100, TxTime: tx, RxTime: tx + 10*time.Millisecond})
		if i != 0 {
			recv.Add(Record{FlowID: 2, Seq: uint32(i), Size: 100, TxTime: tx, RxTime: tx + 10*time.Millisecond})
		}
	}
	res := Decode(sent, recv, nil, 200*time.Millisecond)
	if res.Lost != 1 {
		t.Fatalf("lost = %d, want 1 (flow 2 seq 0)", res.Lost)
	}
}

func TestFilterFlow(t *testing.T) {
	l := &Log{}
	for i := 0; i < 10; i++ {
		l.Add(Record{FlowID: uint32(i % 3), Seq: uint32(i)})
	}
	f1 := l.FilterFlow(1)
	if f1.Len() != 3 {
		t.Fatalf("flow 1 records = %d", f1.Len())
	}
	for _, r := range f1.Records {
		if r.FlowID != 1 {
			t.Fatal("foreign flow leaked through the filter")
		}
	}
	if l.FilterFlow(99).Len() != 0 {
		t.Fatal("unknown flow should filter to empty")
	}
}

func TestVoIPG729ProfileIs24Kbps(t *testing.T) {
	spec := VoIPG729(1, netsim.MustAddr("192.0.2.1"), 1, 2, time.Minute)
	idt := spec.IDT.(Constant).V
	ps := spec.PS.(Constant).V
	if kbps := ps * 8 / idt / 1000; kbps != 24 {
		t.Fatalf("G.729 profile = %v kbps, want 24", kbps)
	}
}

func TestTelnetProfileBursty(t *testing.T) {
	spec := Telnet(1, netsim.MustAddr("192.0.2.1"), 1, 2, 5*time.Minute)
	loop := sim.NewLoop(1)
	snd, rcv := loopback(t, loop, time.Millisecond, spec)
	snd.Start()
	loop.Run()
	// Mean rate ~2 pps over 300 s: roughly 600 packets, wide tolerance.
	n := rcv.RecvLog.Len()
	if n < 400 || n > 800 {
		t.Fatalf("telnet sent %d packets in 5 min at ~2 pps", n)
	}
	for _, r := range rcv.RecvLog.Records {
		if r.Size < MinPayload || r.Size > 200 {
			t.Fatalf("telnet packet size %d out of [header,200]", r.Size)
		}
	}
	if snd.EchoLog.Len() != 0 {
		t.Fatal("telnet profile is OWD, must not echo")
	}
}

// TestEchoReflectsDataPacketClean: the receiver turns the data packet
// into its echo in place. Everything the data packet picked up on its
// way in (ingress interface, slice stamp, fwmark, TOS, TTL, IP ID) must
// be gone, as on a freshly built packet — a stale field here would leak
// into the echo's routing, filtering or wire bytes.
func TestEchoReflectsDataPacketClean(t *testing.T) {
	loop := sim.NewLoop(1)
	var echo *netsim.Packet
	rcv := NewReceiver(loop, func(p *netsim.Packet) error { echo = p; return nil })
	pool := loop.Buffers()
	src, dst := netsim.MustAddr("10.0.0.1"), netsim.MustAddr("192.0.2.1")
	data := netsim.NewPacket(pool)
	*data = netsim.Packet{
		Src: src, Dst: dst, Proto: netsim.ProtoUDP, TTL: 61, TOS: 0xb8, ID: 77,
		SrcPort: 5000, DstPort: 9000, Mark: 0x10, SliceCtx: 42, InIface: "eth0",
		Payload: EncodePayloadInto(pool.Get(100), KindData|flagEchoRequest, 3, 9, 5*time.Millisecond),
	}
	copy(data.Payload[MinPayload:], bytes.Repeat([]byte{0xee}, 100)) // padding the sender never wrote
	rcv.Handle(data)
	if echo != data {
		t.Fatal("the echo is not the reflected data packet")
	}
	payload := echo.Payload
	echo.Payload = nil
	want := netsim.Packet{Src: dst, Dst: src, Proto: netsim.ProtoUDP, SrcPort: 9000, DstPort: 5000}
	if !reflect.DeepEqual(*echo, want) {
		t.Fatalf("echo = %+v, want %+v", *echo, want)
	}
	kind, flow, seq, tx, err := DecodePayload(payload)
	if err != nil || kind != KindEcho || flow != 3 || seq != 9 || tx != 5*time.Millisecond || len(payload) != 100 {
		t.Fatalf("echo payload = kind %d flow %d seq %d tx %v len %d err %v", kind, flow, seq, tx, len(payload), err)
	}
	if !bytes.Equal(payload[MinPayload:], make([]byte, 100-MinPayload)) {
		t.Fatal("echo padding not zeroed")
	}
}

// TestHandlersFreeWhatTheyEnd: a packet the receiver does not reflect,
// and every packet the sender's echo handler gets, ends there and goes
// back to the loop's free list.
func TestHandlersFreeWhatTheyEnd(t *testing.T) {
	loop := sim.NewLoop(1)
	pool := loop.Buffers()
	spec := cbrSpec(100, 90, time.Second, MeterRTT)
	snd := NewSender(loop, "free", spec, func(*netsim.Packet) error { return nil })
	rcv := NewReceiver(loop, nil)
	packet := func(kind byte) *netsim.Packet {
		p := netsim.NewPacket(pool)
		p.Proto = netsim.ProtoUDP
		p.Payload = EncodePayloadInto(pool.Get(90), kind, spec.FlowID, 0, 0)
		return p
	}
	for _, c := range []struct {
		name   string
		pkt    *netsim.Packet
		handle func(*netsim.Packet)
	}{
		{"owd data", packet(KindData), rcv.Handle},
		{"stray echo at the receiver", packet(KindEcho), rcv.Handle},
		{"malformed", func() *netsim.Packet { p := packet(KindData); p.Payload = p.Payload[:5]; return p }(), rcv.Handle},
		{"echo", packet(KindEcho), snd.HandleEcho},
		{"data at the sender", packet(KindData), snd.HandleEcho},
	} {
		c.handle(c.pkt)
		if p := netsim.NewPacket(pool); p != c.pkt {
			t.Errorf("%s: packet not freed", c.name)
		}
	}
	if snd.EchoLog.Len() != 1 || rcv.RecvLog.Len() != 1 || rcv.Malformed != 1 {
		t.Fatalf("echoes %d, received %d, malformed %d; want 1 each",
			snd.EchoLog.Len(), rcv.RecvLog.Len(), rcv.Malformed)
	}
}
