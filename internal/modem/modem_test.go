package modem

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/onelab/umtslab/internal/serial"
	"github.com/onelab/umtslab/internal/sim"
)

// fakeBearer is an in-memory DataBearer capturing uplink bytes.
type fakeBearer struct {
	up     []byte
	recv   func([]byte)
	closed bool
}

func (b *fakeBearer) Write(p []byte) int         { b.up = append(b.up, p...); return len(p) }
func (b *fakeBearer) SetReceiver(f func([]byte)) { b.recv = f }
func (b *fakeBearer) Close()                     { b.closed = true }

// fakeRadio is a scriptable RadioNet.
type fakeRadio struct {
	reg     RegState
	op      string
	csq     int
	dialErr error
	bearer  *fakeBearer
	attach  time.Duration
	loop    *sim.Loop
	hangups int
	dials   int
	lastAPN string
}

func (r *fakeRadio) Registration() (RegState, string) { return r.reg, r.op }
func (r *fakeRadio) SignalQuality() int               { return r.csq }
func (r *fakeRadio) HangUp()                          { r.hangups++ }
func (r *fakeRadio) Dial(apn string, done func(DataBearer, error)) {
	r.dials++
	r.lastAPN = apn
	r.loop.After(r.attach, func() {
		if r.dialErr != nil {
			done(nil, r.dialErr)
			return
		}
		r.bearer = &fakeBearer{}
		done(r.bearer, nil)
	})
}

// console drives the host end of the line like a dialer would.
type console struct {
	loop *sim.Loop
	line *serial.Line
	out  strings.Builder
}

func newConsole(t *testing.T, profile CardProfile, pin string) (*console, *fakeRadio, *Modem) {
	t.Helper()
	loop := sim.NewLoop(1)
	line := serial.NewLine(loop, "tty", profile.LineRate)
	radio := &fakeRadio{reg: RegHome, op: "SimTel IT", csq: 17, loop: loop, attach: 2 * time.Second}
	m := New(loop, profile, line, radio, pin)
	c := &console{loop: loop, line: line}
	line.HostEnd().SetReceiver(func(p []byte) { c.out.Write(p) })
	return c, radio, m
}

// cmd sends an AT command and runs the loop until quiescent, returning
// all modem output since the last call.
func (c *console) cmd(s string) string {
	c.out.Reset()
	c.line.HostEnd().Write([]byte(s + "\r"))
	c.loop.Run()
	return c.out.String()
}

func TestBasicAT(t *testing.T) {
	c, _, _ := newConsole(t, Globetrotter, "")
	if got := c.cmd("AT"); !strings.Contains(got, "OK") {
		t.Fatalf("AT -> %q", got)
	}
	if got := c.cmd("ATZ"); !strings.Contains(got, "OK") {
		t.Fatalf("ATZ -> %q", got)
	}
}

func TestEchoControl(t *testing.T) {
	c, _, _ := newConsole(t, Globetrotter, "")
	if got := c.cmd("AT"); !strings.Contains(got, "AT") {
		t.Fatalf("echo should be on by default: %q", got)
	}
	c.cmd("ATE0")
	if got := c.cmd("AT"); strings.Contains(got, "AT+") || strings.HasPrefix(strings.TrimSpace(got), "AT") {
		t.Fatalf("echo still on: %q", got)
	}
	c.cmd("ATE1")
	if got := c.cmd("AT"); !strings.Contains(got, "AT") {
		t.Fatalf("echo should be back on: %q", got)
	}
}

func TestIdentification(t *testing.T) {
	c, _, _ := newConsole(t, HuaweiE620, "")
	got := c.cmd("ATI")
	if !strings.Contains(got, "huawei") || !strings.Contains(got, "E620") {
		t.Fatalf("ATI -> %q", got)
	}
	if got := c.cmd("AT+CGMM"); !strings.Contains(got, "E620") {
		t.Fatalf("+CGMM -> %q", got)
	}
}

func TestPinFlow(t *testing.T) {
	c, _, _ := newConsole(t, Globetrotter, "1234")
	if got := c.cmd("AT+CPIN?"); !strings.Contains(got, "SIM PIN") {
		t.Fatalf("locked SIM: %q", got)
	}
	if got := c.cmd("AT+CREG?"); !strings.Contains(got, "+CREG: 0,0") {
		t.Fatalf("locked SIM must not be registered: %q", got)
	}
	if got := c.cmd(`AT+CPIN="9999"`); !strings.Contains(got, "ERROR") {
		t.Fatalf("wrong PIN accepted: %q", got)
	}
	if got := c.cmd(`AT+CPIN="1234"`); !strings.Contains(got, "OK") {
		t.Fatalf("correct PIN rejected: %q", got)
	}
	if got := c.cmd("AT+CPIN?"); !strings.Contains(got, "READY") {
		t.Fatalf("after unlock: %q", got)
	}
}

func TestRegistrationQueries(t *testing.T) {
	c, radio, _ := newConsole(t, Globetrotter, "")
	if got := c.cmd("AT+CREG?"); !strings.Contains(got, "+CREG: 0,1") {
		t.Fatalf("+CREG -> %q", got)
	}
	if got := c.cmd("AT+COPS?"); !strings.Contains(got, `"SimTel IT"`) {
		t.Fatalf("+COPS -> %q", got)
	}
	if got := c.cmd("AT+CSQ"); !strings.Contains(got, "+CSQ: 17,99") {
		t.Fatalf("+CSQ -> %q", got)
	}
	radio.reg = RegSearching
	if got := c.cmd("AT+CREG?"); !strings.Contains(got, "+CREG: 0,2") {
		t.Fatalf("searching: %q", got)
	}
	if got := c.cmd("AT+COPS?"); strings.Contains(got, "SimTel") {
		t.Fatalf("unregistered +COPS must not name the operator: %q", got)
	}
}

func TestPDPContext(t *testing.T) {
	c, _, _ := newConsole(t, Globetrotter, "")
	if got := c.cmd(`AT+CGDCONT=1,"IP","web.simtel.it"`); !strings.Contains(got, "OK") {
		t.Fatalf("define: %q", got)
	}
	got := c.cmd("AT+CGDCONT?")
	if !strings.Contains(got, `+CGDCONT: 1,"IP","web.simtel.it"`) {
		t.Fatalf("list: %q", got)
	}
	if got := c.cmd("AT+CGDCONT=bogus"); !strings.Contains(got, "ERROR") {
		t.Fatalf("bad define: %q", got)
	}
	if got := c.cmd(`AT+CGDCONT=99,"IP","x"`); !strings.Contains(got, "ERROR") {
		t.Fatalf("cid out of range: %q", got)
	}
}

func TestDialConnectAndRelay(t *testing.T) {
	c, radio, m := newConsole(t, Globetrotter, "")
	c.cmd(`AT+CGDCONT=1,"IP","web.simtel.it"`)
	got := c.cmd("ATD*99***1#")
	if !strings.Contains(got, "CONNECT") {
		t.Fatalf("dial: %q", got)
	}
	if radio.lastAPN != "web.simtel.it" {
		t.Fatalf("APN = %q", radio.lastAPN)
	}
	if !m.InDataMode() {
		t.Fatal("modem should be in data mode")
	}
	// Uplink relay.
	c.out.Reset()
	c.line.HostEnd().Write([]byte{0x7e, 0xff, 0x03, 0x7e})
	c.loop.Run()
	if string(radio.bearer.up) != string([]byte{0x7e, 0xff, 0x03, 0x7e}) {
		t.Fatalf("uplink relay: %x", radio.bearer.up)
	}
	// Downlink relay.
	radio.bearer.recv([]byte("downlink"))
	c.loop.Run()
	if !strings.Contains(c.out.String(), "downlink") {
		t.Fatalf("downlink relay: %q", c.out.String())
	}
}

func TestDialWhileUnregistered(t *testing.T) {
	c, radio, _ := newConsole(t, Globetrotter, "")
	radio.reg = RegSearching
	if got := c.cmd("ATD*99#"); !strings.Contains(got, "NO CARRIER") {
		t.Fatalf("dial unregistered: %q", got)
	}
	if radio.dials != 0 {
		t.Fatal("radio dialed while unregistered")
	}
}

func TestDialWithLockedSIM(t *testing.T) {
	c, _, _ := newConsole(t, Globetrotter, "1234")
	if got := c.cmd("ATD*99#"); !strings.Contains(got, "NO CARRIER") {
		t.Fatalf("dial with locked SIM: %q", got)
	}
}

func TestDialNetworkFailure(t *testing.T) {
	c, radio, m := newConsole(t, Globetrotter, "")
	radio.dialErr = errors.New("PDP activation rejected")
	if got := c.cmd("ATD*99#"); !strings.Contains(got, "NO CARRIER") {
		t.Fatalf("failed dial: %q", got)
	}
	if m.InDataMode() {
		t.Fatal("data mode after failed dial")
	}
}

func TestBadDialString(t *testing.T) {
	c, _, _ := newConsole(t, Globetrotter, "")
	if got := c.cmd("ATD12345"); !strings.Contains(got, "ERROR") {
		t.Fatalf("voice dial string should error on a data card: %q", got)
	}
}

func TestEscapeAndResume(t *testing.T) {
	c, radio, m := newConsole(t, Globetrotter, "")
	c.cmd("ATD*99#")
	if !m.InDataMode() {
		t.Fatal("not in data mode")
	}
	// Guard-time escape: wait >1s, send +++, wait.
	c.out.Reset()
	c.loop.After(1500*time.Millisecond, func() { c.line.HostEnd().Write([]byte("+++")) })
	c.loop.Run()
	if m.InDataMode() {
		t.Fatal("escape sequence ignored")
	}
	if !strings.Contains(c.out.String(), "OK") {
		t.Fatalf("escape response: %q", c.out.String())
	}
	// Bearer survived; ATO resumes.
	if radio.bearer.closed {
		t.Fatal("escape must not close the bearer")
	}
	if got := c.cmd("ATO"); !strings.Contains(got, "CONNECT") {
		t.Fatalf("ATO: %q", got)
	}
	if !m.InDataMode() {
		t.Fatal("ATO did not resume data mode")
	}
}

func TestHangup(t *testing.T) {
	c, radio, m := newConsole(t, Globetrotter, "")
	c.cmd("ATD*99#")
	c.loop.After(2*time.Second, func() { c.line.HostEnd().Write([]byte("+++")) })
	c.loop.Run()
	if got := c.cmd("ATH"); !strings.Contains(got, "OK") {
		t.Fatalf("ATH: %q", got)
	}
	if !radio.bearer.closed {
		t.Fatal("ATH must close the bearer")
	}
	if m.InDataMode() {
		t.Fatal("data mode after hangup")
	}
	// ATO with no bearer.
	if got := c.cmd("ATO"); !strings.Contains(got, "NO CARRIER") {
		t.Fatalf("ATO after hangup: %q", got)
	}
}

func TestCarrierLost(t *testing.T) {
	c, _, m := newConsole(t, Globetrotter, "")
	c.cmd("ATD*99#")
	c.out.Reset()
	m.CarrierLost()
	c.loop.Run()
	if m.InDataMode() {
		t.Fatal("data mode after carrier loss")
	}
	if !strings.Contains(c.out.String(), "NO CARRIER") {
		t.Fatalf("carrier loss output: %q", c.out.String())
	}
}

func TestNonATGarbage(t *testing.T) {
	c, _, _ := newConsole(t, Globetrotter, "")
	if got := c.cmd("HELLO"); !strings.Contains(got, "ERROR") {
		t.Fatalf("garbage: %q", got)
	}
}

func TestParseDialString(t *testing.T) {
	cases := []struct {
		in  string
		cid int
		ok  bool
	}{
		{"*99#", 1, true},
		{"*99***1#", 1, true},
		{"*99***3#", 3, true},
		{"*99***16#", 16, true},
		{"*99***17#", 0, false},
		{"*99***0#", 0, false},
		{"*99", 0, false},
		{"123456", 0, false},
		{"*98#", 0, false},
	}
	for _, tc := range cases {
		cid, ok := parseDialString(tc.in)
		if ok != tc.ok || (ok && cid != tc.cid) {
			t.Errorf("parseDialString(%q) = %d,%v want %d,%v", tc.in, cid, ok, tc.cid, tc.ok)
		}
	}
}

func TestProfiles(t *testing.T) {
	if Globetrotter.Driver != "nozomi" {
		t.Fatal("Globetrotter uses the nozomi driver (paper §2.3)")
	}
	if HuaweiE620.Driver != "usbserial" || len(HuaweiE620.ExtraModules) == 0 {
		t.Fatal("Huawei E620 uses usbserial plus a companion module")
	}
}

func TestHangupDuringDialAbortsIt(t *testing.T) {
	for _, abort := range []string{"ATH", "ATZ"} {
		c, radio, m := newConsole(t, Globetrotter, "")
		c.cmd("ATE0")
		// Start the dial but do not run to completion: ATD responds after
		// DialLatency + attach time (~2.9 s total).
		c.out.Reset()
		c.line.HostEnd().Write([]byte("ATD*99#\r"))
		c.loop.RunUntil(c.loop.Now() + 500*time.Millisecond)
		// Abort before CONNECT.
		c.line.HostEnd().Write([]byte(abort + "\r"))
		c.loop.Run()
		// The aborted dial answers NO CARRIER, then the command its own OK.
		if out := c.out.String(); out != "\r\nNO CARRIER\r\n\r\nOK\r\n" {
			t.Fatalf("%s during dial: %q", abort, out)
		}
		if m.InDataMode() {
			t.Fatalf("data mode after a dial aborted by %s", abort)
		}
		if radio.hangups == 0 {
			t.Fatalf("%s did not tell the radio to hang up", abort)
		}
	}
}

func TestCarrierLostDuringDial(t *testing.T) {
	c, _, m := newConsole(t, Globetrotter, "")
	c.cmd("ATE0")
	c.out.Reset()
	c.line.HostEnd().Write([]byte("ATD*99#\r"))
	c.loop.RunUntil(c.loop.Now() + 500*time.Millisecond)
	// The network drops the attempt before CONNECT: the pending dial
	// answers NO CARRIER instead of leaving the host to time out.
	m.CarrierLost()
	c.loop.Run()
	if out := c.out.String(); out != "\r\nNO CARRIER\r\n" {
		t.Fatalf("carrier loss during dial: %q", out)
	}
	if m.InDataMode() || c.line.DCD() {
		t.Fatal("data mode or DCD after a dial the network aborted")
	}
}

func TestDCDFollowsCarrier(t *testing.T) {
	c, _, m := newConsole(t, Globetrotter, "")
	if c.line.DCD() {
		t.Fatal("DCD asserted before any connection")
	}
	c.cmd("ATD*99#")
	if !c.line.DCD() {
		t.Fatal("DCD not asserted on CONNECT")
	}
	m.CarrierLost()
	c.loop.Run()
	if c.line.DCD() {
		t.Fatal("DCD still asserted after carrier loss")
	}
}

// Property: arbitrary garbage on the command line never panics the AT
// interpreter and never switches the modem into data mode.
func TestPropertyATParserRobust(t *testing.T) {
	f := func(input []byte) bool {
		loop := sim.NewLoop(3)
		line := serial.NewLine(loop, "fuzz", 0)
		radio := &fakeRadio{reg: RegHome, op: "x", loop: loop}
		m := New(loop, Globetrotter, line, radio, "")
		line.HostEnd().SetReceiver(func([]byte) {})
		// Strip CRs that could legitimately trigger ATD dials; garbage
		// may still contain complete junk commands.
		line.HostEnd().Write(input)
		line.HostEnd().Write([]byte{'\r'})
		loop.Run()
		return !m.InDataMode() || radio.dials > 0
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzModemAT drives the AT interpreter with arbitrary host bytes over
// the serial line. Whole, at once, they must never panic it. Sent one
// CR-terminated line at a time, as V.250 asks of a host (wait for the
// final result code before the next command), every non-empty command
// line in command mode must get exactly one final result code, and
// nothing else may. flags picks the environment: bit 0 fails the
// network dial, bit 1 locks the SIM, bit 2 leaves the card unregistered.
func FuzzModemAT(f *testing.F) {
	for _, s := range []string{
		"AT\rATE0\rATI\rAT+CGMI\rAT+CGMM\r",
		"AT+CPIN?\rAT+CPIN=\"1234\"\rAT+CPIN=\"0000\"\r",
		"AT+CREG?\rAT+COPS?\rAT+CSQ\r",
		"AT+CGDCONT=1,\"IP\",\"internet.example\"\rAT+CGDCONT?\rATD*99***1#\r",
		"ATD*99#\r+++",
		"ATD*99#\rpayload\r",
		"ATZ\rATH\rATO\rATD#99\rATDX\r",
		"at\x7f\x7fAT\n\r  \r\rhello\r",
		"AT+CGDCONT=99,\"IP\",\"x\"\rAT+CGDCONT=1\r",
	} {
		f.Add([]byte(s), byte(0))
		f.Add([]byte(s), byte(7))
	}
	f.Fuzz(func(t *testing.T, in []byte, flags byte) {
		newModem := func() (*sim.Loop, *serial.Line, *Modem, *strings.Builder) {
			loop := sim.NewLoop(1)
			line := serial.NewLine(loop, "tty", Globetrotter.LineRate)
			radio := &fakeRadio{reg: RegHome, op: "SimTel IT", csq: 17, loop: loop, attach: 100 * time.Millisecond}
			if flags&1 != 0 {
				radio.dialErr = errors.New("no PDP context")
			}
			if flags&4 != 0 {
				radio.reg = RegSearching
			}
			pin := ""
			if flags&2 != 0 {
				pin = "1234"
			}
			m := New(loop, Globetrotter, line, radio, pin)
			out := &strings.Builder{}
			line.HostEnd().SetReceiver(func(p []byte) { out.Write(p) })
			return loop, line, m, out
		}

		loop, line, _, _ := newModem()
		line.HostEnd().Write(in)
		loop.Run()

		loop, line, m, out := newModem()
		for len(in) > 0 {
			n := bytes.IndexByte(in, '\r') + 1
			if n == 0 {
				n = len(in)
			}
			chunk := in[:n]
			in = in[n:]
			command, echo := !m.InDataMode(), m.echo
			out.Reset()
			line.HostEnd().Write(chunk)
			loop.RunUntil(loop.Now() + 5*time.Second)
			if !command {
				continue
			}
			got := out.String()
			if echo {
				if !strings.HasPrefix(got, string(chunk)) {
					t.Fatalf("line %q: output %q does not start with its echo", chunk, got)
				}
				got = got[len(chunk):]
			}
			finals := 0
			for got != "" {
				end := strings.Index(got[min(2, len(got)):], "\r\n")
				if !strings.HasPrefix(got, "\r\n") || end < 0 {
					t.Fatalf("line %q: malformed response %q", chunk, got)
				}
				if isFinalResult(got[2 : 2+end]) {
					finals++
				}
				got = got[4+end:]
			}
			if want := commandLines(chunk); finals != want {
				t.Fatalf("line %q: %d final result codes, want %d (output %q)", chunk, finals, want, out.String())
			}
		}
	})
}

// commandLines is how many command lines the modem executes for a
// chunk of host bytes: each CR ends one, non-empty once LF is dropped,
// backspace applied and blanks trimmed.
func commandLines(chunk []byte) int {
	var buf []byte
	n := 0
	for _, b := range chunk {
		switch b {
		case '\r':
			if strings.TrimSpace(string(buf)) != "" {
				n++
			}
			buf = buf[:0]
		case '\n':
		case 0x7f, 8:
			if len(buf) > 0 {
				buf = buf[:len(buf)-1]
			}
		default:
			buf = append(buf, b)
		}
	}
	return n
}

// isFinalResult reports whether a response line is a V.250 final result
// code rather than an information response.
func isFinalResult(s string) bool {
	switch s {
	case "OK", "ERROR", "NO CARRIER", "BUSY", "NO DIALTONE", "NO ANSWER", "CONNECT":
		return true
	}
	return strings.HasPrefix(s, "CONNECT ") || strings.HasPrefix(s, "+CME ERROR:")
}
