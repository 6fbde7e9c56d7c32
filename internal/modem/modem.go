// Package modem models the 3G datacards the paper deployed: the Option
// Globetrotter GT+ (nozomi driver) and the Huawei E620 (usbserial/pl2303
// driver). A Modem terminates a serial line with a Hayes AT command
// interpreter; dialing `ATD*99#` activates a PDP context on the attached
// radio network and switches the line to transparent data mode, over
// which the host runs PPP.
package modem

import (
	"fmt"
	"strings"
	"time"

	"github.com/onelab/umtslab/internal/serial"
	"github.com/onelab/umtslab/internal/sim"
)

// RegState is the AT+CREG registration status code.
type RegState int

// +CREG <stat> values.
const (
	RegNotRegistered RegState = 0
	RegHome          RegState = 1
	RegSearching     RegState = 2
	RegDenied        RegState = 3
	RegRoaming       RegState = 5
)

// DataBearer is an established packet-switched bearer: a byte pipe into
// the operator network, closable from either side.
type DataBearer interface {
	Write(p []byte) int
	SetReceiver(fn func(p []byte))
	Close()
}

// RadioNet is the modem's view of the cellular network (implemented by
// the umts package, faked in tests).
type RadioNet interface {
	// Registration returns the current registration state and, when
	// registered, the operator name.
	Registration() (RegState, string)
	// SignalQuality returns the AT+CSQ rssi indicator (0..31, 99 unknown).
	SignalQuality() int
	// Dial activates a PDP context on the given APN. It completes
	// asynchronously: exactly one of bearer or err is delivered.
	Dial(apn string, done func(b DataBearer, err error))
	// HangUp aborts a dial in progress, if any.
	HangUp()
}

// CardProfile describes one supported datacard model.
type CardProfile struct {
	Manufacturer string
	Model        string
	// Driver is the kernel module that exposes the card's TTY, plus any
	// extra modules it needs (§2.3 of the paper).
	Driver       string
	ExtraModules []string
	// TTYName is the device node the driver creates.
	TTYName string
	// DialLatency is the card-firmware component of the time between
	// ATD and CONNECT (network attach time is added by the radio side).
	DialLatency time.Duration
	// LineRate is the serial line rate in baud.
	LineRate int
}

// The two cards the paper supports (§2.2).
var (
	Globetrotter = CardProfile{
		Manufacturer: "Option N.V.",
		Model:        "Globetrotter GT+ 3G",
		Driver:       "nozomi",
		TTYName:      "/dev/noz0",
		DialLatency:  900 * time.Millisecond,
		// The GT+ is a PCMCIA card whose nozomi driver does DMA; the
		// effective host-link rate is far above the radio rate.
		LineRate: 4_000_000,
	}
	HuaweiE620 = CardProfile{
		Manufacturer: "huawei",
		Model:        "E620",
		Driver:       "usbserial",
		ExtraModules: []string{"pl2303"},
		TTYName:      "/dev/ttyUSB0",
		DialLatency:  1400 * time.Millisecond,
		// USB full-speed bulk transfers; the tty baud setting is
		// ignored by the E620's USB pipe.
		LineRate: 4_000_000,
	}
)

// PDPContext is one AT+CGDCONT definition.
type PDPContext struct {
	CID  int
	Type string // "IP"
	APN  string
}

// Modem is the card's firmware: AT interpreter + data-mode relay.
type Modem struct {
	loop    *sim.Loop
	profile CardProfile
	line    *serial.Line
	radio   RadioNet

	echo     bool
	pinOK    bool
	pin      string // required PIN; empty means none
	cmdBuf   []byte
	dataMode bool
	bearer   DataBearer
	pdp      map[int]PDPContext
	dialing  bool

	// escape sequence detection (+++ with guard time)
	lastData time.Duration
}

// New creates a modem of the given profile attached to the modem end of
// line, using radio for network operations. If pin is non-empty the SIM
// is locked until AT+CPIN="<pin>".
func New(loop *sim.Loop, profile CardProfile, line *serial.Line, radio RadioNet, pin string) *Modem {
	m := &Modem{
		loop: loop, profile: profile, line: line, radio: radio,
		echo: true, pin: pin, pinOK: pin == "",
		pdp: make(map[int]PDPContext),
	}
	line.ModemEnd().SetReceiver(m.input)
	return m
}

// Profile returns the card profile.
func (m *Modem) Profile() CardProfile { return m.profile }

// InDataMode reports whether the line is in transparent data mode.
func (m *Modem) InDataMode() bool { return m.dataMode }

func (m *Modem) write(s string) {
	m.line.ModemEnd().Write([]byte(s))
}

func (m *Modem) respond(lines ...string) {
	for _, l := range lines {
		m.write("\r\n" + l + "\r\n")
	}
}

func (m *Modem) input(p []byte) {
	if m.dataMode {
		m.dataInput(p)
		return
	}
	for _, b := range p {
		if m.echo {
			m.line.ModemEnd().Write([]byte{b})
		}
		switch b {
		case '\r':
			line := strings.TrimSpace(string(m.cmdBuf))
			m.cmdBuf = m.cmdBuf[:0]
			if line != "" {
				m.execute(line)
			}
		case '\n':
			// ignore
		case 0x7f, 8: // backspace
			if len(m.cmdBuf) > 0 {
				m.cmdBuf = m.cmdBuf[:len(m.cmdBuf)-1]
			}
		default:
			m.cmdBuf = append(m.cmdBuf, b)
		}
	}
}

// dataInput relays host bytes to the bearer, watching for the "+++"
// escape (1 s guard time before and after, approximated by spacing).
func (m *Modem) dataInput(p []byte) {
	now := m.loop.Now()
	if len(p) == 3 && string(p) == "+++" && now-m.lastData >= time.Second {
		m.loop.After(time.Second, func() {
			if m.dataMode {
				m.suspendData()
			}
		})
		return
	}
	m.lastData = now
	if m.bearer != nil {
		m.bearer.Write(p)
	}
}

// suspendData returns to command mode without dropping the bearer.
func (m *Modem) suspendData() {
	m.dataMode = false
	m.respond("OK")
}

func (m *Modem) execute(cmd string) {
	u := strings.ToUpper(cmd)
	if !strings.HasPrefix(u, "AT") {
		m.respond("ERROR")
		return
	}
	body := cmd[2:]
	ubody := u[2:]
	switch {
	case ubody == "" || ubody == "Z":
		if ubody == "Z" {
			m.hangupInternal(false)
		}
		m.respond("OK")
	case ubody == "E0":
		m.echo = false
		m.respond("OK")
	case ubody == "E1":
		m.echo = true
		m.respond("OK")
	case ubody == "I":
		m.respond(m.profile.Manufacturer, m.profile.Model, "OK")
	case ubody == "+CGMI":
		m.respond(m.profile.Manufacturer, "OK")
	case ubody == "+CGMM":
		m.respond(m.profile.Model, "OK")
	case ubody == "+CPIN?":
		if m.pinOK {
			m.respond("+CPIN: READY", "OK")
		} else {
			m.respond("+CPIN: SIM PIN", "OK")
		}
	case strings.HasPrefix(ubody, "+CPIN="):
		given := strings.Trim(body[len("+CPIN="):], `"`)
		if m.pinOK || given == m.pin {
			m.pinOK = true
			m.respond("OK")
		} else {
			m.respond("+CME ERROR: incorrect password")
		}
	case ubody == "+CREG?":
		st, _ := m.radio.Registration()
		if !m.pinOK {
			st = RegNotRegistered
		}
		m.respond(fmt.Sprintf("+CREG: 0,%d", int(st)), "OK")
	case ubody == "+COPS?":
		st, op := m.radio.Registration()
		if m.pinOK && (st == RegHome || st == RegRoaming) {
			m.respond(fmt.Sprintf(`+COPS: 0,0,"%s"`, op), "OK")
		} else {
			m.respond("+COPS: 0", "OK")
		}
	case ubody == "+CSQ":
		m.respond(fmt.Sprintf("+CSQ: %d,99", m.radio.SignalQuality()), "OK")
	case strings.HasPrefix(ubody, "+CGDCONT="):
		m.defineContext(body[len("+CGDCONT="):])
	case ubody == "+CGDCONT?":
		for cid := 1; cid <= 16; cid++ {
			if ctx, ok := m.pdp[cid]; ok {
				m.respond(fmt.Sprintf(`+CGDCONT: %d,"%s","%s"`, ctx.CID, ctx.Type, ctx.APN))
			}
		}
		m.respond("OK")
	case strings.HasPrefix(ubody, "D"):
		m.dial(ubody[1:])
	case ubody == "H":
		m.hangupInternal(false)
		m.respond("OK")
	case ubody == "O":
		if m.bearer != nil {
			m.dataMode = true
			m.respond("CONNECT")
		} else {
			m.respond("NO CARRIER")
		}
	default:
		m.respond("ERROR")
	}
}

func (m *Modem) defineContext(args string) {
	// Format: 1,"IP","apn.operator.example"
	parts := strings.SplitN(args, ",", 3)
	if len(parts) < 3 {
		m.respond("ERROR")
		return
	}
	var cid int
	if _, err := fmt.Sscanf(parts[0], "%d", &cid); err != nil || cid < 1 || cid > 16 {
		m.respond("ERROR")
		return
	}
	m.pdp[cid] = PDPContext{
		CID:  cid,
		Type: strings.Trim(parts[1], `"`),
		APN:  strings.Trim(parts[2], `"`),
	}
	m.respond("OK")
}

// dial handles ATD*99# / ATD*99***<cid># — the 3GPP packet-service dial
// string.
func (m *Modem) dial(number string) {
	if !m.pinOK {
		m.respond("NO CARRIER")
		return
	}
	if st, _ := m.radio.Registration(); st != RegHome && st != RegRoaming {
		m.respond("NO CARRIER")
		return
	}
	cid := 1
	if n, ok := parseDialString(number); ok {
		cid = n
	} else {
		m.respond("ERROR")
		return
	}
	ctx, ok := m.pdp[cid]
	if !ok {
		// Most firmware dials a default context with an empty APN.
		ctx = PDPContext{CID: cid, Type: "IP"}
	}
	m.dialing = true
	m.loop.After(m.profile.DialLatency, func() {
		if !m.dialing {
			return
		}
		m.radio.Dial(ctx.APN, func(b DataBearer, err error) {
			if !m.dialing {
				if b != nil {
					b.Close()
				}
				return
			}
			m.dialing = false
			if err != nil {
				m.respond("NO CARRIER")
				return
			}
			m.bearer = b
			b.SetReceiver(func(p []byte) {
				if m.dataMode {
					m.line.ModemEnd().Write(p)
				}
			})
			m.dataMode = true
			m.lastData = m.loop.Now()
			m.line.SetDCD(true)
			m.respond("CONNECT 3600000")
		})
	})
}

// hangupInternal drops the call. A dial that is still pending, aborted
// by a host command (ATH, ATZ) or by the network, gets its own final
// result code, NO CARRIER (V.250); a host command's OK follows it.
func (m *Modem) hangupInternal(fromNetwork bool) {
	aborted := m.dialing
	m.dialing = false
	m.radio.HangUp()
	if m.bearer != nil {
		m.bearer.Close()
		m.bearer = nil
	}
	wasData := m.dataMode
	m.dataMode = false
	m.line.SetDCD(false)
	if aborted || fromNetwork && wasData {
		m.respond("NO CARRIER")
	}
}

// CarrierLost is invoked by the radio side when the network drops the
// bearer (coverage loss, operator teardown).
func (m *Modem) CarrierLost() { m.hangupInternal(true) }

// parseDialString accepts *99#, *99***<cid>#, and plain #99 variants.
func parseDialString(s string) (cid int, ok bool) {
	s = strings.TrimSuffix(s, ";")
	if !strings.HasSuffix(s, "#") {
		return 0, false
	}
	s = strings.TrimSuffix(s, "#")
	switch {
	case s == "*99":
		return 1, true
	case strings.HasPrefix(s, "*99***"):
		var n int
		if _, err := fmt.Sscanf(s[len("*99***"):], "%d", &n); err != nil || n < 1 || n > 16 {
			return 0, false
		}
		return n, true
	default:
		return 0, false
	}
}
