package dialer

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/ppp"
	"github.com/onelab/umtslab/internal/serial"
	"github.com/onelab/umtslab/internal/sim"
)

// Config parameterizes a dial-up: the wvdial.conf analog.
type Config struct {
	Loop *sim.Loop
	// Port is the host end of the modem's serial line.
	Port serial.Port
	// Line, if set, lets the dialer watch the carrier (DCD) signal and
	// tear the connection down on hangup, like pppd's modem option.
	Line *serial.Line
	// EchoInterval enables LCP echo keepalives as an additional
	// liveness check (pppd lcp-echo-interval; default disabled — DCD is
	// the primary carrier-loss detector).
	EchoInterval time.Duration
	// Node is the host whose interface table receives ppp0.
	Node *netsim.Node
	// IfaceName is the network interface to create (default "ppp0").
	IfaceName string
	// APN, PIN and Creds configure the operator attachment.
	PIN   string
	APN   string
	Creds ppp.Credentials
	// RegTimeout bounds network registration (default 30 s); DialTimeout
	// bounds the ATD..CONNECT exchange (default 60 s).
	RegTimeout  time.Duration
	DialTimeout time.Duration
	Trace       func(format string, args ...any)
}

// Connection is an established dial-up: a running PPP session and the
// ppp0 interface materialized on the node.
type Connection struct {
	cfg    Config
	client *ppp.Client
	iface  *netsim.Iface
	local  netip.Addr
	peer   netip.Addr
	downed bool
	// onClosed releases the owning dialer's connection slot; it runs
	// before OnDown so the dialer is immediately redialable from the
	// down handler (what the supervisor does).
	onClosed func()
	// OnDown is invoked once when the connection drops (peer teardown,
	// carrier loss, or Disconnect).
	OnDown func(reason string)
}

// LocalAddr returns the negotiated local (UMTS) address.
func (c *Connection) LocalAddr() netip.Addr { return c.local }

// PeerAddr returns the PPP peer (GGSN) address.
func (c *Connection) PeerAddr() netip.Addr { return c.peer }

// Iface returns the ppp0 interface on the node.
func (c *Connection) Iface() *netsim.Iface { return c.iface }

// Up reports whether the session is still running.
func (c *Connection) Up() bool { return c.client.Up() }

// Disconnect tears the session down gracefully.
func (c *Connection) Disconnect() {
	c.client.Terminate("disconnect requested")
}

func (c *Connection) down(reason string) {
	if c.downed {
		return
	}
	c.downed = true
	if c.iface != nil {
		c.cfg.Node.RemoveIface(c.iface.Name)
	}
	if c.onClosed != nil {
		c.onClosed()
	}
	if c.OnDown != nil {
		c.OnDown(reason)
	}
}

// Dialer drives the whole bring-up: comgt-style registration followed by
// wvdial-style dial and PPP.
type Dialer struct {
	cfg  Config
	chat *chat
	busy bool
	// conn is the live connection, if any; while it is up the serial
	// line belongs to PPP and Register/Connect report ErrBusy.
	conn *Connection
}

// New creates a dialer on the configured serial port.
func New(cfg Config) *Dialer {
	if cfg.IfaceName == "" {
		cfg.IfaceName = "ppp0"
	}
	if cfg.RegTimeout == 0 {
		cfg.RegTimeout = 30 * time.Second
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 60 * time.Second
	}
	return &Dialer{cfg: cfg, chat: newChat(cfg.Loop, cfg.Port, cfg.Trace)}
}

const atTimeout = 5 * time.Second

// Register performs the comgt sequence: reset the modem, disable echo,
// unlock the SIM if needed, and poll +CREG until the card is registered
// on the network. done receives nil on success.
func (d *Dialer) Register(done func(error)) {
	if d.busy || d.conn != nil {
		done(ErrBusy)
		return
	}
	d.busy = true
	// Reclaim the serial line: a previous session's PPP deframer may
	// still own the port's receiver.
	d.chat.attach()
	finish := func(err error) {
		d.busy = false
		done(err)
	}
	d.resetModem(true, func(err error) {
		if err != nil {
			finish(err)
			return
		}
		d.chat.sendExpect("ATE0", []string{"OK"}, []string{"ERROR"}, atTimeout, func(_ string, err error) {
			if err != nil {
				finish(err)
				return
			}
			d.checkPIN(finish)
		})
	})
}

// resetModem sends ATZ; if the line does not answer (a previous session
// left the modem in data mode), it escapes with "+++" (guard time on
// both sides), flushes the command buffer with a throwaway AT, and
// retries once — comgt's recovery sequence.
func (d *Dialer) resetModem(retry bool, finish func(error)) {
	d.chat.sendExpect("ATZ", []string{"OK"}, []string{"ERROR"}, atTimeout, func(_ string, err error) {
		if err == nil || !retry {
			finish(err)
			return
		}
		d.cfg.Loop.After(1200*time.Millisecond, func() {
			d.cfg.Port.Write([]byte("+++"))
			d.cfg.Loop.After(1200*time.Millisecond, func() {
				// The escape may leave "+++" in the modem's command
				// buffer; a throwaway AT flushes it (any response is
				// fine).
				d.chat.sendExpect("AT", []string{"OK", "ERROR"}, nil, atTimeout,
					func(_ string, _ error) {
						d.resetModem(false, finish)
					})
			})
		})
	})
}

func (d *Dialer) checkPIN(finish func(error)) {
	// Wait for the terminal result code, then scrape the +CPIN payload;
	// matching on the payload directly would race the trailing OK.
	d.chat.sendExpect("AT+CPIN?", []string{"OK"}, []string{"ERROR"}, atTimeout,
		func(_ string, err error) {
			if err != nil {
				finish(err)
				return
			}
			if strings.Contains(d.chat.output(), "READY") {
				d.pollRegistration(d.cfg.Loop.Now()+d.cfg.RegTimeout, finish)
				return
			}
			if d.cfg.PIN == "" {
				finish(ErrNoSIM)
				return
			}
			d.chat.sendExpect(fmt.Sprintf(`AT+CPIN="%s"`, d.cfg.PIN),
				[]string{"OK"}, []string{"ERROR"}, atTimeout, func(_ string, err error) {
					if err != nil {
						finish(fmt.Errorf("%w: %v", ErrBadPIN, err))
						return
					}
					d.pollRegistration(d.cfg.Loop.Now()+d.cfg.RegTimeout, finish)
				})
		})
}

// pollRegistration issues AT+CREG? once a second until registered (home
// or roaming) or the deadline passes — what `comgt` does in its
// "wait for registration" script.
func (d *Dialer) pollRegistration(deadline time.Duration, finish func(error)) {
	d.chat.sendExpect("AT+CREG?", []string{"OK"}, []string{"ERROR"}, atTimeout,
		func(_ string, err error) {
			if err != nil {
				finish(err)
				return
			}
			out := d.chat.output()
			if strings.Contains(out, "+CREG: 0,1") || strings.Contains(out, "+CREG: 0,5") {
				finish(nil)
				return
			}
			if d.cfg.Loop.Now() >= deadline {
				finish(fmt.Errorf("%w (last: %s)", ErrRegistrationTimeout, strings.TrimSpace(out)))
				return
			}
			d.cfg.Loop.After(time.Second, func() { d.pollRegistration(deadline, finish) })
		})
}

// Connect performs the wvdial sequence: define the PDP context, dial
// *99#, and on CONNECT start the PPP client. When IPCP converges, the
// ppp0 interface appears on the node and done receives the Connection.
func (d *Dialer) Connect(done func(*Connection, error)) {
	if d.busy || d.conn != nil {
		done(nil, ErrBusy)
		return
	}
	d.busy = true
	d.chat.attach()
	fail := func(err error) {
		d.busy = false
		done(nil, err)
	}
	cgdcont := fmt.Sprintf(`AT+CGDCONT=1,"IP","%s"`, d.cfg.APN)
	d.chat.sendExpect(cgdcont, []string{"OK"}, []string{"ERROR"}, atTimeout, func(_ string, err error) {
		if err != nil {
			fail(err)
			return
		}
		d.chat.sendExpect("ATD*99***1#", []string{"CONNECT"},
			[]string{"NO CARRIER", "ERROR", "BUSY"}, d.cfg.DialTimeout,
			func(_ string, err error) {
				if err != nil {
					fail(err)
					return
				}
				d.startPPP(done)
			})
	})
}

// startPPP is the pppd analog: it takes over the serial line, runs the
// PPP client, and on success wires the ppp0 interface into the node.
func (d *Dialer) startPPP(done func(*Connection, error)) {
	conn := &Connection{cfg: d.cfg}
	conn.onClosed = func() {
		if d.conn == conn {
			d.conn = nil
		}
	}
	completed := false
	conn.client = ppp.NewClient(ppp.ClientConfig{
		Name:         d.cfg.Node.Name + "/" + d.cfg.IfaceName,
		Loop:         d.cfg.Loop,
		Channel:      d.cfg.Port,
		Creds:        d.cfg.Creds,
		EchoInterval: d.cfg.EchoInterval,
		Trace:        d.cfg.Trace,
		OnUp: func(local, peer netip.Addr) {
			conn.local = local
			conn.peer = peer
			conn.iface = d.cfg.Node.AddIface(d.cfg.IfaceName, local, netip.Prefix{})
			conn.iface.Peer = peer
			conn.iface.SetLink(netsim.FuncLink(func(_ *netsim.Iface, pkt *netsim.Packet) {
				// The link owns pkt: marshal into a recycled wire buffer
				// (SendIPv4 frames and copies it synchronously), then free
				// both.
				pool := d.cfg.Loop.Buffers()
				wire := pkt.AppendMarshal(pool.Get(pkt.Length())[:0])
				pkt.Free(pool)
				conn.client.SendIPv4(wire)
				pool.Put(wire)
			}))
			completed = true
			d.busy = false
			d.conn = conn
			done(conn, nil)
		},
		OnDown: func(reason string) {
			if !completed {
				d.busy = false
				done(nil, fmt.Errorf("dialer: ppp failed: %s", reason))
				return
			}
			conn.down(reason)
		},
		OnIPv4: func(b []byte) {
			if conn.iface == nil {
				return
			}
			pkt, err := netsim.UnmarshalPooled(b, d.cfg.Loop.Buffers())
			if err != nil {
				return
			}
			conn.iface.Deliver(pkt)
		},
	})
	if d.cfg.Line != nil {
		d.cfg.Line.OnDCD(func(up bool) {
			if !up {
				conn.client.CarrierLost()
			}
		})
	}
	conn.client.Start()
}

// BringUp is the convenience used by the umts vsys backend: register,
// then connect, reporting a single completion.
func (d *Dialer) BringUp(done func(*Connection, error)) {
	d.Register(func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		d.Connect(done)
	})
}
