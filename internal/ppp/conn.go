package ppp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/sim"
)

// ByteChannel is the transport under a PPP connection: the host's serial
// port to the modem, or the operator side's radio-bearer termination.
// serial.Port satisfies it.
//
// Write must not retain p past the call (implementations copy into
// their own queues); the PPP layer recycles frame buffers as soon as
// Write returns. Conversely, slices passed to the receiver callback are
// only valid for the duration of the call.
type ByteChannel interface {
	Write(p []byte) int
	SetReceiver(fn func(p []byte))
}

// Phase is the PPP connection phase (RFC 1661 §3.2).
type Phase int

// Connection phases.
const (
	PhaseDead Phase = iota
	PhaseEstablish
	PhaseAuthenticate
	PhaseNetwork
	PhaseRunning
	PhaseTerminate
)

func (p Phase) String() string {
	switch p {
	case PhaseDead:
		return "dead"
	case PhaseEstablish:
		return "establish"
	case PhaseAuthenticate:
		return "authenticate"
	case PhaseNetwork:
		return "network"
	case PhaseRunning:
		return "running"
	case PhaseTerminate:
		return "terminate"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// ErrNotUp is returned when sending data before IPCP has converged.
var ErrNotUp = errors.New("ppp: connection not in running phase")

// link is the shared framing/dispatch layer of a client or server.
type link struct {
	loop    *sim.Loop
	ch      ByteChannel
	deframe Deframer
	handler map[uint16]func(info []byte)
	lcp     *automaton
	// accm0 is set when both sides negotiated an all-zero async control
	// character map, allowing minimal escaping for data frames.
	accm0 bool

	TxFrames uint64
	RxFrames uint64

	mTx, mRx *metrics.Counter
}

func newLink(loop *sim.Loop, ch ByteChannel) *link {
	reg := loop.Metrics()
	l := &link{
		loop: loop, ch: ch, handler: make(map[uint16]func([]byte)),
		mTx: reg.Counter("ppp/tx_frames"),
		mRx: reg.Counter("ppp/rx_frames"),
	}
	l.deframe.OnFrame = l.dispatch
	// Every protocol handler below consumes its frame synchronously
	// (control packets are parsed and re-marshalled, IP payloads are
	// unmarshalled), so the deframer can lend out its internal buffer
	// or the received chunk itself.
	l.deframe.Borrow = true
	l.deframe.OnFCSError = reg.Counter("ppp/fcs_errors").Inc
	ch.SetReceiver(func(p []byte) { l.deframe.Feed(p) })
	return l
}

func (l *link) dispatch(payload []byte) {
	proto, info, err := DecapsulatePPP(payload)
	if err != nil {
		return
	}
	l.RxFrames++
	l.mRx.Inc()
	if h, ok := l.handler[proto]; ok {
		h(info)
		return
	}
	// Unknown protocol: Protocol-Reject via LCP (RFC 1661 §5.7).
	if l.lcp != nil && l.lcp.Opened() {
		l.sendControl(ProtoLCP, ControlPacket{Code: CodeProtRej, ID: 0, Data: payload})
	}
}

func (l *link) sendControl(proto uint16, p ControlPacket) {
	l.sendPPP(proto, p.Marshal())
}

func (l *link) sendPPP(proto uint16, info []byte) {
	l.TxFrames++
	l.mTx.Inc()
	// LCP always uses the default ACCM (RFC 1662 §7); everything else
	// may use the negotiated map once LCP has opened.
	escapeCtl := proto == ProtoLCP || !l.accm0 || l.lcp == nil || !l.lcp.Opened()
	// Worst case every octet is escaped: 2*(len(info)+6) plus two flags.
	buf := l.loop.Buffers().Get(2*len(info) + 16)[:0]
	frame := appendFrameProto(buf, proto, info, escapeCtl)
	// ByteChannel implementations (serial line, UMTS bearer) do not
	// retain the written slice past the call, so the frame buffer can
	// be recycled immediately.
	l.ch.Write(frame)
	l.loop.Buffers().Put(frame)
}

// --- LCP option policies ---

// lcpPolicy implements the client and server sides of LCP option
// negotiation. A non-zero wantAuth (server side) requests that the peer
// authenticate with that protocol.
type lcpPolicy struct {
	mru       uint16
	magic     uint32
	wantAuth  uint16 // auth protocol we demand of the peer (server)
	allowPAP  bool   // auth protocols we are willing to perform (client)
	allowCHAP bool

	// negotiated results
	peerMRU    uint16
	mustAuth   uint16 // what the peer demanded of us
	localACCM0 bool   // peer acked our all-zero ACCM
	peerACCM0  bool   // peer requested an all-zero ACCM we acked
}

func (p *lcpPolicy) LocalOptions() []Option {
	opts := []Option{
		U16Option(OptMRU, p.mru),
		U32Option(OptACCM, 0),
		U32Option(OptMagic, p.magic),
	}
	if p.wantAuth == ProtoCHAP {
		o := U16Option(OptAuthProto, ProtoCHAP)
		o.Data = append(o.Data, 0x05) // MD5 algorithm
		opts = append(opts, o)
	} else if p.wantAuth == ProtoPAP {
		opts = append(opts, U16Option(OptAuthProto, ProtoPAP))
	}
	return opts
}

func (p *lcpPolicy) OnLocalNak(nak []Option) {
	for _, o := range nak {
		switch o.Type {
		case OptMRU:
			if len(o.Data) == 2 {
				p.mru = binary.BigEndian.Uint16(o.Data)
			}
		case OptACCM:
			// Peer wants some characters escaped: give up on ACCM 0.
			p.localACCM0 = false
		}
	}
}

func (p *lcpPolicy) OnLocalRej(rej []Option) {
	for _, o := range rej {
		switch o.Type {
		case OptAuthProto:
			p.wantAuth = 0 // peer refuses to authenticate
		case OptACCM:
			p.localACCM0 = false
		}
	}
}

// accm0 reports whether both directions agreed on a zero ACCM.
func (p *lcpPolicy) accm0() bool { return p.localACCM0 && p.peerACCM0 }

func (p *lcpPolicy) ReviewPeer(opts []Option) (nak, rej []Option) {
	for _, o := range opts {
		switch o.Type {
		case OptMRU:
			if len(o.Data) == 2 {
				v := binary.BigEndian.Uint16(o.Data)
				if v < 576 {
					nak = append(nak, U16Option(OptMRU, 1500))
				}
			}
		case OptMagic, OptACCM:
			// accepted
		case OptAuthProto:
			if len(o.Data) < 2 {
				rej = append(rej, o)
				continue
			}
			proto := binary.BigEndian.Uint16(o.Data)
			switch {
			case proto == ProtoCHAP && p.allowCHAP && (len(o.Data) < 3 || o.Data[2] == 0x05):
				// acceptable
			case proto == ProtoPAP && p.allowPAP:
				// acceptable
			case p.allowCHAP:
				o2 := U16Option(OptAuthProto, ProtoCHAP)
				o2.Data = append(o2.Data, 0x05)
				nak = append(nak, o2)
			case p.allowPAP:
				nak = append(nak, U16Option(OptAuthProto, ProtoPAP))
			default:
				rej = append(rej, o)
			}
		default:
			rej = append(rej, o)
		}
	}
	return nak, rej
}

func (p *lcpPolicy) OnPeerAccepted(opts []Option) {
	p.mustAuth = 0
	for _, o := range opts {
		switch o.Type {
		case OptMRU:
			if len(o.Data) == 2 {
				p.peerMRU = binary.BigEndian.Uint16(o.Data)
			}
		case OptAuthProto:
			if len(o.Data) >= 2 {
				p.mustAuth = binary.BigEndian.Uint16(o.Data)
			}
		case OptACCM:
			if len(o.Data) == 4 && binary.BigEndian.Uint32(o.Data) == 0 {
				p.peerACCM0 = true
			}
		}
	}
}

// --- IPCP option policies ---

// ipcpPolicy negotiates IP addresses. The client starts from 0.0.0.0 and
// adopts the server's Nak suggestion; the server announces its own
// address and Naks the client toward the assigned one.
type ipcpPolicy struct {
	local    netip.Addr // address we request for ourselves
	assignFn func() netip.Addr
	// results
	peer netip.Addr
}

func addrOption(a netip.Addr) Option {
	b := a.As4()
	return Option{Type: OptIPAddress, Data: b[:]}
}

func (p *ipcpPolicy) LocalOptions() []Option {
	return []Option{addrOption(p.local)}
}

func (p *ipcpPolicy) OnLocalNak(nak []Option) {
	for _, o := range nak {
		if o.Type == OptIPAddress && len(o.Data) == 4 {
			p.local = netip.AddrFrom4([4]byte(o.Data))
		}
	}
}

func (p *ipcpPolicy) OnLocalRej([]Option) {}

func (p *ipcpPolicy) ReviewPeer(opts []Option) (nak, rej []Option) {
	for _, o := range opts {
		switch o.Type {
		case OptIPAddress:
			if len(o.Data) != 4 {
				rej = append(rej, o)
				continue
			}
			got := netip.AddrFrom4([4]byte(o.Data))
			if p.assignFn != nil {
				want := p.assignFn()
				if got != want {
					nak = append(nak, addrOption(want))
				}
			} else if got == (netip.AddrFrom4([4]byte{0, 0, 0, 0})) {
				// We have no pool to offer from and the peer has no
				// address: cannot converge.
				rej = append(rej, o)
			}
		default:
			rej = append(rej, o)
		}
	}
	return nak, rej
}

func (p *ipcpPolicy) OnPeerAccepted(opts []Option) {
	for _, o := range opts {
		if o.Type == OptIPAddress && len(o.Data) == 4 {
			p.peer = netip.AddrFrom4([4]byte(o.Data))
		}
	}
}

// --- Client ---

// ClientConfig configures a PPP client (the host side of the dial-up).
type ClientConfig struct {
	Name    string
	Loop    *sim.Loop
	Channel ByteChannel
	Creds   Credentials
	MRU     uint16 // default 1500
	// EchoInterval/EchoFailure configure LCP keepalives (pppd's
	// lcp-echo-interval/lcp-echo-failure): an Echo-Request is sent every
	// interval while up; EchoFailure consecutive unanswered requests
	// tear the link down (carrier-loss detection). EchoInterval 0
	// disables keepalives; EchoFailure defaults to 3.
	EchoInterval time.Duration
	EchoFailure  int
	// OnUp fires when IPCP converges. OnDown fires when the connection
	// leaves the running state, with a reason.
	OnUp   func(local, peer netip.Addr)
	OnDown func(reason string)
	// OnIPv4 receives incoming IP datagrams while running. b is only
	// valid for the duration of the call.
	OnIPv4 func(b []byte)
	Trace  func(format string, args ...any)
}

// Client is the host-side PPP endpoint.
type Client struct {
	cfg   ClientConfig
	link  *link
	lcp   *automaton
	ipcp  *automaton
	lcpP  *lcpPolicy
	ipcpP *ipcpPolicy
	phase Phase

	papTimer   sim.Timer
	papRetries int

	echoTicker *sim.Ticker
	echoMisses int
}

// NewClient creates a client bound to the channel. Call Start to begin
// negotiation (after the modem reports carrier).
func NewClient(cfg ClientConfig) *Client {
	if cfg.MRU == 0 {
		cfg.MRU = 1500
	}
	if cfg.EchoFailure == 0 {
		cfg.EchoFailure = 3
	}
	c := &Client{cfg: cfg, phase: PhaseDead}
	c.link = newLink(cfg.Loop, cfg.Channel)
	c.lcpP = &lcpPolicy{
		mru: cfg.MRU, magic: cfg.Loop.RNG("ppp/magic/" + cfg.Name).Uint32(),
		allowPAP: true, allowCHAP: true, localACCM0: true,
	}
	c.lcp = newAutomaton(automatonConfig{
		Name: cfg.Name + "/lcp", Proto: ProtoLCP, Loop: cfg.Loop,
		Send: c.link.sendControl, Policy: c.lcpP,
		OnUp: c.lcpUp,
		OnDown: func() {
			// This-Layer-Down. During a locally initiated Terminate the
			// connection must survive until This-Layer-Finished: tearing
			// it down here would let the owner destroy the channel while
			// our Terminate-Request is still in flight (RFC 1661 §4.4).
			if c.phase == PhaseTerminate {
				return
			}
			c.down("LCP down")
		},
		OnFinished:  func(reason string) { c.down(reason) },
		OnEchoReply: func() { c.echoMisses = 0 },
		Trace:       cfg.Trace,
	})
	c.link.lcp = c.lcp
	c.ipcpP = &ipcpPolicy{local: netip.AddrFrom4([4]byte{0, 0, 0, 0})}
	c.ipcp = newAutomaton(automatonConfig{
		Name: cfg.Name + "/ipcp", Proto: ProtoIPCP, Loop: cfg.Loop,
		Send: c.link.sendControl, Policy: c.ipcpP,
		OnUp:       c.ipcpUp,
		OnDown:     func() {},
		OnFinished: func(reason string) { c.down("IPCP: " + reason) },
		Trace:      cfg.Trace,
	})
	c.link.handler[ProtoLCP] = c.controlInput(c.lcp)
	c.link.handler[ProtoIPCP] = c.controlInput(c.ipcp)
	c.link.handler[ProtoCHAP] = c.chapInput
	c.link.handler[ProtoPAP] = c.papInput
	c.link.handler[ProtoIPv4] = func(b []byte) {
		if c.phase == PhaseRunning && c.cfg.OnIPv4 != nil {
			c.cfg.OnIPv4(b)
		}
	}
	return c
}

func (c *Client) controlInput(a *automaton) func([]byte) {
	return func(info []byte) {
		p, err := ParseControl(info)
		if err != nil {
			return
		}
		a.Input(p)
	}
}

// Start begins LCP negotiation (lower layer is up).
func (c *Client) Start() {
	c.phase = PhaseEstablish
	c.lcp.Open()
	c.lcp.Up()
}

// CarrierLost signals that the underlying line dropped (tty hangup /
// DCD deasserted): the connection goes down immediately without a
// Terminate exchange, like pppd on SIGHUP.
func (c *Client) CarrierLost() {
	if c.phase == PhaseDead {
		return
	}
	c.down("carrier lost")
	c.lcp.Down()
}

// Terminate closes the connection gracefully.
func (c *Client) Terminate(reason string) {
	if c.phase == PhaseDead {
		return
	}
	c.phase = PhaseTerminate
	c.lcp.Close(reason)
}

func (c *Client) lcpUp() {
	c.link.accm0 = c.lcpP.accm0()
	if c.cfg.EchoInterval > 0 {
		c.echoMisses = 0
		c.echoTicker = c.cfg.Loop.NewTicker(c.cfg.EchoInterval, c.echoTick)
	}
	switch c.lcpP.mustAuth {
	case ProtoCHAP:
		c.phase = PhaseAuthenticate // wait for the server's challenge
	case ProtoPAP:
		c.phase = PhaseAuthenticate
		c.papRetries = 4
		c.sendPapRequest()
	default:
		c.networkPhase()
	}
}

func (c *Client) sendPapRequest() {
	c.link.sendControl(ProtoPAP, ControlPacket{Code: PapAuthReq, ID: 1, Data: marshalPapRequest(c.cfg.Creds)})
	c.papTimer = c.cfg.Loop.After(restartInterval, func() {
		c.papRetries--
		if c.papRetries <= 0 {
			c.Terminate("PAP timeout")
			return
		}
		if c.phase == PhaseAuthenticate {
			c.sendPapRequest()
		}
	})
}

func (c *Client) papInput(info []byte) {
	p, err := ParseControl(info)
	if err != nil || c.phase != PhaseAuthenticate {
		return
	}
	c.papTimer.Cancel()
	switch p.Code {
	case PapAuthAck:
		c.networkPhase()
	case PapAuthNak:
		c.tracef("PAP rejected: %s", p.Data)
		c.Terminate("authentication failed")
	}
}

func (c *Client) chapInput(info []byte) {
	p, err := ParseControl(info)
	if err != nil {
		return
	}
	switch p.Code {
	case ChapChallenge:
		challenge, _, err := parseChapValue(p.Data)
		if err != nil {
			return
		}
		resp := chapHash(p.ID, c.cfg.Creds.Password, challenge)
		c.link.sendControl(ProtoCHAP, ControlPacket{
			Code: ChapResponse, ID: p.ID, Data: marshalChapValue(resp, c.cfg.Creds.User),
		})
	case ChapSuccess:
		if c.phase == PhaseAuthenticate {
			c.networkPhase()
		}
	case ChapFailure:
		c.tracef("CHAP failure: %s", p.Data)
		c.Terminate("authentication failed")
	}
}

func (c *Client) networkPhase() {
	c.phase = PhaseNetwork
	c.ipcp.Open()
	c.ipcp.Up()
}

func (c *Client) ipcpUp() {
	c.phase = PhaseRunning
	if c.cfg.OnUp != nil {
		c.cfg.OnUp(c.ipcpP.local, c.ipcpP.peer)
	}
}

// echoTick sends a keepalive and counts unanswered ones.
func (c *Client) echoTick() {
	if !c.lcp.Opened() {
		return
	}
	if c.echoMisses >= c.cfg.EchoFailure {
		c.tracef("LCP echo timeout (%d unanswered)", c.echoMisses)
		c.echoTicker.Stop()
		c.down("LCP echo timeout")
		c.lcp.Down() // carrier is gone: no point in a graceful TermReq
		return
	}
	c.echoMisses++
	c.lcp.SendEcho(c.lcpP.magic)
}

func (c *Client) down(reason string) {
	if c.phase == PhaseDead {
		return
	}
	if c.echoTicker != nil {
		c.echoTicker.Stop()
	}
	prev := c.phase
	c.phase = PhaseDead
	c.ipcp.Down()
	if prev != PhaseDead && c.cfg.OnDown != nil {
		c.cfg.OnDown(reason)
	}
}

func (c *Client) tracef(format string, args ...any) {
	if c.cfg.Trace != nil {
		c.cfg.Trace(c.cfg.Name+": "+format, args...)
	}
}

// Phase returns the connection phase.
func (c *Client) Phase() Phase { return c.phase }

// Up reports whether IP traffic can flow.
func (c *Client) Up() bool { return c.phase == PhaseRunning }

// LocalAddr returns the negotiated local address (valid when Up).
func (c *Client) LocalAddr() netip.Addr { return c.ipcpP.local }

// PeerAddr returns the negotiated peer address (valid when Up).
func (c *Client) PeerAddr() netip.Addr { return c.ipcpP.peer }

// PeerMRU returns the MRU the peer announced in LCP (0 if none).
func (c *Client) PeerMRU() uint16 { return c.lcpP.peerMRU }

// SendIPv4 transmits an IP datagram over the connection.
func (c *Client) SendIPv4(b []byte) error {
	if c.phase != PhaseRunning {
		return ErrNotUp
	}
	c.link.sendPPP(ProtoIPv4, b)
	return nil
}

// Stats returns frame counters (tx, rx, fcsErrors).
func (c *Client) Stats() (tx, rx, fcsErr uint64) {
	return c.link.TxFrames, c.link.RxFrames, c.link.deframe.FCSErrors
}

// --- Server ---

// ServerConfig configures the operator-side PPP endpoint (the network
// access server behind the GGSN).
type ServerConfig struct {
	Name    string
	Loop    *sim.Loop
	Channel ByteChannel
	// Auth selects the required authentication: ProtoCHAP, ProtoPAP, or
	// zero for none.
	Auth uint16
	// Secrets maps user names to passwords.
	Secrets map[string]string
	// LocalAddr is the server's own address (the GGSN endpoint).
	LocalAddr netip.Addr
	// Assign returns the address for the connecting peer.
	Assign func(user string) netip.Addr
	// OnUp fires when the session is fully up.
	OnUp func(user string, assigned netip.Addr)
	// OnDown fires when the session ends.
	OnDown func(reason string)
	// OnIPv4 receives the peer's IP datagrams. b is only valid for the
	// duration of the call.
	OnIPv4 func(b []byte)
	Trace  func(format string, args ...any)
}

// Server is the operator-side PPP endpoint.
type Server struct {
	cfg   ServerConfig
	link  *link
	lcp   *automaton
	ipcp  *automaton
	lcpP  *lcpPolicy
	ipcpP *ipcpPolicy
	phase Phase

	user      string
	assigned  netip.Addr
	challenge [16]byte // reused across authentications; see sendChallenge
	chapRNG   *rand.Rand
	chapID    byte
	authTimer sim.Timer
	authTries int
}

// NewServer creates the server endpoint on a channel.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, phase: PhaseDead}
	s.link = newLink(cfg.Loop, cfg.Channel)
	s.lcpP = &lcpPolicy{
		mru: 1500, magic: cfg.Loop.RNG("ppp/magic/" + cfg.Name).Uint32(),
		wantAuth: cfg.Auth, localACCM0: true,
	}
	s.lcp = newAutomaton(automatonConfig{
		Name: cfg.Name + "/lcp", Proto: ProtoLCP, Loop: cfg.Loop,
		Send: s.link.sendControl, Policy: s.lcpP,
		OnUp: s.lcpUp,
		OnDown: func() {
			// This-Layer-Down; see the client-side note — a graceful
			// Terminate keeps the session until This-Layer-Finished so
			// the Terminate-Request can drain through the bearer.
			if s.phase == PhaseTerminate {
				return
			}
			s.down("LCP down")
		},
		OnFinished: func(reason string) { s.down(reason) },
		Trace:      cfg.Trace,
	})
	s.link.lcp = s.lcp
	s.ipcpP = &ipcpPolicy{local: cfg.LocalAddr, assignFn: func() netip.Addr { return s.assigned }}
	s.ipcp = newAutomaton(automatonConfig{
		Name: cfg.Name + "/ipcp", Proto: ProtoIPCP, Loop: cfg.Loop,
		Send: s.link.sendControl, Policy: s.ipcpP,
		OnUp:       s.ipcpUp,
		OnDown:     func() {},
		OnFinished: func(reason string) { s.down("IPCP: " + reason) },
		Trace:      cfg.Trace,
	})
	s.link.handler[ProtoLCP] = func(info []byte) {
		p, err := ParseControl(info)
		if err == nil {
			s.lcp.Input(p)
		}
	}
	s.link.handler[ProtoIPCP] = func(info []byte) {
		p, err := ParseControl(info)
		if err == nil {
			s.ipcp.Input(p)
		}
	}
	s.link.handler[ProtoCHAP] = s.chapInput
	s.link.handler[ProtoPAP] = s.papInput
	s.link.handler[ProtoIPv4] = func(b []byte) {
		if s.phase == PhaseRunning && s.cfg.OnIPv4 != nil {
			s.cfg.OnIPv4(b)
		}
	}
	return s
}

// Start begins listening for the peer's negotiation.
func (s *Server) Start() {
	s.phase = PhaseEstablish
	s.lcp.Open()
	s.lcp.Up()
}

// Terminate closes the session.
func (s *Server) Terminate(reason string) {
	if s.phase == PhaseDead {
		return
	}
	s.phase = PhaseTerminate
	s.lcp.Close(reason)
}

func (s *Server) lcpUp() {
	s.link.accm0 = s.lcpP.accm0()
	switch s.cfg.Auth {
	case ProtoCHAP:
		s.phase = PhaseAuthenticate
		s.authTries = 3
		s.sendChallenge()
	case ProtoPAP:
		s.phase = PhaseAuthenticate // wait for the client's Auth-Request
	default:
		s.authenticated("")
	}
}

func (s *Server) sendChallenge() {
	s.chapID++
	if s.chapRNG == nil {
		s.chapRNG = s.cfg.Loop.RNG("ppp/chap/" + s.cfg.Name)
	}
	s.chapRNG.Read(s.challenge[:])
	s.link.sendControl(ProtoCHAP, ControlPacket{
		Code: ChapChallenge, ID: s.chapID, Data: marshalChapValue(s.challenge[:], s.cfg.Name),
	})
	s.authTimer = s.cfg.Loop.After(restartInterval, func() {
		s.authTries--
		if s.authTries <= 0 {
			s.Terminate("CHAP timeout")
			return
		}
		if s.phase == PhaseAuthenticate {
			s.sendChallenge()
		}
	})
}

func (s *Server) chapInput(info []byte) {
	p, err := ParseControl(info)
	if err != nil || p.Code != ChapResponse || s.phase != PhaseAuthenticate {
		return
	}
	if p.ID != s.chapID {
		return
	}
	s.authTimer.Cancel()
	resp, user, err := parseChapValue(p.Data)
	if err != nil {
		return
	}
	secret, ok := s.cfg.Secrets[user]
	if !ok || !chapVerify(p.ID, secret, s.challenge[:], resp) {
		s.link.sendControl(ProtoCHAP, ControlPacket{Code: ChapFailure, ID: p.ID, Data: []byte("bad secret")})
		s.Terminate("authentication failed")
		return
	}
	s.link.sendControl(ProtoCHAP, ControlPacket{Code: ChapSuccess, ID: p.ID, Data: []byte("welcome")})
	s.authenticated(user)
}

func (s *Server) papInput(info []byte) {
	p, err := ParseControl(info)
	if err != nil || p.Code != PapAuthReq {
		return
	}
	if s.phase != PhaseAuthenticate || s.cfg.Auth != ProtoPAP {
		return
	}
	creds, err := parsePapRequest(p.Data)
	if err != nil {
		return
	}
	secret, ok := s.cfg.Secrets[creds.User]
	if !ok || secret != creds.Password {
		s.link.sendControl(ProtoPAP, ControlPacket{Code: PapAuthNak, ID: p.ID, Data: []byte("bad credentials")})
		s.Terminate("authentication failed")
		return
	}
	s.link.sendControl(ProtoPAP, ControlPacket{Code: PapAuthAck, ID: p.ID})
	s.authenticated(creds.User)
}

func (s *Server) authenticated(user string) {
	s.user = user
	if s.cfg.Assign != nil {
		s.assigned = s.cfg.Assign(user)
	}
	s.phase = PhaseNetwork
	s.ipcp.Open()
	s.ipcp.Up()
}

func (s *Server) ipcpUp() {
	s.phase = PhaseRunning
	if s.cfg.OnUp != nil {
		s.cfg.OnUp(s.user, s.ipcpP.peer)
	}
}

func (s *Server) down(reason string) {
	if s.phase == PhaseDead {
		return
	}
	prev := s.phase
	s.phase = PhaseDead
	s.ipcp.Down()
	if prev != PhaseDead && s.cfg.OnDown != nil {
		s.cfg.OnDown(reason)
	}
}

// Phase returns the session phase.
func (s *Server) Phase() Phase { return s.phase }

// Up reports whether IP traffic can flow.
func (s *Server) Up() bool { return s.phase == PhaseRunning }

// PeerAddr returns the address assigned to the peer (valid when Up).
func (s *Server) PeerAddr() netip.Addr { return s.ipcpP.peer }

// User returns the authenticated user name.
func (s *Server) User() string { return s.user }

// SendIPv4 transmits an IP datagram to the peer.
func (s *Server) SendIPv4(b []byte) error {
	if s.phase != PhaseRunning {
		return ErrNotUp
	}
	s.link.sendPPP(ProtoIPv4, b)
	return nil
}
