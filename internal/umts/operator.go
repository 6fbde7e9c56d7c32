package umts

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/onelab/umtslab/internal/modem"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/ppp"
	"github.com/onelab/umtslab/internal/sim"
)

// Errors returned by the operator network.
var (
	ErrBadAPN        = errors.New("umts: unknown APN")
	ErrPoolExhausted = errors.New("umts: address pool exhausted")
	ErrBusySession   = errors.New("umts: session already active")
	ErrNotRegistered = errors.New("umts: terminal not registered on the network")
)

// AdaptationConfig controls the network's on-demand bearer upgrades: the
// behaviour the paper observed at ~50 s into the saturating flow ("some
// sort of adaptation algorithm happening inside the UMTS network", §3.2).
type AdaptationConfig struct {
	Enabled bool
	// SampleInterval is how often uplink occupancy is sampled.
	SampleInterval time.Duration
	// OccupancyThreshold is the buffer fill fraction counting as
	// sustained demand.
	OccupancyThreshold float64
	// HoldTime is how long demand must be sustained before the bearer is
	// upgraded one step.
	HoldTime time.Duration
	// IdleHoldTime, if non-zero, downgrades the bearer one step after
	// the uplink has been idle (empty buffer) this long — the release
	// half of on-demand allocation. Zero keeps upgrades sticky.
	IdleHoldTime time.Duration
}

// FadeConfig describes short radio-channel outages (deep fades) that
// pause the bearer.
type FadeConfig struct {
	MeanInterval time.Duration // exponential inter-fade time; zero disables
	MinDuration  time.Duration
	MaxDuration  time.Duration
}

// Config describes one operator network.
type Config struct {
	Name string
	APN  string
	// Pool is the subscriber address pool; GGSNAddr is the PPP peer
	// (GGSN) address.
	Pool     netip.Prefix
	GGSNAddr netip.Addr
	// Uplink/Downlink are the initial bearer configurations. The rate
	// ladders list the rates adaptation may move through; index 0 is the
	// initial rate and must match the corresponding RadioDirConfig.
	Uplink, Downlink           RadioDirConfig
	ULRateLadder, DLRateLadder []float64
	Adaptation                 AdaptationConfig
	Fades                      FadeConfig
	// CoreDelay is the one-way SGSN/GGSN transit time.
	CoreDelay time.Duration
	// AttachTime is the PDP-context activation latency (dial to bearer).
	AttachTime time.Duration
	// RegistrationTime is the time from terminal power-on to +CREG 0,1.
	RegistrationTime time.Duration
	// Auth is the PPP authentication the NAS demands (ppp.ProtoCHAP,
	// ppp.ProtoPAP, or 0); Secrets maps accepted users to passwords.
	Auth    uint16
	Secrets map[string]string
	// Firewall, when true, drops inbound packets that do not belong to a
	// flow initiated by the subscriber (the reason §2.2 keeps ssh on the
	// wired interface).
	Firewall bool
	// SignalQuality is the +CSQ value terminals report in this cell.
	SignalQuality int
}

// Commercial returns the calibrated profile of the commercial Italian
// operator used in §3: ~150 kbps initial uplink goodput, upgraded to
// ~400 kbps after ~50 s of sustained demand; CHAP with the operator's
// well-known web/web credentials; inbound firewall.
func Commercial() Config {
	return Config{
		Name:     "SimTel IT",
		APN:      "web.simtel.it",
		Pool:     netsim.MustPrefix("10.133.7.0/24"),
		GGSNAddr: netsim.MustAddr("10.133.0.1"),
		Uplink: RadioDirConfig{
			RateBps: 160e3, BaseDelay: 70 * time.Millisecond, TTI: 10 * time.Millisecond,
			HarqProb: 0.12, HarqRetx: 8 * time.Millisecond, HarqMax: 3, QueueBytes: 50000,
		},
		Downlink: RadioDirConfig{
			RateBps: 384e3, BaseDelay: 50 * time.Millisecond, TTI: 10 * time.Millisecond,
			HarqProb: 0.08, HarqRetx: 8 * time.Millisecond, HarqMax: 3, QueueBytes: 64000,
		},
		ULRateLadder: []float64{160e3, 416e3},
		DLRateLadder: []float64{384e3, 3.6e6},
		Adaptation: AdaptationConfig{
			Enabled: true, SampleInterval: time.Second,
			OccupancyThreshold: 0.25, HoldTime: 49 * time.Second,
		},
		Fades: FadeConfig{
			MeanInterval: 12 * time.Second,
			MinDuration:  150 * time.Millisecond,
			MaxDuration:  450 * time.Millisecond,
		},
		CoreDelay:        15 * time.Millisecond,
		AttachTime:       2500 * time.Millisecond,
		RegistrationTime: 1800 * time.Millisecond,
		Auth:             ppp.ProtoCHAP,
		Secrets:          map[string]string{"web": "web"},
		Firewall:         true,
		SignalQuality:    14,
	}
}

// CommercialCell derives the per-cell variant of the Commercial profile
// used by multi-cell scenarios: cell i keeps the calibrated radio and
// core behaviour but gets a distinct operator name (node names and RNG
// streams must be globally unique when many cells share one engine), a
// distinct APN, and a disjoint addressing plan — subscriber pool
// 10.(16+i).7.0/24, GGSN at 10.(16+i).0.1 — so K cells can coexist
// behind one routed core.
func CommercialCell(i int) Config {
	if i < 0 || i > 200 {
		panic(fmt.Sprintf("umts: cell index %d outside the 10.16-10.216 addressing plan", i))
	}
	cfg := Commercial()
	cfg.Name = fmt.Sprintf("SimTel IT cell%d", i)
	cfg.APN = fmt.Sprintf("cell%d.web.simtel.it", i)
	cfg.Pool = netsim.MustPrefix(fmt.Sprintf("10.%d.7.0/24", 16+i))
	cfg.GGSNAddr = netsim.MustAddr(fmt.Sprintf("10.%d.0.1", 16+i))
	return cfg
}

// FleetCell derives the fleet-scale variant of CommercialCell: the same
// calibrated radio and core behaviour and the same naming scheme, but
// the subscriber pool widens from a /24 (253 usable addresses) to the
// cell's whole 10.(16+i).0.0/16, so one cell can attach tens of
// thousands of subscribers (real or population-modeled). The GGSN keeps
// its 10.(16+i).0.1 address — inside the widened pool but never handed
// out, because the allocator skips the .0 network and .1 gateway slots.
func FleetCell(i int) Config {
	cfg := CommercialCell(i)
	cfg.Pool = netsim.MustPrefix(fmt.Sprintf("10.%d.0.0/16", 16+i))
	return cfg
}

// Config interning: fleets of operators built from equal configurations
// share one immutable *Config instance instead of each holding a ~300
// byte copy (plus ladders and secrets). The key is the full printed
// value — fmt prints map fields in sorted key order, so the key is
// deterministic — NOT the profile name: ablation runs reuse a name with
// different radio parameters and must stay distinct.
var (
	internMu  sync.Mutex
	internCfg = map[string]*Config{}
)

// InternConfig returns the canonical shared instance of cfg. The result
// must be treated as immutable; NewOperator interns its configuration
// automatically.
func InternConfig(cfg Config) *Config {
	key := fmt.Sprintf("%+v", cfg)
	internMu.Lock()
	defer internMu.Unlock()
	if c, ok := internCfg[key]; ok {
		return c
	}
	c := new(Config)
	*c = cfg
	internCfg[key] = c
	return c
}

// Microcell returns the profile of the Alcatel-Lucent private UMTS
// micro-cell at the 3G Reality Center in Vimercate (§2.1): a clean,
// lightly loaded cell with a fixed 384 kbps bearer, no fades, no inbound
// firewall, and OneLab credentials.
func Microcell() Config {
	return Config{
		Name:     "ALU 3G Reality Center",
		APN:      "onelab.vimercate",
		Pool:     netsim.MustPrefix("10.201.3.0/24"),
		GGSNAddr: netsim.MustAddr("10.201.0.1"),
		Uplink: RadioDirConfig{
			RateBps: 384e3, BaseDelay: 45 * time.Millisecond, TTI: 10 * time.Millisecond,
			HarqProb: 0.03, HarqRetx: 8 * time.Millisecond, HarqMax: 2, QueueBytes: 56000,
		},
		Downlink: RadioDirConfig{
			RateBps: 384e3, BaseDelay: 45 * time.Millisecond, TTI: 10 * time.Millisecond,
			HarqProb: 0.03, HarqRetx: 8 * time.Millisecond, HarqMax: 2, QueueBytes: 64000,
		},
		ULRateLadder:     []float64{384e3},
		DLRateLadder:     []float64{384e3},
		CoreDelay:        5 * time.Millisecond,
		AttachTime:       1200 * time.Millisecond,
		RegistrationTime: 900 * time.Millisecond,
		Auth:             ppp.ProtoCHAP,
		Secrets:          map[string]string{"onelab": "onelab"},
		SignalQuality:    27,
	}
}

// Operator is one UMTS network: cell, core, GGSN, firewall.
type Operator struct {
	loop *sim.Loop
	cfg  *Config // interned, immutable
	ggsn *netsim.Node
	gi   *netsim.Iface

	sessions  map[netip.Addr]*session
	usedAddrs map[netip.Addr]bool
	nextIface int

	// regCohort batches registration timers: every terminal powered on
	// at the same virtual instant shares one After(RegistrationTime)
	// timer instead of scheduling its own.
	regCohort   *regCohort
	regCohortAt time.Duration

	// pops are the attached aggregate background populations; cell-wide
	// radio faults (PauseRadio/ResumeRadio/ScaleRates) apply to them
	// like to every real session.
	pops []*Population

	conntrack     map[netsim.FlowKey]bool
	FirewallDrops uint64
}

// NewOperator creates the operator's network elements; the GGSN node is
// registered in nw under "<name>-ggsn". Wire the GGSN's Gi interface to
// the Internet with nw.WireP2P and pass its name to SetGi.
func NewOperator(loop *sim.Loop, nw *netsim.Network, cfg Config) *Operator {
	op := &Operator{
		loop:      loop,
		cfg:       InternConfig(cfg),
		sessions:  make(map[netip.Addr]*session),
		usedAddrs: make(map[netip.Addr]bool),
		conntrack: make(map[netsim.FlowKey]bool),
	}
	op.ggsn = nw.AddNode(sanitize(cfg.Name) + "-ggsn")
	op.ggsn.Forwarding = true
	op.ggsn.AddIface("ggsn0", cfg.GGSNAddr, netip.Prefix{})
	op.ggsn.Route = op.route
	op.ggsn.Hooks.PreRouting = op.preRouting
	op.ggsn.Hooks.PostRouting = op.postRouting
	return op
}

func sanitize(s string) string {
	return strings.ToLower(strings.ReplaceAll(s, " ", "-"))
}

// Config returns a copy of the operator configuration.
func (op *Operator) Config() Config { return *op.cfg }

// regCohort is one batch of terminals powered on at the same instant,
// all registering when the shared timer fires.
type regCohort struct {
	terms []*Terminal
}

// enrollRegistration adds a freshly powered-on terminal to the current
// instant's registration cohort, creating the cohort — and its single
// After(RegistrationTime) timer — on first use. Bulk bring-up of M
// terminals therefore schedules one timer per creation batch instead of
// M; the per-terminal semantics are unchanged (each flips to RegHome at
// creation+RegistrationTime, unconditionally, exactly like the old
// per-terminal timers did).
func (op *Operator) enrollRegistration(t *Terminal) {
	now := op.loop.Now()
	if op.regCohort == nil || op.regCohortAt != now {
		c := &regCohort{}
		op.regCohort, op.regCohortAt = c, now
		op.loop.After(op.cfg.RegistrationTime, func() {
			if op.regCohort == c {
				op.regCohort = nil
			}
			for _, t := range c.terms {
				t.reg = modem.RegHome
			}
			op.loop.Metrics().Counter("umts/registrations").Add(int64(len(c.terms)))
		})
	}
	op.regCohort.terms = append(op.regCohort.terms, t)
}

// GGSN returns the operator's gateway node, for wiring to the Internet.
func (op *Operator) GGSN() *netsim.Node { return op.ggsn }

// SetGi declares which GGSN interface reaches the Internet.
func (op *Operator) SetGi(ifaceName string) {
	op.gi = op.ggsn.Iface(ifaceName)
	if op.gi == nil {
		panic(fmt.Sprintf("umts: no such GGSN iface %q", ifaceName))
	}
}

func (op *Operator) route(pkt *netsim.Packet) (netsim.RouteResult, error) {
	if sess, ok := op.sessions[pkt.Dst]; ok && !sess.closed {
		return netsim.RouteResult{Iface: sess.iface, Table: "gtp"}, nil
	}
	if op.gi != nil {
		return netsim.RouteResult{Iface: op.gi, Table: "gi"}, nil
	}
	return netsim.RouteResult{}, netsim.ErrNoRoute
}

// preRouting records subscriber-initiated flows for the stateful
// firewall.
func (op *Operator) preRouting(pkt *netsim.Packet, _ *netsim.Iface) netsim.Verdict {
	if op.cfg.Firewall && strings.HasPrefix(pkt.InIface, "gtp") {
		op.conntrack[pkt.Flow()] = true
	}
	return netsim.VerdictAccept
}

// postRouting enforces the inbound firewall on traffic toward
// subscribers.
func (op *Operator) postRouting(pkt *netsim.Packet, out *netsim.Iface) netsim.Verdict {
	if !op.cfg.Firewall || out == nil || !strings.HasPrefix(out.Name, "gtp") {
		return netsim.VerdictAccept
	}
	if op.conntrack[pkt.Flow().Reverse()] {
		return netsim.VerdictAccept
	}
	op.FirewallDrops++
	return netsim.VerdictDrop
}

// PoolSize is the number of subscriber addresses the pool hands out:
// all of it but the network and .1 addresses (see allocAddr).
func (c Config) PoolSize() int { return 1<<(32-c.Pool.Bits()) - 2 }

// allocAddr takes the next free address from the pool (skipping the
// network and .1 addresses).
func (op *Operator) allocAddr() (netip.Addr, error) {
	a := op.cfg.Pool.Addr().Next().Next() // skip .0 and .1
	for op.cfg.Pool.Contains(a) {
		if !op.usedAddrs[a] {
			op.usedAddrs[a] = true
			return a, nil
		}
		a = a.Next()
	}
	return netip.Addr{}, ErrPoolExhausted
}

// reserveAddrs takes n free addresses from the pool in a single scan —
// the bulk path populations use. Per-dial allocAddr restarts its scan
// each call, which is fine one address at a time but O(n²) when an
// ensemble attaches. All-or-nothing: on exhaustion every reservation is
// rolled back.
func (op *Operator) reserveAddrs(n int) ([]netip.Addr, error) {
	out := make([]netip.Addr, 0, n)
	for a := op.cfg.Pool.Addr().Next().Next(); op.cfg.Pool.Contains(a) && len(out) < n; a = a.Next() {
		if !op.usedAddrs[a] {
			op.usedAddrs[a] = true
			out = append(out, a)
		}
	}
	if len(out) < n {
		op.releaseAddrs(out)
		return nil, ErrPoolExhausted
	}
	return out, nil
}

func (op *Operator) releaseAddrs(addrs []netip.Addr) {
	for _, a := range addrs {
		delete(op.usedAddrs, a)
	}
}

// PoolOccupancy returns the number of pool addresses currently held —
// by established PDP contexts and by attached populations.
func (op *Operator) PoolOccupancy() int { return len(op.usedAddrs) }

// ActiveSessions returns the number of established PDP contexts.
func (op *Operator) ActiveSessions() int { return len(op.sessions) }

// session is one subscriber's PDP context: radio bearer, PPP
// termination, and GGSN attachment.
type session struct {
	op   *Operator
	term *Terminal
	addr netip.Addr

	ul, dl *radioDir
	srv    *ppp.Server
	srvCh  *srvChannel
	bearer *bearer
	iface  *netsim.Iface
	adapt  *sim.Ticker
	fade   sim.Timer

	// GTP hop plumbing: packets in core transit in each direction and
	// their callbacks, bound once per session. CoreDelay is constant, so
	// transit events fire in the order they were scheduled and each one
	// pops the head of its FIFO.
	toPPP    sim.FIFO[[]byte]         // marshaled datagrams for the PPP server
	toGGSN   sim.FIFO[*netsim.Packet] // decoded datagrams for the gtp iface
	toPPPFn  func()
	toGGSNFn func()
	rateIdx  int
	sustain  time.Duration
	idle     time.Duration
	events   []string
	closed   bool
}

func (op *Operator) newSession(term *Terminal) (*session, error) {
	addr, err := op.allocAddr()
	if err != nil {
		return nil, err
	}
	sess := &session{op: op, term: term, addr: addr}
	sess.toPPPFn = sess.deliverToPPP
	sess.toGGSNFn = sess.deliverToGGSN
	loop := op.loop

	rng := loop.RNG("umts/radio/" + term.IMSI())
	sess.srvCh = &srvChannel{sess: sess}
	sess.bearer = &bearer{sess: sess}
	sess.ul = newRadioDir(loop, rng, "umts/ul", op.cfg.Uplink, func(p []byte) {
		if sess.srvCh.recv != nil {
			sess.srvCh.recv(p)
		}
	})
	sess.dl = newRadioDir(loop, rng, "umts/dl", op.cfg.Downlink, func(p []byte) {
		if sess.bearer.recv != nil {
			sess.bearer.recv(p)
		}
	})

	// GGSN attachment: a gtpN interface whose link hands packets to the
	// PPP server after the core transit delay.
	name := fmt.Sprintf("gtp%d", op.nextIface)
	op.nextIface++
	sess.iface = op.ggsn.AddIface(name, netip.Addr{}, netip.Prefix{})
	sess.iface.SetLink(netsim.FuncLink(func(_ *netsim.Iface, pkt *netsim.Packet) {
		// The link owns pkt: marshal into a recycled wire buffer and
		// free the packet right away. The wire buffer is recycled once
		// the PPP server has framed it (SendIPv4's channel write copies
		// into the radio queue).
		wire := pkt.AppendMarshal(loop.Buffers().Get(pkt.Length())[:0])
		pkt.Free(loop.Buffers())
		sess.toPPP.Push(wire)
		loop.After(op.cfg.CoreDelay, sess.toPPPFn)
	}))

	sess.srv = ppp.NewServer(ppp.ServerConfig{
		Name: "nas/" + term.IMSI(), Loop: loop, Channel: sess.srvCh,
		Auth: op.cfg.Auth, Secrets: op.cfg.Secrets,
		LocalAddr: op.cfg.GGSNAddr,
		Assign:    func(string) netip.Addr { return addr },
		OnIPv4: func(b []byte) {
			pkt, err := netsim.UnmarshalPooled(b, loop.Buffers())
			if err != nil {
				return
			}
			sess.toGGSN.Push(pkt)
			loop.After(op.cfg.CoreDelay, sess.toGGSNFn)
		},
		OnDown: func(reason string) {
			op.closeSession(sess, "ppp: "+reason, true)
		},
	})
	sess.srv.Start()

	if op.cfg.Adaptation.Enabled && op.cfg.Adaptation.SampleInterval > 0 {
		sess.adapt = loop.NewTicker(op.cfg.Adaptation.SampleInterval, sess.sampleAdaptation)
	}
	if op.cfg.Fades.MeanInterval > 0 {
		sess.scheduleFade(rng)
	}

	op.sessions[addr] = sess
	op.loop.Metrics().Counter("umts/pdp_activations").Inc()
	sess.logf("PDP context activated, addr %s", addr)
	return sess, nil
}

// deliverToPPP ends a downlink core transit: the PPP server frames the
// oldest datagram in transit (SendIPv4's channel write copies it into
// the radio queue), then its wire buffer is recycled.
func (sess *session) deliverToPPP() {
	wire := sess.toPPP.Pop()
	if !sess.closed {
		sess.srv.SendIPv4(wire)
	}
	sess.op.loop.Buffers().Put(wire)
}

// deliverToGGSN ends an uplink core transit: the oldest datagram in
// transit emerges on the session's gtp interface, or is freed if the
// session closed meanwhile.
func (sess *session) deliverToGGSN() {
	pkt := sess.toGGSN.Pop()
	if sess.closed {
		pkt.Free(sess.op.loop.Buffers())
		return
	}
	sess.iface.Deliver(pkt)
}

func (sess *session) logf(format string, args ...any) {
	sess.events = append(sess.events,
		fmt.Sprintf("[%8.3fs] %s", sess.op.loop.Now().Seconds(), fmt.Sprintf(format, args...)))
}

// Events returns the session's bearer event log.
func (sess *session) Events() []string { return append([]string(nil), sess.events...) }

func (sess *session) sampleAdaptation() {
	if sess.closed {
		return
	}
	cfg := sess.op.cfg
	limit := cfg.Uplink.QueueBytes
	if limit == 0 {
		return
	}
	occupancy := float64(sess.ul.QueuedBytes()) / float64(limit)
	if occupancy >= cfg.Adaptation.OccupancyThreshold {
		sess.sustain += cfg.Adaptation.SampleInterval
		sess.idle = 0
	} else {
		sess.sustain = 0
		if sess.ul.QueuedBytes() == 0 {
			sess.idle += cfg.Adaptation.SampleInterval
		} else {
			sess.idle = 0
		}
	}
	if sess.sustain >= cfg.Adaptation.HoldTime && sess.rateIdx+1 < len(cfg.ULRateLadder) {
		sess.rateIdx++
		sess.sustain = 0
		ul := cfg.ULRateLadder[sess.rateIdx]
		sess.ul.setRate(ul)
		if sess.rateIdx < len(cfg.DLRateLadder) {
			sess.dl.setRate(cfg.DLRateLadder[sess.rateIdx])
		}
		sess.op.loop.Metrics().Counter("umts/rab_upgrades").Inc()
		sess.logf("bearer upgraded: uplink %.0f kbps", ul/1000)
	}
	if cfg.Adaptation.IdleHoldTime > 0 && sess.idle >= cfg.Adaptation.IdleHoldTime && sess.rateIdx > 0 {
		sess.rateIdx--
		sess.idle = 0
		ul := cfg.ULRateLadder[sess.rateIdx]
		sess.ul.setRate(ul)
		if sess.rateIdx < len(cfg.DLRateLadder) {
			sess.dl.setRate(cfg.DLRateLadder[sess.rateIdx])
		}
		sess.op.loop.Metrics().Counter("umts/rab_downgrades").Inc()
		sess.logf("bearer released: uplink %.0f kbps", ul/1000)
	}
}

func (sess *session) scheduleFade(rng interface{ ExpFloat64() float64 }) {
	cfg := sess.op.cfg.Fades
	wait := time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterval))
	if wait < time.Second {
		wait = time.Second
	}
	sess.fade = sess.op.loop.After(wait, func() {
		if sess.closed {
			return
		}
		span := cfg.MaxDuration - cfg.MinDuration
		dur := cfg.MinDuration
		if span > 0 {
			dur += time.Duration(sess.op.loop.RNG("umts/fade/" + sess.term.IMSI()).Int63n(int64(span)))
		}
		sess.ul.pause()
		sess.dl.pause()
		sess.op.loop.After(dur, func() {
			sess.ul.resume()
			sess.dl.resume()
		})
		sess.scheduleFade(rng)
	})
}

// closeSession tears a session down. Safe to call multiple times.
func (op *Operator) closeSession(sess *session, reason string, notifyTerminal bool) {
	if sess.closed {
		return
	}
	sess.closed = true
	sess.logf("session closed: %s", reason)
	if sess.adapt != nil {
		sess.adapt.Stop()
	}
	sess.fade.Cancel()
	sess.ul.close()
	sess.dl.close()
	op.ggsn.RemoveIface(sess.iface.Name)
	delete(op.sessions, sess.addr)
	delete(op.usedAddrs, sess.addr)
	op.loop.Metrics().Counter("umts/pdp_releases").Inc()
	if sess.term != nil && sess.term.sess == sess {
		sess.term.sess = nil
		if notifyTerminal && sess.term.OnCarrierLost != nil {
			sess.term.OnCarrierLost()
		}
	}
}

// DropAllSessions force-closes every active session (coverage loss,
// operator maintenance); terminals observe NO CARRIER.
func (op *Operator) DropAllSessions(reason string) {
	for _, sess := range op.sessionsSnapshot() {
		op.closeSession(sess, reason, true)
	}
}

// PauseRadio suspends every active bearer in both directions — a deep
// signal fade across the cell. Sessions stay up; packets queue (and
// drop-tail) until ResumeRadio.
func (op *Operator) PauseRadio() {
	for _, sess := range op.sessionsSnapshot() {
		sess.ul.pause()
		sess.dl.pause()
	}
	for _, p := range op.pops {
		p.pause()
	}
}

// ResumeRadio ends a PauseRadio fade.
func (op *Operator) ResumeRadio() {
	for _, sess := range op.sessionsSnapshot() {
		sess.ul.resume()
		sess.dl.resume()
	}
	for _, p := range op.pops {
		p.resume()
	}
}

// ScaleRates applies a multiplicative factor to every active bearer's
// rate in both directions (signal degradation); 1 restores nominal.
// Rate adaptation keeps working on the nominal ladder underneath.
func (op *Operator) ScaleRates(scale float64) {
	for _, sess := range op.sessionsSnapshot() {
		sess.ul.setScale(scale)
		sess.dl.setScale(scale)
	}
	for _, p := range op.pops {
		p.setScale(scale)
	}
}

// TerminatePPP sends a graceful network-side LCP Terminate-Request on
// every active session, as the GGSN does when tearing contexts down for
// maintenance. Unlike DropAllSessions the link layer gets to say
// goodbye; the session closes when LCP finishes.
func (op *Operator) TerminatePPP(reason string) {
	for _, sess := range op.sessionsSnapshot() {
		sess.srv.Terminate(reason)
	}
}

// sessionsSnapshot returns the active sessions sorted by subscriber
// address: map iteration order must not leak into event order when a
// caller acts on all sessions (determinism).
func (op *Operator) sessionsSnapshot() []*session {
	out := make([]*session, 0, len(op.sessions))
	for _, s := range op.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr.Less(out[j].addr) })
	return out
}

// bearer is the modem-side endpoint of the radio bearer.
type bearer struct {
	sess *session
	recv func([]byte)
}

func (b *bearer) Write(p []byte) int {
	// Copy into a recycled chunk; the radio returns it to the pool on
	// delivery or drop.
	ul := b.sess.ul
	cp := ul.loop.Buffers().Get(len(p))
	copy(cp, p)
	ul.send(cp)
	return len(p)
}
func (b *bearer) SetReceiver(fn func([]byte)) { b.recv = fn }
func (b *bearer) Close()                      { b.sess.op.closeSession(b.sess, "modem hangup", false) }

// srvChannel is the NAS-side byte channel under the PPP server.
type srvChannel struct {
	sess *session
	recv func([]byte)
}

func (c *srvChannel) Write(p []byte) int {
	dl := c.sess.dl
	cp := dl.loop.Buffers().Get(len(p))
	copy(cp, p)
	dl.send(cp)
	return len(p)
}
func (c *srvChannel) SetReceiver(fn func([]byte)) { c.recv = fn }
