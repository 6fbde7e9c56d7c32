// Package testbed assembles the full Private-OneLab scenario of the
// paper: a PlanetLab node in Napoli equipped with a 3G datacard and a
// wired campus uplink, a PlanetLab node at INRIA, the research Internet
// between them, and a UMTS operator network whose GGSN also reaches the
// Internet. On top of the topology it provides the §3 experiment
// drivers (VoIP and 1 Mbps CBR over the UMTS-to-Ethernet and
// Ethernet-to-Ethernet paths).
package testbed

import (
	"fmt"
	"net/netip"

	"github.com/onelab/umtslab/internal/core"
	"github.com/onelab/umtslab/internal/dialer"
	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/iproute"
	"github.com/onelab/umtslab/internal/kmod"
	"github.com/onelab/umtslab/internal/modem"
	"github.com/onelab/umtslab/internal/netfilter"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/ppp"
	"github.com/onelab/umtslab/internal/serial"
	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/umts"
	"github.com/onelab/umtslab/internal/vserver"
	"github.com/onelab/umtslab/internal/vsys"
)

// Fixed testbed addressing.
var (
	NapoliEthAddr = netsim.MustAddr("160.80.1.2") // unina.it campus
	NapoliGWAddr  = netsim.MustAddr("160.80.1.1")
	InriaEthAddr  = netsim.MustAddr("138.96.1.2") // inria.fr
	InriaGWAddr   = netsim.MustAddr("138.96.1.1")
	GGSNGiAddr    = netsim.MustAddr("192.0.77.2")
	GGSNGWAddr    = netsim.MustAddr("192.0.77.1")
)

// Options configure the scenario.
type Options struct {
	// Seed drives every random stream; identical seeds reproduce runs
	// exactly.
	Seed int64
	// Operator selects the UMTS network profile (default
	// umts.Commercial()).
	Operator *umts.Config
	// Card selects the datacard (default modem.Globetrotter).
	Card *modem.CardProfile
	// PIN locks the SIM (default unlocked).
	PIN string
	// Faults is the deterministic fault schedule armed against the
	// scenario: carrier drops, fades, rate fades, registration losses,
	// network-side LCP terminates, and Gi-link flaps, all at virtual
	// times. The zero value arms nothing and leaves the run
	// byte-identical to one without the fault layer.
	Faults fault.Schedule
	// SelfHeal runs the umts backend in recover mode: on carrier loss
	// the slice keeps its lock while a dialer.Supervisor redials with
	// capped exponential backoff, instead of the legacy fail-fast
	// unlock.
	SelfHeal bool
	// HealPolicy overrides the supervisor's redial policy when SelfHeal
	// is set (nil uses dialer.Policy defaults).
	HealPolicy *dialer.Policy
	// Trace receives verbose progress lines.
	Trace func(format string, args ...any)
	// Interrupt, when non-nil, is polled by the loop (about once per
	// 4096 events); once it returns true the run is abandoned and the
	// experiment fails with ErrInterrupted. Must be goroutine-safe.
	Interrupt func() bool
}

// Testbed is the assembled scenario.
type Testbed struct {
	Loop *sim.Loop
	Net  *netsim.Network

	// Napoli: the UMTS-equipped PlanetLab node.
	Napoli       *netsim.Node
	NapoliHost   *vserver.Host
	NapoliRouter *iproute.Router
	NapoliFilter *netfilter.Stack
	Kmods        *kmod.Registry
	Vsys         *vsys.Manager
	Manager      *core.Manager
	Modem        *modem.Modem
	Terminal     *umts.Terminal
	Line         *serial.Line

	// Inria: the wired remote node.
	Inria       *netsim.Node
	InriaHost   *vserver.Host
	InriaRouter *iproute.Router

	// Infrastructure.
	Internet *netsim.Node
	Operator *umts.Operator

	// Faults is the armed injector (inert when Options.Faults was
	// empty); Windows() reports the scheduled outage intervals.
	Faults *fault.Injector

	napoli     plNode
	coreRouter *iproute.Router
}

// New assembles the scenario.
func New(opts Options) (*Testbed, error) {
	if opts.Operator == nil {
		cfg := umts.Commercial()
		opts.Operator = &cfg
	}
	if opts.Card == nil {
		card := modem.Globetrotter
		opts.Card = &card
	}

	loop := sim.NewLoop(opts.Seed)
	if opts.Interrupt != nil {
		loop.SetInterrupt(opts.Interrupt)
	}
	nw := netsim.NewNetwork(loop)
	tb := &Testbed{Loop: loop, Net: nw}

	// Nodes.
	tb.Napoli = nw.AddNode("planetlab.unina.it")
	tb.Inria = nw.AddNode("planetlab.inria.fr")
	tb.Internet = nw.AddNode("grn-core")
	tb.Internet.Forwarding = true

	eth := wiredLink(ethDelay)
	nw.WireP2P("napoli-grn", tb.Napoli, "eth0", NapoliEthAddr, tb.Internet, "to-napoli", NapoliGWAddr, eth, eth)
	nw.WireP2P("inria-grn", tb.Inria, "eth0", InriaEthAddr, tb.Internet, "to-inria", InriaGWAddr, eth, eth)

	// Operator network and its Gi uplink.
	tb.Operator = umts.NewOperator(loop, nw, *opts.Operator)
	giLink := nw.WireP2P("ggsn-grn", tb.Operator.GGSN(), "gi0", GGSNGiAddr, tb.Internet, "to-ggsn", GGSNGWAddr, eth, eth)
	tb.Operator.SetGi("gi0")

	// Internet core routing.
	coreRouter := iproute.New(tb.Internet)
	tb.coreRouter = coreRouter
	coreRouter.AddRoute(iproute.TableMain, iproute.Route{Dst: netip.PrefixFrom(NapoliEthAddr, 32), Iface: "to-napoli"})
	coreRouter.AddRoute(iproute.TableMain, iproute.Route{Dst: netip.PrefixFrom(InriaEthAddr, 32), Iface: "to-inria"})
	coreRouter.AddRoute(iproute.TableMain, iproute.Route{Dst: opts.Operator.Pool, Iface: "to-ggsn", Gateway: GGSNGiAddr})
	coreRouter.AddRoute(iproute.TableMain, iproute.Route{Dst: netip.PrefixFrom(GGSNGiAddr, 32), Iface: "to-ggsn"})

	// Napoli node: the terminal, then the PlanetLab stack around it.
	tb.Terminal = tb.Operator.NewTerminal("222015550001")
	napoli, err := newPLNode(loop, tb.Napoli, tb.Terminal, *opts.Card, *opts.Operator,
		opts.PIN, recoverPolicy(opts.SelfHeal, opts.HealPolicy), opts.Trace)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	napoli.router.DefaultVia("eth0", NapoliGWAddr)
	tb.napoli = napoli
	tb.NapoliHost, tb.NapoliRouter, tb.NapoliFilter = napoli.host, napoli.router, napoli.filter
	tb.Kmods, tb.Vsys, tb.Manager = napoli.kmods, napoli.vsys, napoli.mgr
	tb.Line, tb.Modem = napoli.line, napoli.modem

	// INRIA node software stack (no UMTS hardware).
	tb.InriaHost = vserver.NewHost(tb.Inria)
	tb.InriaRouter = iproute.New(tb.Inria)
	tb.InriaRouter.InstallConnected()
	tb.InriaRouter.DefaultVia("eth0", InriaGWAddr)
	netfilter.New(tb.Inria)

	// Both end nodes answer pings (kernel default), for diagnostics.
	if err := netsim.EnableEchoResponder(tb.Inria); err != nil {
		return nil, err
	}
	if err := netsim.EnableEchoResponder(tb.Napoli); err != nil {
		return nil, err
	}

	// Fault injection, armed last so hooks see the finished topology.
	// An empty schedule registers no instruments, draws no randomness,
	// and schedules no events, so faultless runs stay byte-identical.
	// A Gi flap sets the loss of both directions of the P2P link.
	giLoss := func(loss float64) {
		giLink.SetLossProb(0, loss)
		giLink.SetLossProb(1, loss)
	}
	inj, err := fault.Arm(loop, opts.Faults, faultHooks(tb.Operator, []*umts.Terminal{tb.Terminal}, giLoss))
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	tb.Faults = inj

	return tb, nil
}

// recoverPolicy materializes the core backend's recover-mode knob from
// the SelfHeal/HealPolicy pair.
func recoverPolicy(selfHeal bool, p *dialer.Policy) *dialer.Policy {
	if !selfHeal {
		return nil
	}
	if p != nil {
		pc := *p
		return &pc
	}
	return &dialer.Policy{}
}

// faultHooks binds one cell's injector to the cell: its operator's
// radio and session controls, its terminals' registration state, and
// giLoss, which sets the loss probability of its Gi uplink (a link flap
// sets it, and sets it back to zero when the flap ends). The link draws
// its loss RNG only while the probability is positive, so flap windows
// cannot perturb randomness outside themselves.
func faultHooks(op *umts.Operator, terms []*umts.Terminal, giLoss func(loss float64)) fault.Hooks {
	return fault.Hooks{
		CarrierDrop: func() { op.DropAllSessions("fault: carrier drop") },
		FadeStart:   op.PauseRadio,
		FadeEnd:     op.ResumeRadio,
		RateScale:   op.ScaleRates,
		RegistrationDown: func() {
			for _, t := range terms {
				t.LoseRegistration("fault: registration lost")
			}
		},
		RegistrationUp: func() {
			for _, t := range terms {
				t.Reregister()
			}
		},
		PPPTerminate: func() { op.TerminatePPP("fault: network maintenance") },
		LinkDown:     giLoss,
		LinkUp:       func() { giLoss(0) },
	}
}

// plNode is the software and hardware of one UMTS-equipped PlanetLab
// node: the Napoli node of the paper, and every terminal of a
// multi-cell run.
type plNode struct {
	host   *vserver.Host
	router *iproute.Router
	filter *netfilter.Stack
	kmods  *kmod.Registry
	vsys   *vsys.Manager
	line   *serial.Line
	modem  *modem.Modem
	mgr    *core.Manager
}

// newPLNode assembles the PlanetLab stack on node around the radio
// terminal: the vserver host, iproute with the connected routes,
// netfilter, the kernel modules the §2.3 setup loads, vsys, the serial
// line and the datacard, and the umts backend (core.Manager) dialing
// op's APN. heal, when non-nil, runs the backend in recover mode.
func newPLNode(loop *sim.Loop, node *netsim.Node, radio *umts.Terminal, card modem.CardProfile,
	op umts.Config, pin string, heal *dialer.Policy, trace func(string, ...any)) (plNode, error) {
	n := plNode{host: vserver.NewHost(node), router: iproute.New(node)}
	n.router.InstallConnected()
	n.filter = netfilter.New(node)
	n.kmods = kmod.NewRegistry()
	kmod.RegisterPPPFamily(n.kmods)
	n.kmods.Register(&kmod.Module{Name: "nozomi"})
	n.kmods.Register(&kmod.Module{Name: "usbserial"})
	n.kmods.Register(&kmod.Module{Name: "pl2303", Deps: []string{"usbserial"}})
	n.vsys = vsys.NewManager(loop, n.host)

	n.line = serial.NewLine(loop, card.TTYName, card.LineRate)
	n.modem = modem.New(loop, card, n.line, radio, pin)
	radio.OnCarrierLost = n.modem.CarrierLost

	mgr, err := core.NewManager(core.Config{
		Loop: loop, Host: n.host, Router: n.router, Filter: n.filter,
		Kmods: n.kmods, Vsys: n.vsys, Card: card, Line: n.line, Radio: radio,
		APN: op.APN, PIN: pin, Creds: operatorCreds(op),
		Recover: heal, Trace: trace,
	})
	n.mgr = mgr
	return n, err
}

// openSlice creates a slice on the node, grants it the umts script and
// opens its frontend.
func (n *plNode) openSlice(name string) (*vserver.Slice, *core.Frontend, error) {
	slice, err := n.host.CreateSlice(name)
	if err != nil {
		return nil, nil, err
	}
	n.mgr.Allow(name)
	fe, err := core.OpenFrontend(n.vsys, slice)
	if err != nil {
		return nil, nil, err
	}
	return slice, fe, nil
}

// operatorCreds picks the operator's well-known dial credentials from
// its secrets table.
func operatorCreds(cfg umts.Config) ppp.Credentials {
	for u, p := range cfg.Secrets {
		return ppp.Credentials{User: u, Password: p}
	}
	return ppp.Credentials{}
}

// NewUMTSSlice creates a slice on the Napoli node and grants it the umts
// script.
func (tb *Testbed) NewUMTSSlice(name string) (*vserver.Slice, *core.Frontend, error) {
	return tb.napoli.openSlice(name)
}

// StartUMTS drives `umts start` synchronously (running the loop until
// the command completes) and returns the command result.
func (tb *Testbed) StartUMTS(fe *core.Frontend) (vsys.Result, error) {
	var res vsys.Result
	got := false
	if err := fe.Start(func(r vsys.Result) { res = r; got = true }); err != nil {
		return res, err
	}
	tb.Loop.RunWhile(func() bool { return !got })
	if !got {
		return res, fmt.Errorf("testbed: umts start never completed")
	}
	if !res.Ok() {
		return res, fmt.Errorf("testbed: umts start failed: %v", res.Errs)
	}
	return res, nil
}

// Invoke runs one frontend command synchronously.
func (tb *Testbed) Invoke(fn func(cb func(vsys.Result)) error) (vsys.Result, error) {
	var res vsys.Result
	got := false
	if err := fn(func(r vsys.Result) { res = r; got = true }); err != nil {
		return res, err
	}
	tb.Loop.RunWhile(func() bool { return !got })
	if !got {
		return res, fmt.Errorf("testbed: command never completed")
	}
	return res, nil
}

// InternetRouterAdd installs a route on the research-network core toward
// an extra attachment (e.g. a second operator's pool); used by
// generalization scenarios that add interfaces beyond the paper's single
// card.
func (tb *Testbed) InternetRouterAdd(dst netip.Prefix, iface string) {
	tb.coreRouter.AddRoute(iproute.TableMain, iproute.Route{Dst: dst, Iface: iface})
}
