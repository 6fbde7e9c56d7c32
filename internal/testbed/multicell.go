package testbed

import (
	"fmt"
	"math"
	"net/netip"
	"strings"
	"time"

	"github.com/onelab/umtslab/internal/core"
	"github.com/onelab/umtslab/internal/dialer"
	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/iproute"
	"github.com/onelab/umtslab/internal/itg"
	"github.com/onelab/umtslab/internal/kmod"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/modem"
	"github.com/onelab/umtslab/internal/netfilter"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/serial"
	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/sim/shard"
	"github.com/onelab/umtslab/internal/umts"
	"github.com/onelab/umtslab/internal/vserver"
	"github.com/onelab/umtslab/internal/vsys"
)

// Multi-cell core addressing.
var (
	mcServerAddr = netsim.MustAddr("198.18.0.2")
	mcServerGW   = netsim.MustAddr("198.18.0.1")
)

// MultiCellOptions parameterize the scale-out scenario: K cells × M
// UMTS terminals, every terminal a full Napoli-style PlanetLab node
// (vserver host, iproute, netfilter, kmods, vsys, serial line, datacard,
// pppd) dialing its cell's operator and streaming to one wired server
// behind the research-network core.
type MultiCellOptions struct {
	// Seed drives every RNG stream, as in Options.
	Seed int64
	// Cells is K (default 2); Terminals is M per cell (default 1).
	Cells     int
	Terminals int
	// Shards partitions the scenario: 1 puts everything on a single
	// loop (the differential baseline), the default Cells+1 gives every
	// cell its own shard plus one for the wired core. Any value in
	// [1, Cells+1] is accepted; cells are distributed round-robin over
	// the non-core shards. The shard count must not change results —
	// that is the engine's determinism contract, enforced by tests.
	Shards int
	// Workload is the per-terminal flow (default WorkloadVoIP).
	Workload Workload
	// FlowStart is when senders start (default 15 s — after every
	// terminal's dial-up and route installation settle); Duration is the
	// flow length (default 30 s); Drain is the tail for queued packets
	// and echoes (default 10 s).
	FlowStart time.Duration
	Duration  time.Duration
	Drain     time.Duration
	// Window is the QoS sample window (default 200 ms, as in the paper).
	Window time.Duration
	// BackhaulDelay is the one-way fixed delay of each cell's Gi uplink
	// and of the server's core link (default 7.5 ms, the single-cell
	// EthDelay). For cross-shard wiring it is also the engine lookahead,
	// so it must be positive. BackhaulJitter defaults to 300 µs.
	BackhaulDelay  time.Duration
	BackhaulJitter time.Duration
	// Operator derives cell i's profile (default umts.CommercialCell).
	Operator func(cell int) umts.Config
	// ShardPolicy selects the engine window policy: shard.PolicyGlobal
	// (lockstep lookahead windows, the default) or shard.PolicyDynamic
	// (per-shard distance-based horizons extended by demand-driven
	// earliest-output-time promises — idle-heavy cells stride from event
	// to event instead of edge delay to edge delay). The policy must not change results — the engine's
	// determinism contract covers it, enforced by the same differential
	// tests as the shard count.
	ShardPolicy shard.Policy
	// Faults is armed once per cell, on the cell's shard loop: every
	// event hits that cell's operator, all of its terminals, and its Gi
	// uplink (uplink-direction loss for link flaps). The empty schedule
	// arms nothing, and fault times are virtual, so the shard-count
	// determinism contract extends to faulted runs.
	Faults fault.Schedule
	// SelfHeal/HealPolicy run every terminal's umts backend in recover
	// mode, as in Options.
	SelfHeal   bool
	HealPolicy *dialer.Policy
	// Analysis selects the per-flow QoS reports (see AnalysisConfig).
	// Every terminal gets a private StreamDecoder fed concurrently by
	// its sender (cell shard) and the server-side receiver (core
	// shard) — the two sides touch disjoint decoder state, and the
	// engine's deterministic delivery order makes the decoded results
	// placement-independent: the shard-count determinism contract
	// extends to Decoded and Streamed.
	Analysis AnalysisConfig
	// IdleTerminals powers on this many additional subscribers per
	// cell that register but never dial: each is a compact
	// umts.Terminal (no node, modem, PPP, serial or ITG machinery —
	// that stack materializes only on first dial), so fleets of 100k+
	// are cheap. When any fleet field is set the default Operator
	// switches from CommercialCell to FleetCell (a /16 pool).
	IdleTerminals int
	// Population attaches an aggregate background ensemble of this
	// many modeled CBR subscribers per cell (umts.Population): same
	// offered radio load and pool occupancy as real terminals, O(1)
	// cost in the subscriber count. Populations live on their cell's
	// loop, so they round-robin over shards with their cells.
	Population int
	// PopulationSpec overrides the default background workload (64
	// kbps CBR over the flow window).
	PopulationSpec *umts.PopulationSpec
	// FlowGaugeLimit caps per-flow metrics cardinality: above this
	// many flows (default 256) the per-flow itg/stream/*/retained_bytes
	// gauges collapse into per-cell sum + max gauges, recorded by the
	// itg/stream/flows_aggregated counter. Negative disables the cap.
	FlowGaugeLimit int
	// Interrupt, when non-nil, is polled by every shard loop (about
	// once per 4096 events) and aborts the run when it returns true —
	// the runner then fails with ErrInterrupted and the partial results
	// are discarded. The hook must be goroutine-safe (shards poll it
	// concurrently); a typical hook is a context-cancellation check.
	Interrupt func() bool
}

func (o *MultiCellOptions) setDefaults() {
	if o.Cells <= 0 {
		o.Cells = 2
	}
	if o.Terminals <= 0 {
		// A cell with only background load (idle fleet or population)
		// is legal; otherwise keep the one-terminal default.
		if o.Population > 0 || o.IdleTerminals > 0 {
			o.Terminals = 0
		} else {
			o.Terminals = 1
		}
	}
	if o.Shards <= 0 {
		o.Shards = o.Cells + 1
	}
	if o.Shards > o.Cells+1 {
		o.Shards = o.Cells + 1
	}
	if o.Workload < 0 {
		o.Workload = WorkloadVoIP
	}
	if o.FlowStart <= 0 {
		o.FlowStart = 15 * time.Second
	}
	if o.Duration <= 0 {
		o.Duration = 30 * time.Second
	}
	if o.Drain <= 0 {
		o.Drain = 10 * time.Second
	}
	if o.Window <= 0 {
		o.Window = 200 * time.Millisecond
	}
	if o.BackhaulDelay <= 0 {
		o.BackhaulDelay = 7500 * time.Microsecond
	}
	if o.BackhaulJitter < 0 {
		o.BackhaulJitter = 0
	} else if o.BackhaulJitter == 0 {
		o.BackhaulJitter = 300 * time.Microsecond
	}
	if o.Operator == nil {
		if o.Population > 0 || o.IdleTerminals > 0 {
			// Fleet scales need the /16 pool variant.
			o.Operator = umts.FleetCell
		} else {
			o.Operator = umts.CommercialCell
		}
	}
	if o.FlowGaugeLimit == 0 {
		o.FlowGaugeLimit = defaultFlowGaugeLimit
	}
}

// defaultFlowGaugeLimit is the flow count past which per-flow
// retained-bytes gauges collapse into per-cell aggregates.
const defaultFlowGaugeLimit = 256

// FlowResult is one terminal's outcome.
type FlowResult struct {
	Cell, Terminal int
	FlowID         uint32
	// SetupTime is when the terminal's dial-up AND destination
	// registration completed (virtual time from 0).
	SetupTime time.Duration
	// Decoded is the flow's QoS report over the sample window.
	Decoded *itg.Result
	// Streamed is the sketched report (nil in batch mode); in
	// stream-only mode Decoded aliases it.
	Streamed *itg.Result
	// BearerEvents is the terminal's radio session log.
	BearerEvents []string
	// SendErrors counts packets the slice refused to send.
	SendErrors uint64
}

// MultiCellResult is the scenario outcome.
type MultiCellResult struct {
	Opts MultiCellOptions
	// Flows holds one entry per terminal in (cell, terminal) order.
	Flows []FlowResult
	// Counters is the merged, placement-independent counter view across
	// all shard registries: byte-identical for every shard count (see
	// DeterministicCounters).
	Counters map[string]int64
	// Snapshots are the raw per-shard metric snapshots, including the
	// placement-dependent instruments excluded from Counters.
	Snapshots []metrics.Snapshot
	// Lookahead is the engine's synchronization window; Windows is the
	// barrier count of shard 0.
	Lookahead time.Duration
	Windows   int64
	// Outages lists the per-cell fault windows (empty without a fault
	// schedule). Every cell sees the same schedule, so one copy is kept.
	Outages []fault.Window
	// IdleTerminals is the total powered-on never-dialing fleet across
	// all cells; Populations holds one background-ensemble stats entry
	// per cell, in cell order (both empty without the fleet options).
	IdleTerminals int
	Populations   []umts.PopulationStats
}

// placementDependent lists the instruments whose values legitimately
// depend on how partitions are mapped onto loops (buffer-pool hit rates,
// scheduler-internal bookkeeping driven by co-resident events, the
// engine's own per-shard accounting, which double-counts barriers when
// summed) — everything else counts virtual-simulation events and must
// merge identically for every placement.
func placementDependent(name string) bool {
	return strings.HasPrefix(name, "bufpool/") ||
		strings.HasPrefix(name, "shard/") ||
		name == "sim/heap_compactions"
}

// DeterministicCounters merges per-shard snapshots and strips the
// placement-dependent instruments, yielding the counter view that the
// sharded-vs-single differential tests compare byte-for-byte.
func DeterministicCounters(snaps []metrics.Snapshot) map[string]int64 {
	merged := metrics.MergeSnapshots(snaps...)
	out := make(map[string]int64, len(merged.Counters))
	for name, v := range merged.Counters {
		if !placementDependent(name) {
			out[name] = v
		}
	}
	return out
}

// terminalIdentity centralizes flow and subscriber naming for cell c,
// terminal m: the ITG flow ID, the server-side receiver port, and the
// positional identity the IMSI derives from (umts.SubscriberIMSI keeps
// the string format the scenario always used). It guards the two silent
// wraps the old inline expressions had: uint32 flow-ID overflow at huge
// K×M products and uint16 receiver-port overflow past flow 56535.
func terminalIdentity(c, m, perCell int) (uint32, uint16, umts.TerminalID, error) {
	id := int64(c)*int64(perCell) + int64(m) + 1
	if id > math.MaxUint32 {
		return 0, 0, umts.TerminalID{}, fmt.Errorf(
			"testbed: flow id %d (cell %d terminal %d) overflows uint32", id, c, m)
	}
	port := 9000 + id
	if port > math.MaxUint16 {
		return 0, 0, umts.TerminalID{}, fmt.Errorf(
			"testbed: receiver port %d for flow %d overflows uint16 — at most %d active flows per run; model additional subscribers as IdleTerminals or Population",
			port, id, math.MaxUint16-9000)
	}
	return uint32(id), uint16(port), umts.TerminalID{Cell: int32(c), Sub: int32(m + 1)}, nil
}

// cellEnv is the per-cell build context shared by that cell's
// terminals; lazy materialization needs it at dial time.
type cellEnv struct {
	loop   *sim.Loop
	nw     *netsim.Network
	server *netsim.Node
	op     *umts.Operator
	cfg    umts.Config
	card   modem.CardProfile
	opts   *MultiCellOptions
}

// mcTerminal is the per-terminal assembly plus its run-time state.
// Until materialize runs, it holds only identity, the compact
// umts.Terminal, and the server-side receiver.
type mcTerminal struct {
	cell, idx int
	flowID    uint32
	rPort     uint16
	flow      itg.FlowSpec
	loop      *sim.Loop
	env       *cellEnv
	term      *umts.Terminal
	fe        *core.Frontend
	snd       *itg.Sender
	recv      *itg.Receiver
	stream    *itg.StreamDecoder

	buildErr error
	startRes vsys.Result
	destRes  vsys.Result
	started  bool
	destOK   bool
	setupAt  time.Duration
}

// runMultiCell assembles and executes the K×M scenario on a shard
// engine and decodes every flow. The same options with a different
// Shards value produce byte-identical Flows and Counters. The Scenario
// API (NewScenario(WithCells(k, m), ...)) is the public front door.
func runMultiCell(opts MultiCellOptions) (*MultiCellResult, error) {
	opts.setDefaults()
	eng := shard.NewEngine(opts.Seed, opts.Shards)
	eng.SetPolicy(opts.ShardPolicy)
	if opts.Interrupt != nil {
		// Cooperative cancellation: every shard loop polls the hook, so
		// an abandoned run stops within a bounded number of events per
		// shard. The hook is a pure external signal — installing it
		// cannot perturb a run that is never interrupted.
		for i := 0; i < opts.Shards; i++ {
			eng.Shard(i).Loop().SetInterrupt(opts.Interrupt)
		}
	}

	// One netsim.Network per shard; node names are globally unique so
	// any number of partitions can share a shard.
	nets := make([]*netsim.Network, opts.Shards)
	for i := range nets {
		nets[i] = netsim.NewNetwork(eng.Shard(i).Loop())
	}
	coreShard := eng.Shard(0)
	cellShard := func(cell int) *shard.Shard {
		if opts.Shards == 1 {
			return eng.Shard(0)
		}
		return eng.Shard(1 + cell%(opts.Shards-1))
	}

	// Wired core (shard 0): the research-network router plus the server
	// every terminal streams to.
	coreNode := nets[0].AddNode("grn-core")
	coreNode.Forwarding = true
	server := nets[0].AddNode("server")
	eth := netsim.LinkConfig{
		RateBps: 100e6, Delay: opts.BackhaulDelay, Jitter: opts.BackhaulJitter, QueuePackets: 1000,
	}
	nets[0].WireP2P("server-grn", server, "eth0", mcServerAddr, coreNode, "to-server", mcServerGW, eth, eth)
	coreRouter := iproute.New(coreNode)
	coreRouter.AddRoute(iproute.TableMain, iproute.Route{Dst: netip.PrefixFrom(mcServerAddr, 32), Iface: "to-server"})
	serverRouter := iproute.New(server)
	serverRouter.InstallConnected()
	serverRouter.DefaultVia("eth0", mcServerGW)

	card := modem.Globetrotter
	var terms []*mcTerminal
	var idleFleets [][]umts.Terminal
	var pops []*umts.Population
	for c := 0; c < opts.Cells; c++ {
		if c > 57 {
			// 172.16.(200+c) would leave the Gi /24 plan; far beyond any
			// realistic configuration, but fail loudly rather than alias.
			return nil, fmt.Errorf("testbed: multicell supports at most 58 cells, got %d", opts.Cells)
		}
		sc := cellShard(c)
		cfg := opts.Operator(c)
		op := umts.NewOperator(sc.Loop(), nets[sc.ID()], cfg)

		// Gi uplink: GGSN (cell shard) <-> core (shard 0), cross-shard.
		giAddr := netsim.MustAddr(fmt.Sprintf("172.16.%d.2", 200+c))
		giGW := netsim.MustAddr(fmt.Sprintf("172.16.%d.1", 200+c))
		xl := netsim.WireCross(eng, fmt.Sprintf("gi-cell%d", c),
			sc, op.GGSN(), "gi0", giAddr,
			coreShard, coreNode, fmt.Sprintf("to-cell%d", c), giGW, eth, eth)
		op.SetGi("gi0")
		coreRouter.AddRoute(iproute.TableMain, iproute.Route{Dst: cfg.Pool, Iface: fmt.Sprintf("to-cell%d", c), Gateway: giAddr})
		coreRouter.AddRoute(iproute.TableMain, iproute.Route{Dst: netip.PrefixFrom(giAddr, 32), Iface: fmt.Sprintf("to-cell%d", c)})

		env := &cellEnv{
			loop: sc.Loop(), nw: nets[sc.ID()], server: server,
			op: op, cfg: cfg, card: card, opts: &opts,
		}
		cellTerms := make([]*mcTerminal, 0, opts.Terminals)
		for m := 0; m < opts.Terminals; m++ {
			ts, err := buildTerminal(env, c, m)
			if err != nil {
				return nil, err
			}
			terms = append(terms, ts)
			cellTerms = append(cellTerms, ts)
		}

		// Per-cell injector on the cell's own shard loop; inert when the
		// schedule is empty (see fault.Arm).
		if _, err := fault.Arm(sc.Loop(), opts.Faults, cellHooks(op, xl, cellTerms)); err != nil {
			return nil, fmt.Errorf("testbed: cell %d: %w", c, err)
		}

		// Background fleet: compact powered-on subscribers that register
		// (one cohort timer per cell) but never dial, numbered after the
		// active terminals.
		if opts.IdleTerminals > 0 {
			fleet := op.NewTerminalFleet(c, opts.Terminals+1, opts.IdleTerminals)
			idleFleets = append(idleFleets, fleet)
			sc.Loop().Metrics().Counter("fleet/idle_terminals").Add(int64(opts.IdleTerminals))
		}
		// Aggregate background ensemble, round-robined over shards with
		// its cell (it lives on the cell's loop).
		if opts.Population > 0 {
			pop, err := umts.NewPopulation(op, opts.Population, populationSpec(&opts))
			if err != nil {
				return nil, fmt.Errorf("testbed: cell %d: %w", c, err)
			}
			pops = append(pops, pop)
		}
	}

	eng.Run(opts.FlowStart + opts.Duration + opts.Drain)
	for i := 0; i < opts.Shards; i++ {
		if eng.Shard(i).Loop().Interrupted() {
			return nil, ErrInterrupted
		}
	}

	res := &MultiCellResult{Opts: opts, Lookahead: eng.Lookahead()}
	// Per-flow retained-bytes gauges are O(flows) metric cardinality;
	// past the limit they collapse into per-cell sum + max aggregates
	// (satellite: metrics stay bounded at fleet scale).
	aggregateGauges := opts.FlowGaugeLimit > 0 && len(terms) > opts.FlowGaugeLimit
	type gaugeAgg struct {
		sum, max float64
		count    int64
	}
	cellAggs := make([]gaugeAgg, opts.Cells)
	for _, ts := range terms {
		if ts.buildErr != nil {
			return nil, fmt.Errorf("testbed: cell %d terminal %d: %w", ts.cell, ts.idx, ts.buildErr)
		}
		if !ts.started || !ts.startRes.Ok() {
			return nil, fmt.Errorf("testbed: cell %d terminal %d: umts start failed: %v", ts.cell, ts.idx, ts.startRes.Errs)
		}
		if !ts.destOK {
			return nil, fmt.Errorf("testbed: cell %d terminal %d: add destination failed: %v", ts.cell, ts.idx, ts.destRes.Errs)
		}
		if ts.setupAt > opts.FlowStart {
			return nil, fmt.Errorf("testbed: cell %d terminal %d: setup finished at %v, after flow start %v — raise FlowStart",
				ts.cell, ts.idx, ts.setupAt, opts.FlowStart)
		}
		fr := FlowResult{
			Cell: ts.cell, Terminal: ts.idx, FlowID: ts.flowID,
			SetupTime:    ts.setupAt,
			BearerEvents: ts.term.SessionEvents(),
			SendErrors:   ts.snd.SendErrors,
		}
		fr.Decoded, fr.Streamed = opts.Analysis.finalize(ts.stream)
		if rb := float64(ts.stream.RetainedBytes()); aggregateGauges {
			a := &cellAggs[ts.cell]
			a.sum += rb
			if rb > a.max {
				a.max = rb
			}
			a.count++
		} else {
			// Per-flow footprint gauge, recorded before the snapshots
			// below; distinct names make the merged GaugeSum
			// placement-independent.
			ts.loop.Metrics().Gauge(fmt.Sprintf("itg/stream/c%dt%d/retained_bytes", ts.cell, ts.idx)).Set(rb)
		}
		res.Flows = append(res.Flows, fr)
	}
	if aggregateGauges {
		// Per-cell aggregates, written on the cell's own loop in cell
		// order: gauge names stay unique (placement-independent GaugeSum)
		// and the counter merges identically for every shard count.
		for c := 0; c < opts.Cells; c++ {
			a := cellAggs[c]
			if a.count == 0 {
				continue
			}
			reg := cellShard(c).Loop().Metrics()
			reg.Gauge(fmt.Sprintf("itg/stream/cell%d/retained_bytes", c)).Set(a.sum)
			reg.Gauge(fmt.Sprintf("itg/stream/cell%d/retained_bytes_max", c)).Set(a.max)
			reg.Counter("itg/stream/flows_aggregated").Add(a.count)
		}
	}
	for _, pop := range pops {
		if err := pop.Err(); err != nil {
			return nil, err
		}
		res.Populations = append(res.Populations, pop.Stats())
	}
	res.IdleTerminals = len(idleFleets) * opts.IdleTerminals
	for i := 0; i < opts.Shards; i++ {
		res.Snapshots = append(res.Snapshots, eng.Shard(i).Loop().Metrics().Snapshot())
	}
	res.Counters = DeterministicCounters(res.Snapshots)
	res.Windows = res.Snapshots[0].Counter("shard/windows")
	res.Outages = opts.Faults.Windows()
	return res, nil
}

// populationSpec resolves the background workload: the caller's
// override, or 64 kbps CBR per modeled subscriber over the flow window.
func populationSpec(opts *MultiCellOptions) umts.PopulationSpec {
	if opts.PopulationSpec != nil {
		return *opts.PopulationSpec
	}
	return umts.PopulationSpec{RateBps: 64e3, Start: opts.FlowStart, Duration: opts.Duration}
}

// cellHooks binds one cell's injector to its operator, all of its
// terminals, and its Gi uplink. Link flaps drop uplink traffic only
// (GGSN -> core direction), leaving the return path intact.
func cellHooks(op *umts.Operator, xl *netsim.CrossLink, terms []*mcTerminal) fault.Hooks {
	return fault.Hooks{
		CarrierDrop: func() { op.DropAllSessions("fault: carrier drop") },
		FadeStart:   op.PauseRadio,
		FadeEnd:     op.ResumeRadio,
		RateScale:   op.ScaleRates,
		RegistrationDown: func() {
			for _, ts := range terms {
				ts.term.LoseRegistration("fault: registration lost")
			}
		},
		RegistrationUp: func() {
			for _, ts := range terms {
				ts.term.Reregister()
			}
		},
		PPPTerminate: func() { op.TerminatePPP("fault: network maintenance") },
		LinkDown:     func(loss float64) { xl.SetLossProb(0, loss) },
		LinkUp:       func() { xl.SetLossProb(0, 0) },
	}
}

// buildTerminal sets up one active terminal's compact state: identity,
// the umts.Terminal, and the server-side flow endpoint (which lives on
// the core shard and must be bound before the engine runs). The heavy
// PlanetLab stack — node, vserver host, kmods, vsys, serial line,
// datacard, pppd manager, ITG sender — materializes lazily on the
// cell's loop at dial time (virtual time zero for the standard
// scenario), so construction cost tracks the dialing population, not
// the powered-on one.
func buildTerminal(env *cellEnv, c, m int) (*mcTerminal, error) {
	opts := env.opts
	loop := env.loop
	flowID, rPort, tid, err := terminalIdentity(c, m, opts.Terminals)
	if err != nil {
		return nil, err
	}
	flow, err := workloadFlow(opts.Workload, flowID, mcServerAddr, rPort, opts.Duration)
	if err != nil {
		return nil, err
	}
	ts := &mcTerminal{cell: c, idx: m, flowID: flowID, rPort: rPort, flow: flow, loop: loop, env: env}
	ts.term = env.op.NewTerminalID(tid)

	// Flow receiver + echo on the server (core shard): eager, because
	// binding mutates core-shard state and must not happen from a
	// cell-shard event.
	ts.recv = itg.NewReceiver(env.server.Loop, func(pkt *netsim.Packet) error { return env.server.Send(pkt) })
	if err := env.server.Bind(netsim.ProtoUDP, rPort, ts.recv.Handle); err != nil {
		return nil, err
	}
	// One decoder per flow, window-aligned to FlowStart. The
	// sender/echo side runs on this cell's shard loop and the receiver
	// side on the core shard — a legal concurrent feed (disjoint
	// accumulators). The receiver side attaches now, because binding
	// mutates core-shard state; the sender side attaches when the
	// terminal's stack materializes.
	ts.stream = opts.Analysis.newDecoder(opts.Window, opts.FlowStart, flow,
		LiveWindow{Cell: c, Terminal: m, FlowID: flowID})
	ts.recv.Stream = ts.stream

	// Asynchronous bring-up: materialize the stack, then run the
	// frontend commands, whose vsys callbacks complete on this shard's
	// loop — the whole dial happens inside the engine run
	// (RunWhile-style draining would break windowing).
	loop.Post(func() {
		if err := ts.materialize(); err != nil {
			ts.buildErr = err
			return
		}
		ts.fe.Start(func(r vsys.Result) {
			ts.startRes = r
			ts.started = true
			if !r.Ok() {
				return
			}
			ts.fe.AddDest(mcServerAddr.String(), func(r2 vsys.Result) {
				ts.destRes = r2
				ts.destOK = r2.Ok()
				ts.setupAt = loop.Now()
			})
		})
	})
	loop.At(opts.FlowStart, func() {
		if ts.snd != nil {
			ts.snd.Start()
		}
	})
	return ts, nil
}

// materialize assembles the terminal's full PlanetLab-style stack on
// the cell's shard. It runs as a loop event (first dial), touches only
// cell-shard state, and releases the build context when done.
func (ts *mcTerminal) materialize() error {
	env := ts.env
	if env == nil {
		return nil
	}
	ts.env = nil
	c, m := ts.cell, ts.idx
	opts := env.opts
	loop := env.loop

	node := env.nw.AddNode(fmt.Sprintf("pl-c%dt%d", c, m))
	host := vserver.NewHost(node)
	router := iproute.New(node)
	router.InstallConnected()
	filter := netfilter.New(node)
	kmods := kmod.NewRegistry()
	kmod.RegisterPPPFamily(kmods)
	kmods.Register(&kmod.Module{Name: "nozomi"})
	kmods.Register(&kmod.Module{Name: "usbserial"})
	kmods.Register(&kmod.Module{Name: "pl2303", Deps: []string{"usbserial"}})
	vsysm := vsys.NewManager(loop, host)

	tcard := env.card
	tcard.TTYName = fmt.Sprintf("/dev/noz-c%dt%d", c, m)
	line := serial.NewLine(loop, tcard.TTYName, tcard.LineRate)
	mdm := modem.New(loop, tcard, line, ts.term, "")
	ts.term.OnCarrierLost = mdm.CarrierLost

	mgr, err := core.NewManager(core.Config{
		Loop: loop, Host: host, Router: router, Filter: filter,
		Kmods: kmods, Vsys: vsysm, Card: tcard, Line: line, Radio: ts.term,
		APN: env.cfg.APN, Creds: operatorCreds(env.cfg),
		Recover: recoverPolicy(opts.SelfHeal, opts.HealPolicy),
	})
	if err != nil {
		return fmt.Errorf("testbed: cell %d terminal %d: %w", c, m, err)
	}
	slice, err := host.CreateSlice("umts")
	if err != nil {
		return err
	}
	mgr.Allow("umts")
	fe, err := core.OpenFrontend(vsysm, slice)
	if err != nil {
		return err
	}
	ts.fe = fe

	ts.snd = itg.NewSender(loop, fmt.Sprintf("mc/c%dt%d", c, m), ts.flow,
		func(pkt *netsim.Packet) error { return slice.Send(pkt) })
	if err := slice.Bind(netsim.ProtoUDP, senderPort, ts.snd.HandleEcho); err != nil {
		return err
	}
	ts.snd.Stream = ts.stream
	return nil
}
