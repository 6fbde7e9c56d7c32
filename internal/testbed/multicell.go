package testbed

import (
	"fmt"
	"math"
	"net/netip"
	"strings"
	"time"

	"github.com/onelab/umtslab/internal/core"
	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/iproute"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/modem"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/sim/shard"
	"github.com/onelab/umtslab/internal/umts"
	"github.com/onelab/umtslab/internal/vsys"
)

// Multi-cell core addressing.
var (
	mcServerAddr = netsim.MustAddr("198.18.0.2")
	mcServerGW   = netsim.MustAddr("198.18.0.1")
)

// FlowResult is one terminal's outcome. Its SetupTime runs from
// virtual time 0, when every terminal starts dialing, to the end of
// its destination registration.
type FlowResult struct {
	Cell, Terminal int
	FlowID         uint32
	flowOutcome
}

// MultiCellResult is the scenario outcome.
type MultiCellResult struct {
	// Shards is the number of shards the run was partitioned over.
	Shards int
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

// Multi-cell limits, enforced by Spec.Validate before a run builds.
const (
	maxCells = 56                            // cell c's Gi link is 172.16.(200+c).0/24
	maxFlows = math.MaxUint16 - receiverPort // flow id's receiver port is receiverPort+id
)

// cellOperator is the operator profile of a multi-cell run's cells:
// fleet scales need FleetCell's /16 pool.
func cellOperator(population, idleTerminals int) func(int) umts.Config {
	if population > 0 || idleTerminals > 0 {
		return umts.FleetCell
	}
	return umts.CommercialCell
}

// terminalIdentity centralizes flow and subscriber naming for cell c,
// terminal m: the ITG flow ID, the server-side receiver port, and the
// positional identity the IMSI derives from (umts.SubscriberIMSI keeps
// the string format the scenario always used). It guards the silent
// uint16 receiver-port wrap past flow maxFlows, which also bounds the
// uint32 flow ID.
func terminalIdentity(c, m, perCell int) (uint32, uint16, umts.TerminalID, error) {
	id := int64(c)*int64(perCell) + int64(m) + 1
	if id > maxFlows {
		return 0, 0, umts.TerminalID{}, fmt.Errorf(
			"testbed: receiver port %d for flow %d overflows uint16 — at most %d active flows per run; model additional subscribers as IdleTerminals or Population",
			receiverPort+id, id, maxFlows)
	}
	return uint32(id), uint16(receiverPort + id), umts.TerminalID{Cell: int32(c), Sub: int32(m + 1)}, nil
}

// cellEnv is the per-cell build context shared by that cell's
// terminals; lazy materialization needs it at dial time.
type cellEnv struct {
	loop   *sim.Loop
	nw     *netsim.Network
	server *netsim.Node
	op     *umts.Operator
	cfg    umts.Config
	sc     *Scenario
}

// mcTerminal is the per-terminal assembly plus its run-time state.
// Until materialize runs, it holds only identity, the compact
// umts.Terminal, and the server-side end of its flow.
type mcTerminal struct {
	cell, idx int
	loop      *sim.Loop
	env       *cellEnv
	term      *umts.Terminal
	fe        *core.Frontend
	flow      flowRun

	// setupAt is when the dial-up and the destination registration
	// finished; setupErr is why they did not.
	setupAt  time.Duration
	setupErr error
}

// runMultiCell assembles and executes the K×M scenario of a resolved
// Scenario on a shard engine and decodes every flow. The same scenario
// with a different shard count produces byte-identical Flows and
// Counters.
func runMultiCell(sc *Scenario) (*MultiCellResult, error) {
	eng := shard.NewEngine(sc.seed, sc.shards)
	if sc.interrupt != nil {
		// Cooperative cancellation: every shard loop polls the hook, so
		// an abandoned run stops within a bounded number of events per
		// shard. The hook is a pure external signal — installing it
		// cannot perturb a run that is never interrupted.
		for i := 0; i < sc.shards; i++ {
			eng.Shard(i).Loop().SetInterrupt(sc.interrupt)
		}
	}

	// One netsim.Network per shard; node names are globally unique so
	// any number of partitions can share a shard.
	nets := make([]*netsim.Network, sc.shards)
	for i := range nets {
		nets[i] = netsim.NewNetwork(eng.Shard(i).Loop())
	}
	coreShard := eng.Shard(0)
	cellShard := func(cell int) *shard.Shard {
		if sc.shards == 1 {
			return eng.Shard(0)
		}
		return eng.Shard(1 + cell%(sc.shards-1))
	}

	// Wired core (shard 0): the research-network router plus the server
	// every terminal streams to.
	coreNode := nets[0].AddNode("grn-core")
	coreNode.Forwarding = true
	server := nets[0].AddNode("server")
	eth := wiredLink(sc.backhaulDelay)
	nets[0].WireP2P("server-grn", server, "eth0", mcServerAddr, coreNode, "to-server", mcServerGW, eth, eth)
	coreRouter := iproute.New(coreNode)
	coreRouter.AddRoute(iproute.TableMain, iproute.Route{Dst: netip.PrefixFrom(mcServerAddr, 32), Iface: "to-server"})
	serverRouter := iproute.New(server)
	serverRouter.InstallConnected()
	serverRouter.DefaultVia("eth0", mcServerGW)

	operator := cellOperator(sc.population, sc.idleTerminals)
	var terms []*mcTerminal
	var idleFleets [][]umts.Terminal
	var pops []*umts.Population
	for c := 0; c < sc.cells; c++ {
		sh := cellShard(c)
		cfg := operator(c)
		op := umts.NewOperator(sh.Loop(), nets[sh.ID()], cfg)

		// Gi uplink: GGSN (cell shard) <-> core (shard 0), cross-shard.
		giAddr := netsim.MustAddr(fmt.Sprintf("172.16.%d.2", 200+c))
		giGW := netsim.MustAddr(fmt.Sprintf("172.16.%d.1", 200+c))
		xl := netsim.WireCross(eng, fmt.Sprintf("gi-cell%d", c),
			sh, op.GGSN(), "gi0", giAddr,
			coreShard, coreNode, fmt.Sprintf("to-cell%d", c), giGW, eth, eth)
		op.SetGi("gi0")
		coreRouter.AddRoute(iproute.TableMain, iproute.Route{Dst: cfg.Pool, Iface: fmt.Sprintf("to-cell%d", c), Gateway: giAddr})
		coreRouter.AddRoute(iproute.TableMain, iproute.Route{Dst: netip.PrefixFrom(giAddr, 32), Iface: fmt.Sprintf("to-cell%d", c)})

		env := &cellEnv{loop: sh.Loop(), nw: nets[sh.ID()], server: server, op: op, cfg: cfg, sc: sc}
		cellTerms := make([]*umts.Terminal, 0, sc.terminals)
		for m := 0; m < sc.terminals; m++ {
			ts, err := buildTerminal(env, c, m)
			if err != nil {
				return nil, err
			}
			terms = append(terms, ts)
			cellTerms = append(cellTerms, ts.term)
		}

		// Per-cell injector on the cell's own shard loop; inert when the
		// schedule is empty (see fault.Arm). A Gi flap drops uplink
		// traffic only (GGSN -> core), leaving the return path intact.
		giLoss := func(loss float64) { xl.SetLossProb(0, loss) }
		if _, err := fault.Arm(sh.Loop(), sc.faults, faultHooks(op, cellTerms, giLoss)); err != nil {
			return nil, fmt.Errorf("testbed: cell %d: %w", c, err)
		}

		// Background fleet: compact powered-on subscribers that register
		// (one cohort timer per cell) but never dial, numbered after the
		// active terminals.
		if sc.idleTerminals > 0 {
			fleet := op.NewTerminalFleet(c, sc.terminals+1, sc.idleTerminals)
			idleFleets = append(idleFleets, fleet)
			sh.Loop().Metrics().Counter("fleet/idle_terminals").Add(int64(sc.idleTerminals))
		}
		// Aggregate background ensemble, round-robined over shards with
		// its cell (it lives on the cell's loop).
		if sc.population > 0 {
			pop, err := umts.NewPopulation(op, sc.population, sc.populationSpec)
			if err != nil {
				return nil, fmt.Errorf("testbed: cell %d: %w", c, err)
			}
			pops = append(pops, pop)
		}
	}

	eng.Run(sc.flowStart + sc.duration + sc.drain)
	for i := 0; i < sc.shards; i++ {
		if eng.Shard(i).Loop().Interrupted() {
			return nil, ErrInterrupted
		}
	}

	res := &MultiCellResult{Shards: sc.shards, Lookahead: eng.Lookahead()}
	// Per-flow retained-bytes gauges are O(flows) metric cardinality;
	// past the limit they collapse into per-cell sum + max aggregates.
	aggregateGauges := sc.flowGaugeLimit > 0 && len(terms) > sc.flowGaugeLimit
	type gaugeAgg struct {
		sum, max float64
		count    int64
	}
	cellAggs := make([]gaugeAgg, sc.cells)
	for _, ts := range terms {
		if ts.setupErr != nil {
			return nil, fmt.Errorf("testbed: cell %d terminal %d: %w", ts.cell, ts.idx, ts.setupErr)
		}
		if ts.setupAt == 0 {
			return nil, fmt.Errorf("testbed: cell %d terminal %d: setup did not finish", ts.cell, ts.idx)
		}
		if ts.setupAt > sc.flowStart {
			return nil, fmt.Errorf("testbed: cell %d terminal %d: setup finished at %v, after flow start %v — raise spec.flow_start",
				ts.cell, ts.idx, ts.setupAt, sc.flowStart)
		}
		res.Flows = append(res.Flows, FlowResult{
			Cell: ts.cell, Terminal: ts.idx, FlowID: ts.flow.spec.FlowID,
			flowOutcome: ts.flow.outcome(ts.setupAt, ts.term),
		})
		if rb := float64(ts.flow.stream.RetainedBytes()); aggregateGauges {
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
	}
	if aggregateGauges {
		// Per-cell aggregates, written on the cell's own loop in cell
		// order: gauge names stay unique (placement-independent GaugeSum)
		// and the counter merges identically for every shard count.
		for c := 0; c < sc.cells; c++ {
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
	res.IdleTerminals = len(idleFleets) * sc.idleTerminals
	for i := 0; i < sc.shards; i++ {
		res.Snapshots = append(res.Snapshots, eng.Shard(i).Loop().Metrics().Snapshot())
	}
	res.Counters = DeterministicCounters(res.Snapshots)
	res.Windows = res.Snapshots[0].Counter("shard/windows")
	return res, nil
}

// buildTerminal sets up one active terminal's compact state: identity,
// the umts.Terminal, and the server-side end of its flow (which lives
// on the core shard and must be bound before the engine runs). The
// PlanetLab node — newPLNode's stack, the slice and the ITG sender —
// materializes lazily on the cell's loop at dial time (virtual time
// zero for the standard scenario), so construction cost tracks the
// dialing population, not the powered-on one.
func buildTerminal(env *cellEnv, c, m int) (*mcTerminal, error) {
	sc := env.sc
	loop := env.loop
	flowID, rPort, tid, err := terminalIdentity(c, m, sc.terminals)
	if err != nil {
		return nil, err
	}
	spec, err := workloadFlow(sc.workload, flowID, mcServerAddr, rPort, sc.duration)
	if err != nil {
		return nil, err
	}
	ts := &mcTerminal{cell: c, idx: m, loop: loop, env: env}
	ts.term = env.op.NewTerminalID(tid)

	// Flow receiver + echo and the flow's decoder, window-aligned to
	// the flow start, on the server (core shard): eager, because
	// binding mutates core-shard state and must not happen from a
	// cell-shard event. The sender side runs on this cell's shard loop
	// once the terminal materializes; the two sides feed disjoint
	// decoder state, a legal concurrent feed.
	if err := ts.flow.receive(env.server.Loop, env.server, spec, sc.analysis, sc.flowStart,
		LiveWindow{Cell: c, Terminal: m, FlowID: flowID}); err != nil {
		return nil, err
	}

	// Asynchronous bring-up: materialize the stack, then run the
	// frontend commands, whose vsys callbacks complete on this shard's
	// loop — the whole dial happens inside the engine run
	// (RunWhile-style draining would break windowing).
	loop.Post(func() {
		if ts.setupErr = ts.materialize(); ts.setupErr != nil {
			return
		}
		ts.fe.Start(func(r vsys.Result) {
			if !r.Ok() {
				ts.setupErr = fmt.Errorf("umts start failed: %v", r.Errs)
				return
			}
			ts.fe.AddDest(mcServerAddr.String(), func(r vsys.Result) {
				if !r.Ok() {
					ts.setupErr = fmt.Errorf("add destination failed: %v", r.Errs)
					return
				}
				ts.setupAt = loop.Now()
			})
		})
	})
	loop.At(sc.flowStart, func() {
		if ts.flow.snd != nil {
			ts.flow.snd.Start()
		}
	})
	return ts, nil
}

// materialize assembles the terminal's PlanetLab node on the cell's
// shard, opens its slice and binds the flow's sender there. It runs as
// a loop event (first dial), touches only cell-shard state, and
// releases the build context when done.
func (ts *mcTerminal) materialize() error {
	env := ts.env
	if env == nil {
		return nil
	}
	ts.env = nil
	c, m := ts.cell, ts.idx
	node := env.nw.AddNode(fmt.Sprintf("pl-c%dt%d", c, m))
	card := modem.Globetrotter
	card.TTYName = fmt.Sprintf("/dev/noz-c%dt%d", c, m)
	n, err := newPLNode(env.loop, node, ts.term, card, env.cfg, "",
		recoverPolicy(env.sc.selfHeal), nil)
	if err != nil {
		return fmt.Errorf("testbed: cell %d terminal %d: %w", c, m, err)
	}
	slice, fe, err := n.openSlice("umts")
	if err != nil {
		return err
	}
	ts.fe = fe
	return ts.flow.send(env.loop, fmt.Sprintf("mc/c%dt%d", c, m), slice)
}
