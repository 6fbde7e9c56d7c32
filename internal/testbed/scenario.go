package testbed

import (
	"errors"
	"fmt"
	"time"

	"github.com/onelab/umtslab/internal/dialer"
	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/modem"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim/shard"
	"github.com/onelab/umtslab/internal/umts"
)

// Scenario is the single front door to every experiment shape the
// testbed can run: one §3 paper cell, a repetition sweep across a
// worker pool, or the K-cell × M-terminal scale-out on the shard
// engine — with or without a fault schedule and the self-healing
// dialer. Construct one with NewScenario and functional options, then
// call Run:
//
//	rep, err := testbed.NewScenario(
//	    testbed.WithSeed(7),
//	    testbed.WithWorkload(testbed.WorkloadVoIP),
//	    testbed.WithFaults(sched),
//	    testbed.WithSelfHeal(nil),
//	).Run()
//
// The zero scenario (no options) runs one UMTS-path VoIP cell with
// paper parameters. The declarative counterpart is Spec: a
// JSON-serializable description that round-trips losslessly to a
// Scenario (see Spec.Scenario and Scenario.Spec), shared by the CLI
// flags and the control plane.
type Scenario struct {
	seed     int64
	path     Path
	workload Workload
	duration time.Duration
	window   time.Duration

	reps    int
	workers int

	operator *umts.Config
	card     *modem.CardProfile
	pin      string

	faults       fault.Schedule
	faultProfile string
	selfHeal     bool
	healPolicy   *dialer.Policy

	analysis AnalysisConfig

	cells       int
	terminals   int
	shards      int
	shardPolicy shard.Policy
	flowStart   time.Duration

	idleTerminals  int
	population     int
	populationSpec *umts.PopulationSpec
	flowGaugeLimit int

	// drain is a multi-cell run's tail after its flows, for queued
	// packets and echoes; backhaulDelay is the one-way delay of every
	// Gi uplink and of the server's link, and with it the shard
	// engine's lookahead. Only tests set them.
	drain         time.Duration
	backhaulDelay time.Duration

	dump      func(metrics.Snapshot)
	trace     func(format string, args ...any)
	interrupt func() bool
}

// Defaults of every run.
const (
	// paperDuration is a paper cell's flow (§3); a multi-cell run's
	// flows last cellsDuration and start at defaultFlowStart, after
	// every terminal's dial-up has settled.
	paperDuration    = 120 * time.Second
	cellsDuration    = 30 * time.Second
	defaultFlowStart = 15 * time.Second
	// defaultWindow is the QoS sample window (§3).
	defaultWindow = 200 * time.Millisecond
	// drainTime is the tail after a flow for queued packets and echoes.
	drainTime = 10 * time.Second
	// ethDelay and ethJitter bound one wired hop: the two hops between
	// the paper's nodes make a ~30 ms RTT across the GRN.
	ethDelay  = 7500 * time.Microsecond
	ethJitter = 300 * time.Microsecond
	// defaultFlowGaugeLimit is the flow count past which per-flow
	// retained-bytes gauges collapse into per-cell aggregates.
	defaultFlowGaugeLimit = 256
)

// wiredLink is a 100 Mbit/s research-network link with small jitter.
func wiredLink(delay time.Duration) netsim.LinkConfig {
	return netsim.LinkConfig{RateBps: 100e6, Delay: delay, Jitter: ethJitter, QueuePackets: 1000}
}

// ErrInterrupted reports a run abandoned by a WithInterrupt hook. An
// interrupted run's partial state is discarded — no Report is
// produced.
var ErrInterrupted = errors.New("testbed: run interrupted")

// ScenarioOption mutates a Scenario under construction.
type ScenarioOption func(*Scenario)

// NewScenario builds a scenario from functional options; unset knobs
// keep the paper defaults of the underlying runner.
func NewScenario(options ...ScenarioOption) *Scenario {
	sc := &Scenario{}
	for _, o := range options {
		o(sc)
	}
	return sc
}

// WithSeed sets the base simulation seed (repetition r runs with
// RepSeed(seed, r), so rep 0 reproduces a plain single run).
func WithSeed(seed int64) ScenarioOption { return func(sc *Scenario) { sc.seed = seed } }

// WithPath selects the end-to-end path (single-cell scenarios only).
func WithPath(p Path) ScenarioOption { return func(sc *Scenario) { sc.path = p } }

// WithWorkload selects the traffic class.
func WithWorkload(w Workload) ScenarioOption { return func(sc *Scenario) { sc.workload = w } }

// WithDuration sets the flow duration (default: the runner's paper
// value — 120 s single-cell, 30 s multi-cell).
func WithDuration(d time.Duration) ScenarioOption { return func(sc *Scenario) { sc.duration = d } }

// WithWindow sets the QoS sample window (default 200 ms).
func WithWindow(w time.Duration) ScenarioOption { return func(sc *Scenario) { sc.window = w } }

// WithReps runs n seed-derived repetitions (single-cell only); results
// land in Report.Results in repetition order.
func WithReps(n int) ScenarioOption { return func(sc *Scenario) { sc.reps = n } }

// WithWorkers bounds the repetition worker pool (<= 0: GOMAXPROCS).
func WithWorkers(n int) ScenarioOption { return func(sc *Scenario) { sc.workers = n } }

// WithOperator overrides the UMTS network profile (single-cell only).
func WithOperator(cfg umts.Config) ScenarioOption {
	return func(sc *Scenario) { sc.operator = &cfg }
}

// WithCard overrides the datacard profile (single-cell only).
func WithCard(card modem.CardProfile) ScenarioOption {
	return func(sc *Scenario) { sc.card = &card }
}

// WithPIN locks the SIM (single-cell only).
func WithPIN(pin string) ScenarioOption { return func(sc *Scenario) { sc.pin = pin } }

// WithFaults arms a deterministic fault schedule on the run (every
// cell of a multi-cell scenario gets its own injector). The empty
// schedule is a no-op.
func WithFaults(sched fault.Schedule) ScenarioOption {
	return func(sc *Scenario) { sc.faults = sched }
}

// WithFaultProfile arms the named fault.Preset, resolved at Run
// against the scenario's seed and flow duration and placed over the
// flow window, which in a multi-cell run begins at the flow start.
// Unlike a raw WithFaults schedule, a profile name is declarative: it
// survives the Scenario<->Spec round trip. Mutually exclusive with
// WithFaults.
func WithFaultProfile(name string) ScenarioOption {
	return func(sc *Scenario) { sc.faultProfile = name }
}

// WithInterrupt installs a cooperative cancellation hook: every loop
// of the run (each repetition's testbed, every shard of a multi-cell
// scenario) polls fn about once per 4096 events, and once it returns
// true the run is abandoned with ErrInterrupted. fn must be
// goroutine-safe and must not touch simulation state — a typical hook
// closes over a context and returns ctx.Err() != nil. Installing a
// hook that never fires cannot change a run's results.
func WithInterrupt(fn func() bool) ScenarioOption {
	return func(sc *Scenario) { sc.interrupt = fn }
}

// WithSelfHeal runs the umts backend in recover mode: carrier loss
// keeps the slice's lock while a supervisor redials under policy (nil:
// dialer.Policy defaults).
func WithSelfHeal(policy *dialer.Policy) ScenarioOption {
	return func(sc *Scenario) {
		sc.selfHeal = true
		sc.healPolicy = policy
	}
}

// WithAnalysis selects the QoS reports of the live per-flow decode: the
// exact reference (zero value), exact plus sketched percentiles, or
// sketch-only constant-memory analysis. Applies to single- and
// multi-cell scenarios alike.
func WithAnalysis(cfg AnalysisConfig) ScenarioOption {
	return func(sc *Scenario) { sc.analysis = cfg }
}

// WithCells switches the scenario to the multi-cell shard engine:
// cells × terminals UMTS nodes streaming to one wired server.
func WithCells(cells, terminals int) ScenarioOption {
	return func(sc *Scenario) {
		sc.cells = cells
		sc.terminals = terminals
	}
}

// WithShards sets the shard count of a multi-cell scenario (default
// one shard per cell plus the wired core; the shard count must not
// change results).
func WithShards(n int) ScenarioOption { return func(sc *Scenario) { sc.shards = n } }

// WithShardPolicy selects the shard engine's window policy — global
// lockstep windows (default) or dynamic per-shard horizons. Like the
// shard count, the policy must not change results.
func WithShardPolicy(p shard.Policy) ScenarioOption {
	return func(sc *Scenario) { sc.shardPolicy = p }
}

// WithFlowStart delays the multi-cell senders (default 15 s, after
// dial-up settles).
func WithFlowStart(d time.Duration) ScenarioOption {
	return func(sc *Scenario) { sc.flowStart = d }
}

// WithIdleTerminals powers on n additional never-dialing subscribers
// per cell of a multi-cell scenario. Each is a compact umts.Terminal —
// the node/modem/PPP/ITG stack materializes only on first dial — so
// fleets of 100k+ are cheap. Requires WithCells.
func WithIdleTerminals(n int) ScenarioOption {
	return func(sc *Scenario) { sc.idleTerminals = n }
}

// WithPopulation attaches an aggregate background ensemble of n modeled
// CBR subscribers per cell (umts.Population): the same offered radio
// load and address-pool occupancy as n real terminals at O(1) cost in
// n. spec overrides the default workload (64 kbps CBR over the flow
// window); nil keeps it. Requires WithCells.
func WithPopulation(n int, spec *umts.PopulationSpec) ScenarioOption {
	return func(sc *Scenario) {
		sc.population = n
		sc.populationSpec = spec
	}
}

// WithFlowGaugeLimit caps per-flow metrics cardinality of a multi-cell
// run: above this many flows the per-flow retained-bytes gauges
// collapse into per-cell sum + max aggregates (default 256; negative
// disables the cap).
func WithFlowGaugeLimit(n int) ScenarioOption {
	return func(sc *Scenario) { sc.flowGaugeLimit = n }
}

// WithMetricsDump registers a callback that receives each
// repetition's final metrics snapshot (or the merged per-shard
// snapshot of a multi-cell run), after Run completes, in repetition
// order.
func WithMetricsDump(fn func(metrics.Snapshot)) ScenarioOption {
	return func(sc *Scenario) { sc.dump = fn }
}

// WithTrace receives verbose progress lines (single-cell only).
func WithTrace(fn func(format string, args ...any)) ScenarioOption {
	return func(sc *Scenario) { sc.trace = fn }
}

// Report is a Scenario outcome. Exactly one of Results (single-cell,
// one entry per repetition) or MultiCell is populated.
type Report struct {
	Results   []*ExperimentResult
	MultiCell *MultiCellResult
	// Outages are the scheduled fault windows (empty without faults).
	Outages []fault.Window
}

// Run executes the scenario and collects the report. Repetitions run
// across a bounded worker pool with per-rep private loops; everything
// else is single-threaded inside the simulation's virtual time.
func (sc *Scenario) Run() (*Report, error) {
	r, err := sc.resolve()
	if err != nil {
		return nil, err
	}
	rep := &Report{Outages: r.faults.Windows()}
	if r.cells > 0 {
		mc, err := runMultiCell(r)
		if err != nil {
			return nil, err
		}
		rep.MultiCell = mc
		if r.dump != nil {
			r.dump(metrics.MergeSnapshots(mc.Snapshots...))
		}
		return rep, nil
	}

	results, err := runPool(r.reps, r.workers, r.runRep)
	if err != nil {
		return nil, err
	}
	rep.Results = results
	if r.dump != nil {
		for _, res := range results {
			r.dump(res.Metrics)
		}
	}
	return rep, nil
}

// check rejects options that the scenario's runner would ignore.
func (sc *Scenario) check() error {
	type opt struct {
		name string
		set  bool
	}
	if sc.cells > 0 {
		for _, o := range []opt{
			{"WithPath", sc.path != PathUMTS},
			{"WithReps", sc.reps > 1},
			{"WithOperator", sc.operator != nil},
			{"WithCard", sc.card != nil},
			{"WithPIN", sc.pin != ""},
			{"WithTrace", sc.trace != nil},
		} {
			if o.set {
				return fmt.Errorf("testbed: %s applies to single-cell scenarios only (conflicts with WithCells)", o.name)
			}
		}
		return nil
	}
	for _, o := range []opt{
		{"WithShards", sc.shards != 0},
		{"WithShardPolicy", sc.shardPolicy != shard.PolicyGlobal},
		{"WithFlowStart", sc.flowStart != 0},
		{"WithIdleTerminals", sc.idleTerminals != 0},
		{"WithPopulation", sc.population != 0},
		{"WithFlowGaugeLimit", sc.flowGaugeLimit != 0},
	} {
		if o.set {
			return fmt.Errorf("testbed: %s needs a multi-cell scenario (WithCells)", o.name)
		}
	}
	return nil
}

// resolve checks the scenario and returns a copy with every unset knob
// at its default and a fault profile resolved into its schedule.
func (sc *Scenario) resolve() (*Scenario, error) {
	if err := sc.check(); err != nil {
		return nil, err
	}
	r := *sc
	r.reps = max(r.reps, 1)
	if r.window <= 0 {
		r.window = defaultWindow
	}
	if r.duration <= 0 {
		r.duration = paperDuration
		if r.cells > 0 {
			r.duration = cellsDuration
		}
	}
	if r.cells > 0 {
		if r.terminals <= 0 {
			// A cell with only background load (idle fleet or
			// population) is legal; otherwise keep one terminal.
			r.terminals = 0
			if r.population <= 0 && r.idleTerminals <= 0 {
				r.terminals = 1
			}
		}
		if r.shards <= 0 || r.shards > r.cells+1 {
			r.shards = r.cells + 1
		}
		if r.flowStart <= 0 {
			r.flowStart = defaultFlowStart
		}
		if r.drain <= 0 {
			r.drain = drainTime
		}
		if r.backhaulDelay <= 0 {
			r.backhaulDelay = ethDelay
		}
		if r.flowGaugeLimit == 0 {
			r.flowGaugeLimit = defaultFlowGaugeLimit
		}
	}
	return &r, r.resolveFaults()
}

// resolveFaults materializes a WithFaultProfile name into the concrete
// schedule: fault.Preset(name, seed, dur) with the flow duration as the
// horizon, placed over the flow window — [0, dur] in a paper cell,
// [flowStart, flowStart+dur] in a multi-cell run. A raw WithFaults
// schedule is absolute and stays as given.
func (sc *Scenario) resolveFaults() error {
	if sc.faultProfile == "" || sc.faultProfile == "none" {
		return nil
	}
	if !sc.faults.Empty() {
		return fmt.Errorf("testbed: WithFaultProfile and WithFaults are mutually exclusive")
	}
	faults, err := fault.Preset(sc.faultProfile, sc.seed, sc.duration)
	if err != nil {
		return err
	}
	for i := range faults.Events {
		faults.Events[i].At += sc.flowStart
	}
	sc.faults = faults
	return nil
}

// runRep builds a private testbed for repetition i and runs the cell.
func (sc *Scenario) runRep(i int) (*ExperimentResult, error) {
	analysis := sc.analysis
	if analysis.Live != nil {
		// Stamp the repetition index into every live window of this rep.
		sink := analysis.Live
		analysis.Live = func(w LiveWindow) {
			w.Rep = i
			sink(w)
		}
	}
	tb, err := New(Options{
		Seed: RepSeed(sc.seed, i), Operator: sc.operator,
		Card: sc.card, PIN: sc.pin,
		Faults: sc.faults, SelfHeal: sc.selfHeal, HealPolicy: sc.healPolicy,
		Trace: sc.trace, Interrupt: sc.interrupt,
	})
	if err != nil {
		return nil, err
	}
	return tb.RunExperiment(ExperimentSpec{
		Path: sc.path, Workload: sc.workload,
		Duration: sc.duration, Window: sc.window,
		Analysis: analysis,
	})
}
