package testbed

import (
	"errors"
	"time"

	"github.com/onelab/umtslab/internal/dialer"
	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/umts"
)

// Scenario is one runnable experiment: a Spec validated and resolved
// once by Spec.Scenario — every unset knob at its default, a fault
// profile drawn into its schedule — plus the run-time hooks that are
// wiring rather than experiment identity (WithMetricsDump,
// WithInterrupt, WithLiveWindows). Spec.Scenario is its only
// constructor:
//
//	spec := &testbed.Spec{Seed: 7, FaultProfile: "flaky", SelfHeal: true}
//	sc, err := spec.Scenario()
//	...
//	rep, err := sc.Run()
//
// The zero Spec runs one UMTS-path VoIP cell with paper parameters. It
// covers every experiment shape the testbed runs: one §3 paper cell, a
// repetition sweep across a worker pool, or the K-cell × M-terminal
// scale-out on the shard engine, with or without faults and the
// self-healing dialer. Run does not modify the scenario.
type Scenario struct {
	seed     int64
	path     Path
	workload Workload
	duration time.Duration
	window   time.Duration

	reps    int
	workers int

	faults     fault.Schedule
	selfHeal   bool
	healPolicy *dialer.Policy

	analysis AnalysisConfig

	cells     int
	terminals int
	shards    int
	flowStart time.Duration

	idleTerminals  int
	population     int
	populationSpec umts.PopulationSpec
	flowGaugeLimit int

	// drain is a multi-cell run's tail after its flows, for queued
	// packets and echoes; backhaulDelay is the one-way delay of every
	// Gi uplink and of the server's link, and with it the shard
	// engine's lookahead. Only tests change them.
	drain         time.Duration
	backhaulDelay time.Duration

	dump      func(metrics.Snapshot)
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

// ScenarioOption attaches a run-time hook to a built Scenario:
// testbed.WithInterrupt(fn)(sc).
type ScenarioOption func(*Scenario)

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

// WithMetricsDump registers a callback that receives each
// repetition's final metrics snapshot (or the merged per-shard
// snapshot of a multi-cell run), after Run completes, in repetition
// order.
func WithMetricsDump(fn func(metrics.Snapshot)) ScenarioOption {
	return func(sc *Scenario) { sc.dump = fn }
}

// WithLiveWindows subscribes fn to every flow's QoS windows while the
// run executes: each window is delivered once the flow's feeds have
// progressed the decoder's seal lag past its end, and any remainder at
// the end of the flow, whatever the analysis. fn may be called from
// engine worker goroutines and must be safe for concurrent use.
func WithLiveWindows(fn func(LiveWindow)) ScenarioOption {
	return func(sc *Scenario) { sc.analysis.Live = fn }
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
	rep := &Report{Outages: sc.faults.Windows()}
	if sc.cells > 0 {
		mc, err := runMultiCell(sc)
		if err != nil {
			return nil, err
		}
		rep.MultiCell = mc
		if sc.dump != nil {
			sc.dump(metrics.MergeSnapshots(mc.Snapshots...))
		}
		return rep, nil
	}

	results, err := runPool(sc.reps, sc.workers, sc.runRep)
	if err != nil {
		return nil, err
	}
	rep.Results = results
	if sc.dump != nil {
		for _, res := range results {
			sc.dump(res.Metrics)
		}
	}
	return rep, nil
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
		Seed: RepSeed(sc.seed, i), Faults: sc.faults,
		SelfHeal: sc.selfHeal, HealPolicy: sc.healPolicy,
		Interrupt: sc.interrupt,
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
