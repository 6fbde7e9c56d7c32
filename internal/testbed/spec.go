package testbed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/onelab/umtslab/internal/dialer"
	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/umts"
)

// Spec is the one description of an experiment: a JSON-serializable
// document that the CLI flags, config files, the bench/ workloads and
// the HTTP control plane all build, and the only way to a runnable
// Scenario (see Spec.Scenario). Every knob is a wire-friendly scalar
// (path/workload/policy names, Go duration strings), so a submitted
// Spec reproduces a one-shot CLI run byte for byte.
//
// Zero fields keep the paper defaults of the underlying runner.
// Runtime hooks (metrics dump, live-window sink, interrupt) are
// deliberately absent: they are wiring, not experiment identity, and
// attach to the built Scenario (see ScenarioOption).
type Spec struct {
	// Seed is the base simulation seed; repetition r derives
	// RepSeed(seed, r).
	Seed int64 `json:"seed,omitempty"`
	// Path selects the single-cell end-to-end path: "umts" (default)
	// or "ethernet". Single-cell only.
	Path string `json:"path,omitempty"`
	// Workload selects the traffic class: "voip" (default), "cbr1m",
	// "voip-g729", or "telnet".
	Workload string `json:"workload,omitempty"`
	// Duration is the flow duration (default: 120s single-cell, 30s
	// multi-cell).
	Duration Duration `json:"duration,omitempty"`
	// Window is the QoS sample window (default 200ms).
	Window Duration `json:"window,omitempty"`

	// Reps runs n seed-derived repetitions (single-cell only).
	Reps int `json:"reps,omitempty"`
	// Workers bounds the repetition worker pool (default GOMAXPROCS).
	Workers int `json:"workers,omitempty"`

	// FaultProfile arms the named deterministic fault preset ("none",
	// "drops", "fades", "degrade", "regloss", "flaps", "flaky"),
	// resolved against Seed and the flow duration at run time.
	FaultProfile string `json:"fault_profile,omitempty"`
	// SelfHeal runs the umts backend in recover mode (supervised
	// redial under HealPolicy).
	SelfHeal bool `json:"self_heal,omitempty"`
	// HealPolicy tunes the self-heal dialer; requires SelfHeal.
	HealPolicy *HealPolicySpec `json:"heal_policy,omitempty"`

	// Analysis selects how percentiles are computed (exact when
	// omitted).
	Analysis *AnalysisSpec `json:"analysis,omitempty"`

	// Cells switches the run to the multi-cell shard engine with this
	// many UMTS cells.
	Cells int `json:"cells,omitempty"`
	// Terminals is the dialing-terminal count per cell; requires Cells.
	Terminals int `json:"terminals,omitempty"`
	// Shards overrides the shard count (default cells+1); requires
	// Cells. Must not change results.
	Shards int `json:"shards,omitempty"`
	// ShardPolicy is accepted for existing documents ("global" or
	// "dynamic"); the engine has one window policy. Requires Cells.
	ShardPolicy string `json:"shard_policy,omitempty"`
	// FlowStart delays the multi-cell senders (default 15s); requires
	// Cells.
	FlowStart Duration `json:"flow_start,omitempty"`

	// IdleTerminals powers on n extra never-dialing subscribers per
	// cell; requires Cells.
	IdleTerminals int `json:"idle_terminals,omitempty"`
	// Population attaches an aggregate ensemble of n modeled CBR
	// subscribers per cell; requires Cells.
	Population int `json:"population,omitempty"`
	// PopulationSpec overrides the modeled subscribers' workload;
	// requires Population.
	PopulationSpec *PopulationSpecJSON `json:"population_spec,omitempty"`
	// FlowGaugeLimit caps per-flow metrics cardinality of a multi-cell
	// run (default 256, negative disables the cap); requires Cells.
	FlowGaugeLimit int `json:"flow_gauge_limit,omitempty"`
}

// Duration is a time.Duration that marshals as a Go duration string
// ("120s", "1m30s"); it also accepts integer nanoseconds on decode.
type Duration time.Duration

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "30s"-style strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("invalid duration %q (want e.g. \"30s\")", s)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("duration must be a string like \"30s\" or integer nanoseconds")
	}
	*d = Duration(n)
	return nil
}

// HealPolicySpec is the wire form of dialer.Policy (see that type for
// field semantics and defaults).
type HealPolicySpec struct {
	InitialBackoff Duration `json:"initial_backoff,omitempty"`
	MaxBackoff     Duration `json:"max_backoff,omitempty"`
	Multiplier     float64  `json:"multiplier,omitempty"`
	JitterFrac     float64  `json:"jitter_frac,omitempty"`
	NoJitter       bool     `json:"no_jitter,omitempty"`
	MaxAttempts    int      `json:"max_attempts,omitempty"`
	NoRetry        bool     `json:"no_retry,omitempty"`
}

func (h *HealPolicySpec) policy() *dialer.Policy {
	return &dialer.Policy{
		InitialBackoff: time.Duration(h.InitialBackoff),
		MaxBackoff:     time.Duration(h.MaxBackoff),
		Multiplier:     h.Multiplier,
		JitterFrac:     h.JitterFrac,
		NoJitter:       h.NoJitter,
		MaxAttempts:    h.MaxAttempts,
		NoRetry:        h.NoRetry,
	}
}

// AnalysisSpec is the wire form of AnalysisConfig's declarative
// fields. The Live subscription is runtime wiring and has no wire
// form. Every flow gets one report, with exact percentiles unless the
// document asks for the sketch.
type AnalysisSpec struct {
	// Mode "stream-only" sketches the percentiles. "", "batch" and
	// "stream" report them exact; the three names are kept so that
	// older documents still parse.
	Mode string `json:"mode,omitempty"`
	// SketchRelErr is the quantile sketch's relative error bound.
	SketchRelErr float64 `json:"sketch_rel_err,omitempty"`
	// Exact keeps "stream-only" exact too.
	Exact bool `json:"exact,omitempty"`
}

// PopulationSpecJSON is the wire form of umts.PopulationSpec (see that
// type for field semantics and defaults).
type PopulationSpecJSON struct {
	RateBps     float64  `json:"rate_bps,omitempty"`
	PacketBytes int      `json:"packet_bytes,omitempty"`
	Tick        Duration `json:"tick,omitempty"`
	Start       Duration `json:"start,omitempty"`
	Duration    Duration `json:"duration,omitempty"`
	Tolerance   float64  `json:"tolerance,omitempty"`
}

func (p *PopulationSpecJSON) spec() umts.PopulationSpec {
	return umts.PopulationSpec{
		RateBps:     p.RateBps,
		PacketBytes: p.PacketBytes,
		Tick:        time.Duration(p.Tick),
		Start:       time.Duration(p.Start),
		Duration:    time.Duration(p.Duration),
		Tolerance:   p.Tolerance,
	}
}

// ParseSpec decodes and validates a JSON Spec. Unknown fields are
// rejected (a typoed knob must not silently fall back to a default),
// as is trailing garbage after the document.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	spec := &Spec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("spec: trailing data after JSON document")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Validate checks every field against its allowed values and the
// cross-field constraints the runners enforce, reporting the first
// problem with its field path (e.g. "spec.shard_policy: ...").
func (s *Spec) Validate() error {
	if _, err := ParsePath(s.Path); err != nil {
		return fmt.Errorf("spec.path: %v", err)
	}
	if _, err := ParseWorkload(s.Workload); err != nil {
		return fmt.Errorf("spec.workload: %v", err)
	}
	if !fault.ValidPreset(s.FaultProfile) {
		return fmt.Errorf("spec.fault_profile: unknown preset %q (want %s)",
			s.FaultProfile, strings.Join(fault.PresetNames(), ", "))
	}
	switch s.ShardPolicy {
	case "", "global", "dynamic":
	default:
		return fmt.Errorf("spec.shard_policy: unknown policy %q (allowed: global, dynamic)", s.ShardPolicy)
	}
	if s.Analysis != nil {
		switch s.Analysis.Mode {
		case "", "batch", "stream", "stream-only":
		default:
			return fmt.Errorf("spec.analysis.mode: unknown analysis mode %q (allowed: batch, stream, stream-only)", s.Analysis.Mode)
		}
		if e := s.Analysis.SketchRelErr; e < 0 || e >= 1 {
			return fmt.Errorf("spec.analysis.sketch_rel_err: must be in [0, 1) (0 selects the default)")
		}
	}
	if h := s.HealPolicy; h != nil && h.Multiplier != 0 && h.Multiplier < 1 {
		return fmt.Errorf("spec.heal_policy.multiplier: must be >= 1 (0 selects the default); backoff must not shrink")
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"seed", s.Seed},
		{"duration", int64(s.Duration)},
		{"window", int64(s.Window)},
		{"reps", int64(s.Reps)},
		{"workers", int64(s.Workers)},
		{"cells", int64(s.Cells)},
		{"terminals", int64(s.Terminals)},
		{"shards", int64(s.Shards)},
		{"flow_start", int64(s.FlowStart)},
		{"idle_terminals", int64(s.IdleTerminals)},
		{"population", int64(s.Population)},
	} {
		if f.v < 0 {
			return fmt.Errorf("spec.%s: must be >= 0", f.name)
		}
	}
	if s.HealPolicy != nil && !s.SelfHeal {
		return fmt.Errorf("spec.heal_policy: requires spec.self_heal")
	}
	if s.Workers > 0 && s.Reps <= 1 {
		return fmt.Errorf("spec.workers: requires spec.reps > 1")
	}
	if s.Cells > 0 {
		if s.Path != "" {
			return fmt.Errorf("spec.path: single-cell only (conflicts with spec.cells)")
		}
		if s.Reps > 1 {
			return fmt.Errorf("spec.reps: repetitions are single-cell only (conflicts with spec.cells)")
		}
		if s.Cells > maxCells {
			return fmt.Errorf("spec.cells: at most %d (the Gi links' 172.16.(200+cell) plan)", maxCells)
		}
		t := s.activeTerminals()
		if t > maxFlows/s.Cells {
			return fmt.Errorf("spec.terminals: cells x terminals must be <= %d, one receiver port per flow; model more subscribers as idle_terminals or population", maxFlows)
		}
		if pool := cellOperator(s.Population, s.IdleTerminals)(0).PoolSize(); s.Population > pool-t {
			return fmt.Errorf("spec.terminals: terminals + population must be <= %d, the addresses of one cell's pool", pool)
		}
	} else {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"terminals", s.Terminals > 0},
			{"shards", s.Shards > 0},
			{"shard_policy", s.ShardPolicy != ""},
			{"flow_start", s.FlowStart > 0},
			{"idle_terminals", s.IdleTerminals > 0},
			{"population", s.Population > 0},
			{"population_spec", s.PopulationSpec != nil},
			{"flow_gauge_limit", s.FlowGaugeLimit != 0},
		} {
			if f.set {
				return fmt.Errorf("spec.%s: requires spec.cells (multi-cell only)", f.name)
			}
		}
	}
	if s.PopulationSpec != nil && s.Population <= 0 {
		return fmt.Errorf("spec.population_spec: requires spec.population")
	}
	if s.PopulationSpec != nil && s.PopulationSpec.RateBps <= 0 {
		return fmt.Errorf("spec.population_spec.rate_bps: must be > 0")
	}
	return nil
}

// activeTerminals is the dialing-terminal count per cell of a
// multi-cell run. A cell with only background load (idle fleet or
// population) is legal; otherwise it keeps at least one terminal.
func (s *Spec) activeTerminals() int {
	if s.Terminals <= 0 && s.Population <= 0 && s.IdleTerminals <= 0 {
		return 1
	}
	return s.Terminals
}

// Scenario validates the spec and resolves it, once, into the runnable
// Scenario it describes; it is the only constructor of a Scenario.
// Every zero field takes its default (the flow duration and window;
// in a multi-cell run also the terminal and shard counts, the flow
// start, the gauge limit and 64 kbps CBR for the modeled subscribers),
// and the fault profile is drawn into its schedule with
// fault.Preset(profile, Seed, duration), placed over the flow window:
// [0, duration] in a paper cell, [flow start, flow start + duration]
// in a multi-cell run. Repetition r runs with RepSeed(Seed, r) under
// that one schedule. Run-time hooks attach to the result (see
// ScenarioOption).
func (s *Spec) Scenario() (*Scenario, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sc := &Scenario{
		seed:           s.Seed,
		duration:       time.Duration(s.Duration),
		window:         time.Duration(s.Window),
		reps:           max(s.Reps, 1),
		workers:        s.Workers,
		selfHeal:       s.SelfHeal,
		cells:          s.Cells,
		terminals:      s.Terminals,
		shards:         s.Shards,
		flowStart:      time.Duration(s.FlowStart),
		idleTerminals:  s.IdleTerminals,
		population:     s.Population,
		flowGaugeLimit: s.FlowGaugeLimit,
	}
	// Validate has accepted every name.
	sc.path, _ = ParsePath(s.Path)
	sc.workload, _ = ParseWorkload(s.Workload)
	if s.HealPolicy != nil {
		sc.healPolicy = s.HealPolicy.policy()
	}
	if a := s.Analysis; a != nil {
		sc.analysis.Sketch = a.Mode == "stream-only" && !a.Exact
		sc.analysis.SketchRelErr = a.SketchRelErr
	}
	if sc.window <= 0 {
		sc.window = defaultWindow
	}
	if sc.duration <= 0 {
		sc.duration = paperDuration
		if sc.cells > 0 {
			sc.duration = cellsDuration
		}
	}
	if sc.cells > 0 {
		sc.terminals = s.activeTerminals()
		if sc.shards <= 0 || sc.shards > sc.cells+1 {
			sc.shards = sc.cells + 1
		}
		if sc.flowStart <= 0 {
			sc.flowStart = defaultFlowStart
		}
		if sc.flowGaugeLimit == 0 {
			sc.flowGaugeLimit = defaultFlowGaugeLimit
		}
		sc.drain = drainTime
		sc.backhaulDelay = ethDelay
		sc.populationSpec = umts.PopulationSpec{RateBps: 64e3, Start: sc.flowStart, Duration: sc.duration}
		if s.PopulationSpec != nil {
			sc.populationSpec = s.PopulationSpec.spec()
		}
	}
	faults, err := fault.Preset(s.FaultProfile, s.Seed, sc.duration)
	if err != nil {
		return nil, err
	}
	for i := range faults.Events {
		faults.Events[i].At += sc.flowStart
	}
	sc.faults = faults
	return sc, nil
}
