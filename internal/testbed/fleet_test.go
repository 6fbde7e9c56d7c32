package testbed

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/sim/shard"
	"github.com/onelab/umtslab/internal/umts"
)

// TestFleetFootprintCompaction is the fleet's memory claim in
// miniature: a compact powered-on terminal must cost at least 50×
// less resident heap than the eager full-stack build, and at most
// 2 KiB (about 90 B measured). bench/'s fleet_idle workload measures
// the peak RSS of the 100k-terminal run.
func TestFleetFootprintCompaction(t *testing.T) {
	lazy, err := FleetFootprint(4096, false)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := FleetFootprint(128, true)
	if err != nil {
		t.Fatal(err)
	}
	if lazy <= 0 || eager <= 0 {
		t.Fatalf("degenerate footprints: lazy %.1f eager %.1f", lazy, eager)
	}
	if lazy > 2048 {
		t.Fatalf("idle terminal costs %.0f B, want <= 2048 B", lazy)
	}
	if ratio := eager / lazy; ratio < 50 {
		t.Fatalf("compaction ratio %.1fx (eager %.0f B vs lazy %.0f B), want >= 50x", ratio, eager, lazy)
	}
}

// TestDynamicFewerWindowsOnIdleFleet is the dynamic policy's reason to
// exist, at testbed level: cells with only idle terminals and
// background populations exchange no cross-shard traffic, so dynamic
// horizons stride from population tick to population tick while global
// grinds lookahead-sized windows. Summed over shards, dynamic must run
// at least 5x fewer windows, with the same result.
func TestDynamicFewerWindowsOnIdleFleet(t *testing.T) {
	run := func(p shard.Policy) (*MultiCellResult, int64) {
		rep, err := NewScenario(
			WithSeed(3), WithCells(2, 0), WithShardPolicy(p),
			WithIdleTerminals(100), WithPopulation(10, nil),
			WithDuration(10*time.Second),
		).Run()
		if err != nil {
			t.Fatal(err)
		}
		var windows int64
		for _, snap := range rep.MultiCell.Snapshots {
			windows += snap.Counter("shard/windows")
		}
		return rep.MultiCell, windows
	}
	g, gw := run(shard.PolicyGlobal)
	d, dw := run(shard.PolicyDynamic)
	t.Logf("windows: global %d, dynamic %d (%.1fx)", gw, dw, float64(gw)/float64(dw))
	if dw <= 0 || gw < 5*dw {
		t.Errorf("windows: global %d vs dynamic %d (%.1fx), want >= 5x fewer under dynamic", gw, dw, float64(gw)/float64(dw))
	}
	if !reflect.DeepEqual(g.Counters, d.Counters) || !reflect.DeepEqual(g.Populations, d.Populations) {
		t.Error("global and dynamic idle-fleet runs differ")
	}
}

// TestTerminalIdentityGuards covers the centralized flow-ID/port/IMSI
// derivation, including the two overflow guards that used to be silent
// integer wraps.
func TestTerminalIdentityGuards(t *testing.T) {
	flowID, port, tid, err := terminalIdentity(2, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if flowID != 24 || port != 9024 {
		t.Fatalf("flowID %d port %d, want 24/9024", flowID, port)
	}
	if tid != (umts.TerminalID{Cell: 2, Sub: 4}) {
		t.Fatalf("tid = %+v", tid)
	}
	// Port exhaustion: flow 56536 would need port 65536.
	if _, _, _, err := terminalIdentity(0, 56535, 60000); err == nil {
		t.Fatal("port overflow must be rejected")
	} else if !strings.Contains(err.Error(), "IdleTerminals or Population") {
		t.Fatalf("port error should point at the fleet options: %v", err)
	}
	// Flow-ID overflow past uint32.
	if _, _, _, err := terminalIdentity(3, 0, math.MaxUint32); err == nil {
		t.Fatal("flow-id overflow must be rejected")
	}
}

// fleetOpts is a small-but-representative fleet scenario: real flows,
// an idle fleet, and background populations per cell.
func fleetOpts() Scenario {
	return Scenario{
		seed: 11, cells: 2, terminals: 1,
		idleTerminals: 40, population: 25,
		flowStart: 15 * time.Second, duration: 8 * time.Second, drain: 6 * time.Second,
	}
}

// TestFleetShardedIdentical extends the engine's determinism contract
// to fleet runs: idle cohorts and populations must not perturb the
// byte-identical 1-vs-N-shard equality.
func TestFleetShardedIdentical(t *testing.T) {
	diffMultiCell(t, fleetOpts(), 3)
}

// TestFleetZeroActiveFaultedDifferential: cells with ZERO active
// terminals (idle fleet + background population only) inside a faulted
// run. This is the shard-engine edge case the dynamic policy leans on
// hardest — no cross-shard traffic at all, so cell shards fast-forward
// on pure promises — and faults perturbing the radio mid-run must not
// break the 1-vs-N-shard/policy byte identity.
func TestFleetZeroActiveFaultedDifferential(t *testing.T) {
	diffMultiCell(t, Scenario{
		seed: 13, cells: 2, terminals: 0,
		idleTerminals: 30, population: 10,
		flowStart: 15 * time.Second, duration: 8 * time.Second, drain: 6 * time.Second,
		faults: fault.Schedule{Events: []fault.Event{
			{Kind: fault.KindRateFade, At: 17 * time.Second, Duration: 3 * time.Second, Scale: 0.5},
			{Kind: fault.KindFade, At: 19 * time.Second, Duration: time.Second},
			{Kind: fault.KindLinkFlap, At: 21 * time.Second, Duration: 2 * time.Second, Loss: 0.3},
		}},
	}, 3)
}

// TestFleetPopulationsPlacementIndependent compares the population
// stats themselves (not just merged counters) across shard counts.
func TestFleetPopulationsPlacementIndependent(t *testing.T) {
	opts := fleetOpts()
	opts.shards = 1
	single, err := runCells(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.shards = 3
	sharded, err := runCells(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Populations) != 2 || len(sharded.Populations) != 2 {
		t.Fatalf("population entries: %d vs %d, want 2", len(single.Populations), len(sharded.Populations))
	}
	for i := range single.Populations {
		if single.Populations[i] != sharded.Populations[i] {
			t.Fatalf("cell %d population stats differ across placements:\n %+v\n %+v",
				i, single.Populations[i], sharded.Populations[i])
		}
	}
	if single.IdleTerminals != 80 || sharded.IdleTerminals != 80 {
		t.Fatalf("idle totals: %d vs %d, want 80", single.IdleTerminals, sharded.IdleTerminals)
	}
	if got := single.Counters["fleet/idle_terminals"]; got != 80 {
		t.Fatalf("fleet/idle_terminals = %d, want 80", got)
	}
	if got := single.Counters["umts/pop/attached"]; got != 50 {
		t.Fatalf("umts/pop/attached = %d, want 50", got)
	}
}

// TestFleetPopulationOnlyCells runs cells with no active flows at all —
// pure background load — which must execute cleanly end to end.
func TestFleetPopulationOnlyCells(t *testing.T) {
	rep, err := NewScenario(
		WithSeed(5),
		WithCells(2, 0),
		WithPopulation(30, nil),
		WithIdleTerminals(10),
		WithDuration(6*time.Second),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	mc := rep.MultiCell
	if len(mc.Flows) != 0 {
		t.Fatalf("population-only run produced %d flows", len(mc.Flows))
	}
	if len(mc.Populations) != 2 || mc.Populations[0].CarriedBytes <= 0 {
		t.Fatalf("populations did not carry traffic: %+v", mc.Populations)
	}
	if mc.IdleTerminals != 20 {
		t.Fatalf("idle terminals = %d, want 20", mc.IdleTerminals)
	}
	if got := mc.Counters["umts/registrations"]; got != 20 {
		t.Fatalf("umts/registrations = %d, want 20 (idle fleet registers, population does not)", got)
	}
}

// TestFleetOptionsRequireCells: the Scenario API must reject fleet
// options on single-cell runs instead of silently ignoring them.
func TestFleetOptionsRequireCells(t *testing.T) {
	if _, err := NewScenario(WithPopulation(10, nil)).Run(); err == nil {
		t.Fatal("WithPopulation without WithCells must fail")
	}
	if _, err := NewScenario(WithIdleTerminals(10)).Run(); err == nil {
		t.Fatal("WithIdleTerminals without WithCells must fail")
	}
}

// TestFlowGaugeAggregation forces the cardinality cap: with
// FlowGaugeLimit below the flow count the per-flow retained-bytes
// gauges must collapse into per-cell sum+max aggregates whose GaugeSum
// matches the uncapped run, with the aggregation recorded.
func TestFlowGaugeAggregation(t *testing.T) {
	base := Scenario{
		seed: 3, cells: 2, terminals: 2,
		duration: 6 * time.Second, drain: 5 * time.Second,
		analysis: AnalysisConfig{Mode: AnalysisStreamOnly},
	}
	capped := base
	capped.flowGaugeLimit = 2 // 4 flows > 2: aggregate
	cres, err := runCells(capped)
	if err != nil {
		t.Fatal(err)
	}
	uncapped := base
	uncapped.flowGaugeLimit = -1
	ures, err := runCells(uncapped)
	if err != nil {
		t.Fatal(err)
	}

	cm := metrics.MergeSnapshots(cres.Snapshots...)
	um := metrics.MergeSnapshots(ures.Snapshots...)
	if got := cm.Counter("itg/stream/flows_aggregated"); got != 4 {
		t.Fatalf("flows_aggregated = %d, want 4", got)
	}
	if got := um.Counter("itg/stream/flows_aggregated"); got != 0 {
		t.Fatalf("uncapped run recorded aggregation: %d", got)
	}
	for name := range cm.Gauges {
		if strings.HasPrefix(name, "itg/stream/c0t") || strings.HasPrefix(name, "itg/stream/c1t") {
			t.Fatalf("capped run still has per-flow gauge %q", name)
		}
	}
	// The total retained footprint must be identical either way.
	if c, u := cm.GaugeSum("itg/stream/", "/retained_bytes"), um.GaugeSum("itg/stream/", "/retained_bytes"); c != u {
		t.Fatalf("aggregated GaugeSum %v != per-flow GaugeSum %v", c, u)
	}
	if cm.Gauge("itg/stream/cell0/retained_bytes_max").Value <= 0 {
		t.Fatal("per-cell max gauge missing")
	}
}

// TestFleetFullStackTolerance validates the population against REAL
// full-stack VoIP terminals (PPP/HDLC framing and all): calibrate the
// per-subscriber radio rate from a real run, then check a population
// declared at that rate carries the same bytes within a 10% declared
// tolerance (framing jitter, negotiation traffic, and window edges are
// real-stack effects the fluid model does not represent).
func TestFleetFullStackTolerance(t *testing.T) {
	const flows = 3
	dur := 8 * time.Second
	real, err := runCells(Scenario{
		seed: 21, cells: 1, terminals: flows, duration: dur, drain: 6 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	realTx := real.Counters["umts/ul/tx_bytes"]
	if realTx <= 0 {
		t.Fatal("real run carried nothing")
	}
	rate := float64(realTx) * 8 / (float64(flows) * dur.Seconds())

	popRes, err := runCells(Scenario{
		seed: 21, cells: 1, terminals: 0, population: flows,
		duration: dur, drain: 6 * time.Second,
		populationSpec: &umts.PopulationSpec{
			RateBps: rate, Start: 15 * time.Second, Duration: dur, Tolerance: 0.1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	modelCarried := float64(popRes.Counters["umts/pop/carried_bytes"])
	if modelCarried <= 0 {
		t.Fatal("population carried nothing")
	}
	if relErr := math.Abs(modelCarried-float64(realTx)) / float64(realTx); relErr > 0.1 {
		t.Fatalf("full-stack divergence %.3f > 0.1 (real %d B, model %.0f B at %.0f bps/sub)",
			relErr, realTx, modelCarried, rate)
	}
}
