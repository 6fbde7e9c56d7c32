package testbed

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/dialer"
	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/modem"
	"github.com/onelab/umtslab/internal/sim/shard"
	"github.com/onelab/umtslab/internal/umts"
)

// TestScenarioMatchesDirectRun: the Scenario front door must be pure
// plumbing — the same seed through NewScenario(...).Run() and through
// hand-built New+RunExperiment produces byte-identical results. This is
// the refactor's safety net: collapsing the entry points must not move
// a single event.
func TestScenarioMatchesDirectRun(t *testing.T) {
	tb, err := New(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := tb.RunExperiment(ExperimentSpec{
		Path: PathUMTS, Workload: WorkloadVoIP, Duration: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := NewScenario(
		WithSeed(7),
		WithPath(PathUMTS), WithWorkload(WorkloadVoIP),
		WithDuration(20*time.Second),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("scenario returned %d results, want 1", len(rep.Results))
	}
	viaAPI := rep.Results[0]

	if !reflect.DeepEqual(direct.Decoded, viaAPI.Decoded) {
		t.Error("decoded QoS differs between direct run and Scenario")
	}
	if !reflect.DeepEqual(direct.BearerEvents, viaAPI.BearerEvents) {
		t.Error("bearer logs differ")
	}
	if direct.SetupTime != viaAPI.SetupTime {
		t.Errorf("setup %v vs %v", direct.SetupTime, viaAPI.SetupTime)
	}
	if !reflect.DeepEqual(direct.Status, viaAPI.Status) {
		t.Error("final status differs")
	}
	if !reflect.DeepEqual(direct.Metrics.Counters, viaAPI.Metrics.Counters) {
		t.Error("metric counters differ")
	}
	if len(viaAPI.Outages) != 0 || len(rep.Outages) != 0 {
		t.Errorf("faultless run reports outages %v", rep.Outages)
	}
}

// stripSupervisor removes the supervisor's own instruments, the only
// registry delta a healthy self-heal run is allowed to introduce.
func stripSupervisor(counters map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(counters))
	for name, v := range counters {
		if !strings.HasPrefix(name, "dialer/supervisor/") {
			out[name] = v
		}
	}
	return out
}

// TestSelfHealTransparentWhenHealthy: with no faults, running under the
// supervisor must not perturb the simulation — the first dial happens
// at the same instant, no backoff randomness is drawn, and the decoded
// flow is byte-identical to the fail-fast run. Only the supervisor's
// own instruments may appear.
func TestSelfHealTransparentWhenHealthy(t *testing.T) {
	base, err := NewScenario(WithSeed(3), WithDuration(15*time.Second)).Run()
	if err != nil {
		t.Fatal(err)
	}
	healed, err := NewScenario(
		WithSeed(3), WithDuration(15*time.Second), WithSelfHeal(nil),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, h := base.Results[0], healed.Results[0]
	if !reflect.DeepEqual(b.Decoded, h.Decoded) {
		t.Error("decoded QoS differs under a healthy supervisor")
	}
	if !reflect.DeepEqual(b.BearerEvents, h.BearerEvents) {
		t.Errorf("bearer logs differ:\nfail-fast: %v\nself-heal: %v", b.BearerEvents, h.BearerEvents)
	}
	if b.SetupTime != h.SetupTime {
		t.Errorf("setup %v (fail-fast) vs %v (self-heal)", b.SetupTime, h.SetupTime)
	}
	bc := stripSupervisor(b.Metrics.Counters)
	hc := stripSupervisor(h.Metrics.Counters)
	if !reflect.DeepEqual(bc, hc) {
		for name, v := range bc {
			if hc[name] != v {
				t.Errorf("counter %s: %d vs %d", name, v, hc[name])
			}
		}
		for name, v := range hc {
			if _, ok := bc[name]; !ok {
				t.Errorf("counter %s only in self-heal run (%d)", name, v)
			}
		}
	}
	// Healthy run: one dial, no redials; the only downtime on the books
	// is the initial bring-up itself.
	if got := supCounter(h.Metrics.Counters, "/attempts"); got != 1 {
		t.Errorf("supervisor attempts = %d, want 1", got)
	}
	if got := supCounter(h.Metrics.Counters, "/recoveries"); got != 0 {
		t.Errorf("supervisor recoveries = %d, want 0", got)
	}
	if h.Status.Downtime <= 0 || h.Status.Downtime > h.SetupTime {
		t.Errorf("downtime %v, want within the bring-up (setup %v)", h.Status.Downtime, h.SetupTime)
	}
	if h.Status.Availability <= 0 || h.Status.Availability >= 1 {
		t.Errorf("availability %v, want in (0, 1)", h.Status.Availability)
	}
}

// supCounter sums the supervisor counters with the given suffix across
// nodes (names embed the node/iface, which tests should not hardcode).
func supCounter(counters map[string]int64, suffix string) int64 {
	var total int64
	for name, v := range counters {
		if strings.HasPrefix(name, "dialer/supervisor/") && strings.HasSuffix(name, suffix) {
			total += v
		}
	}
	return total
}

// TestEmptyFaultScheduleIsTransparent: the fault layer is free when
// unused. A scenario armed with an explicitly empty schedule, or with
// the "none" preset, decodes and counts exactly like a plain run.
func TestEmptyFaultScheduleIsTransparent(t *testing.T) {
	run := func(opts ...ScenarioOption) *ExperimentResult {
		rep, err := NewScenario(append([]ScenarioOption{WithSeed(5), WithDuration(20 * time.Second)}, opts...)...).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results[0]
	}
	plain := run()
	for name, armed := range map[string]*ExperimentResult{
		"empty schedule": run(WithFaults(fault.Schedule{})),
		"none preset":    run(WithFaultProfile("none")),
	} {
		if !reflect.DeepEqual(plain.Decoded, armed.Decoded) {
			t.Errorf("%s: decoded result differs from a plain run", name)
		}
		if !reflect.DeepEqual(plain.Metrics.Counters, armed.Metrics.Counters) {
			t.Errorf("%s: counters differ from a plain run", name)
		}
	}
}

// TestScenarioRecoversFromScriptedDrops is the recovery acceptance
// test: two scripted carrier drops during the flow, self-healing on —
// the supervisor must re-establish PPP both times within its backoff
// budget, the run must end connected, and the availability accounting
// must show exactly two closed outages.
func TestScenarioRecoversFromScriptedDrops(t *testing.T) {
	sched := fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindCarrierDrop, At: 30 * time.Second},
		{Kind: fault.KindCarrierDrop, At: 55 * time.Second},
	}}
	rep, err := NewScenario(
		WithSeed(11),
		WithDuration(60*time.Second),
		WithFaults(sched),
		WithSelfHeal(&dialer.Policy{InitialBackoff: 2 * time.Second}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]

	if got := len(res.Outages); got != 2 {
		t.Fatalf("outage windows %d, want 2: %v", got, res.Outages)
	}
	for _, w := range res.Outages {
		if w.Kind != fault.KindCarrierDrop {
			t.Errorf("outage kind %v, want carrier-drop", w.Kind)
		}
	}
	// The final status was taken after the second recovery: connected,
	// with both outages closed in the accounting.
	if res.Status.State != "up" {
		t.Fatalf("final state %q, want up (status: %+v)", res.Status.State, res.Status)
	}
	if res.Status.Availability <= 0 || res.Status.Availability >= 1 {
		t.Errorf("availability %v, want in (0, 1)", res.Status.Availability)
	}
	if res.Status.Downtime <= 0 {
		t.Errorf("downtime %v, want > 0", res.Status.Downtime)
	}
	c := res.Metrics.Counters
	if got := c["fault/injected"]; got != 2 {
		t.Errorf("fault/injected = %d, want 2", got)
	}
	if got := supCounter(c, "/recoveries"); got != 2 {
		t.Errorf("supervisor recoveries = %d, want 2", got)
	}
	if got := supCounter(c, "/attempts"); got < 3 {
		t.Errorf("supervisor attempts = %d, want >= 3 (first dial + 2 redials)", got)
	}
	if got := supCounter(c, "/give_ups"); got != 0 {
		t.Errorf("supervisor give-ups = %d, want 0", got)
	}
	// Packets flowed, and some were lost to the outages.
	if res.Decoded.Received == 0 {
		t.Fatal("no packets delivered")
	}
	if res.Decoded.Received >= res.Decoded.Sent {
		t.Errorf("received %d of %d sent; outages should have cost packets",
			res.Decoded.Received, res.Decoded.Sent)
	}
}

// TestMultiCellFaultedShardDifferential extends the shard-count
// determinism contract to faulted runs: a schedule of non-fatal faults
// (rate fade, radio fade, uplink flap) produces byte-identical flows
// and counters regardless of placement.
func TestMultiCellFaultedShardDifferential(t *testing.T) {
	diffMultiCell(t, Scenario{
		seed: 3, cells: 2, terminals: 1,
		faults: fault.Schedule{Events: []fault.Event{
			{Kind: fault.KindRateFade, At: 18 * time.Second, Duration: 5 * time.Second, Scale: 0.5},
			{Kind: fault.KindFade, At: 25 * time.Second, Duration: time.Second},
			{Kind: fault.KindLinkFlap, At: 30 * time.Second, Duration: 2 * time.Second, Loss: 0.3},
		}},
	}, 3)
}

// TestMultiCellSelfHealShardDifferential drops every cell's carrier
// mid-flow with self-healing on: the supervisors' redials (including
// their jittered backoff draws) must stay placement-independent.
func TestMultiCellSelfHealShardDifferential(t *testing.T) {
	diffMultiCell(t, Scenario{
		seed: 5, cells: 2, terminals: 1,
		selfHeal:   true,
		healPolicy: &dialer.Policy{InitialBackoff: time.Second},
		faults: fault.Schedule{Events: []fault.Event{
			{Kind: fault.KindCarrierDrop, At: 20 * time.Second},
		}},
		duration: 40 * time.Second,
	}, 3)
}

// TestScenarioRejectsIgnoredOptions: an option that the scenario's
// runner would ignore fails the run, and the error names the option.
func TestScenarioRejectsIgnoredOptions(t *testing.T) {
	cells := WithCells(2, 1)
	for _, c := range []struct {
		name string
		opts []ScenarioOption
	}{
		{"WithPath", []ScenarioOption{cells, WithPath(PathEthernet)}},
		{"WithReps", []ScenarioOption{cells, WithReps(3)}},
		{"WithOperator", []ScenarioOption{cells, WithOperator(umts.Commercial())}},
		{"WithCard", []ScenarioOption{cells, WithCard(modem.Globetrotter)}},
		{"WithPIN", []ScenarioOption{cells, WithPIN("1234")}},
		{"WithTrace", []ScenarioOption{cells, WithTrace(func(string, ...any) {})}},
		{"WithShards", []ScenarioOption{WithShards(2)}},
		{"WithShardPolicy", []ScenarioOption{WithShardPolicy(shard.PolicyDynamic)}},
		{"WithFlowStart", []ScenarioOption{WithFlowStart(time.Second)}},
		{"WithIdleTerminals", []ScenarioOption{WithIdleTerminals(10)}},
		{"WithPopulation", []ScenarioOption{WithPopulation(10, nil)}},
		{"WithFlowGaugeLimit", []ScenarioOption{WithFlowGaugeLimit(8)}},
	} {
		if _, err := NewScenario(c.opts...).Run(); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s: Run() = %v, want an error naming %s", c.name, err, c.name)
		}
	}
}

// TestFaultProfileInsideMultiCellFlowWindow: a multi-cell run's flows
// start at its flow start, and a fault profile is placed over the flow
// window, so its faults hit flowing traffic rather than the dial-up.
func TestFaultProfileInsideMultiCellFlowWindow(t *testing.T) {
	for _, c := range []struct {
		profile string
		dur     time.Duration
	}{{"drops", 30 * time.Second}, {"flaky", 10 * time.Second}} {
		rep, err := NewScenario(
			WithSeed(1), WithCells(1, 1), WithDuration(c.dur), WithFaultProfile(c.profile),
		).Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Outages) == 0 {
			t.Fatalf("%s: no outages scheduled", c.profile)
		}
		for _, w := range rep.Outages {
			if w.Start < defaultFlowStart || w.End > defaultFlowStart+c.dur {
				t.Errorf("%s: outage %v outside the flow window [%v, %v]", c.profile, w, defaultFlowStart, defaultFlowStart+c.dur)
			}
		}
		if f := rep.MultiCell.Flows[0]; f.Decoded.Received == 0 {
			t.Errorf("%s: %d sent, none received", c.profile, f.Decoded.Sent)
		}
	}
}
