package testbed

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/dialer"
	"github.com/onelab/umtslab/internal/fault"
)

// TestScenarioMatchesDirectRun: a Spec-built Scenario must be pure
// plumbing — the same seed through Spec.Scenario().Run() and through
// hand-built New+RunExperiment produces byte-identical results.
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

	rep := runSpec(t, Spec{Seed: 7, Path: "umts", Workload: "voip", Duration: Duration(20 * time.Second)})
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
	base := runSpec(t, Spec{Seed: 3, Duration: Duration(15 * time.Second)})
	healed := runSpec(t, Spec{Seed: 3, Duration: Duration(15 * time.Second), SelfHeal: true})
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
// unused. A testbed armed with an explicitly empty schedule, or a
// scenario with the "none" preset, decodes and counts exactly like a
// plain run.
func TestEmptyFaultScheduleIsTransparent(t *testing.T) {
	const seed, dur = 5, 20 * time.Second
	plain := runSpec(t, Spec{Seed: seed, Duration: Duration(dur)}).Results[0]
	tb, err := New(Options{Seed: seed, Faults: fault.Schedule{}})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := tb.RunExperiment(ExperimentSpec{Path: PathUMTS, Workload: WorkloadVoIP, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	for name, armed := range map[string]*ExperimentResult{
		"empty schedule": empty,
		"none preset":    runSpec(t, Spec{Seed: seed, Duration: Duration(dur), FaultProfile: "none"}).Results[0],
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
	tb, err := New(Options{
		Seed: 11, Faults: sched,
		SelfHeal: true, HealPolicy: &dialer.Policy{InitialBackoff: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.RunExperiment(ExperimentSpec{Path: PathUMTS, Workload: WorkloadVoIP, Duration: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

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
	diffMultiCell(t, Spec{Seed: 3, Cells: 2, Terminals: 1}, 3, withFaults(fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindRateFade, At: 18 * time.Second, Duration: 5 * time.Second, Scale: 0.5},
		{Kind: fault.KindFade, At: 25 * time.Second, Duration: time.Second},
		{Kind: fault.KindLinkFlap, At: 30 * time.Second, Duration: 2 * time.Second, Loss: 0.3},
	}}))
}

// TestMultiCellSelfHealShardDifferential drops every cell's carrier
// mid-flow with self-healing on: the supervisors' redials (including
// their jittered backoff draws) must stay placement-independent.
func TestMultiCellSelfHealShardDifferential(t *testing.T) {
	diffMultiCell(t, Spec{
		Seed: 5, Cells: 2, Terminals: 1, Duration: Duration(40 * time.Second),
		SelfHeal: true, HealPolicy: &HealPolicySpec{InitialBackoff: Duration(time.Second)},
	}, 3, withFaults(fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindCarrierDrop, At: 20 * time.Second},
	}}))
}

// TestFaultProfileInsideMultiCellFlowWindow: a multi-cell run's flows
// start at its flow start, and a fault profile is placed over the flow
// window, so its faults hit flowing traffic rather than the dial-up.
func TestFaultProfileInsideMultiCellFlowWindow(t *testing.T) {
	for _, c := range []struct {
		profile string
		dur     time.Duration
	}{{"drops", 30 * time.Second}, {"flaky", 10 * time.Second}} {
		rep := runSpec(t, Spec{Seed: 1, Cells: 1, Terminals: 1, Duration: Duration(c.dur), FaultProfile: c.profile})
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
