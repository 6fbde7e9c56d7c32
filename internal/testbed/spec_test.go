package testbed

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/dialer"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/modem"
	"github.com/onelab/umtslab/internal/sim/shard"
	"github.com/onelab/umtslab/internal/umts"
)

// specGolden is the wire form of TestSpecGoldenJSON's spec, which sets
// every field group.
const specGolden = `{"seed":42,"workload":"cbr1m","duration":"1m30s","window":"200ms","fault_profile":"flaky","self_heal":true,"heal_policy":{"initial_backoff":"1s","max_attempts":3},"analysis":{"mode":"stream","exact":true},"cells":4,"terminals":2,"shards":3,"shard_policy":"dynamic","flow_start":"15s","idle_terminals":100,"population":1000,"population_spec":{"rate_bps":64000,"tick":"100ms"},"flow_gauge_limit":64}`

// TestSpecGoldenJSON pins the wire format: field names, duration
// strings, and omitted defaults must not drift, because specs live in
// files and HTTP bodies outside this repo's control.
func TestSpecGoldenJSON(t *testing.T) {
	spec := &Spec{
		Seed: 42, Workload: "cbr1m",
		Duration: Duration(90 * time.Second), Window: Duration(200 * time.Millisecond),
		FaultProfile: "flaky", SelfHeal: true,
		HealPolicy: &HealPolicySpec{InitialBackoff: Duration(time.Second), MaxAttempts: 3},
		Analysis:   &AnalysisSpec{Mode: "stream", Exact: true},
		Cells:      4, Terminals: 2, Shards: 3, ShardPolicy: "dynamic",
		FlowStart: Duration(15 * time.Second), IdleTerminals: 100, Population: 1000,
		PopulationSpec: &PopulationSpecJSON{RateBps: 64000, Tick: Duration(100 * time.Millisecond)},
		FlowGaugeLimit: 64,
	}
	got, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != specGolden {
		t.Errorf("wire format drifted:\n got %s\nwant %s", got, specGolden)
	}
	back, err := ParseSpec(got)
	if err != nil {
		t.Fatalf("golden spec does not re-parse: %v", err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("marshal/unmarshal not lossless:\n got %+v\nwant %+v", back, spec)
	}
}

// TestSpecZeroValueMarshalsEmpty: the all-defaults spec is the empty
// object — every zero field is omitted.
func TestSpecZeroValueMarshalsEmpty(t *testing.T) {
	got, err := json.Marshal(&Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "{}" {
		t.Errorf("zero spec marshals to %s, want {}", got)
	}
}

// TestParseSpecRejectsUnknownFields: a typoed knob must fail loudly,
// not silently run the default experiment.
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	for _, bad := range []string{
		`{"sheduler":"heap"}`,
		`{"cells":2,"terminal":1}`,
		`{"seed":1} trailing`,
		`{"analysis":{"exactt":true}}`,
	} {
		if _, err := ParseSpec([]byte(bad)); err == nil {
			t.Errorf("ParseSpec(%s) accepted bad input", bad)
		}
	}
}

// TestSpecValidateFieldPaths: each rejected field reports its own
// path, so control-plane clients can map errors back to their input.
func TestSpecValidateFieldPaths(t *testing.T) {
	cases := []struct {
		spec Spec
		path string
		msg  string // optional substring the error must also contain
	}{
		{Spec{Path: "dsl"}, "spec.path", ""},
		{Spec{Workload: "quake"}, "spec.workload", ""},
		{Spec{FaultProfile: "chaos"}, "spec.fault_profile", ""},
		{Spec{Cells: 2, ShardPolicy: "static"}, "spec.shard_policy", ""},
		{Spec{Cells: 2, ShardPolicy: "adaptive"}, "spec.shard_policy", "(allowed: global, dynamic)"},
		{Spec{Cells: 2, ShardPolicy: "optimistic"}, "spec.shard_policy", "(allowed: global, dynamic)"},
		{Spec{Analysis: &AnalysisSpec{Mode: "online"}}, "spec.analysis.mode", ""},
		{Spec{Analysis: &AnalysisSpec{SketchRelErr: -1}}, "spec.analysis.sketch_rel_err", ""},
		{Spec{Analysis: &AnalysisSpec{SketchRelErr: 1}}, "spec.analysis.sketch_rel_err", "[0, 1)"},
		{Spec{Analysis: &AnalysisSpec{Mode: "stream", SketchRelErr: 1.5}}, "spec.analysis.sketch_rel_err", "[0, 1)"},
		{Spec{SelfHeal: true, HealPolicy: &HealPolicySpec{Multiplier: 0.5}}, "spec.heal_policy.multiplier", ">= 1"},
		{Spec{SelfHeal: true, HealPolicy: &HealPolicySpec{Multiplier: -1}}, "spec.heal_policy.multiplier", ">= 1"},
		{Spec{Duration: Duration(-time.Second)}, "spec.duration", ""},
		{Spec{Reps: -1}, "spec.reps", ""},
		{Spec{HealPolicy: &HealPolicySpec{}}, "spec.heal_policy", ""},
		{Spec{Workers: 4}, "spec.workers", ""},
		{Spec{Cells: 2, Path: "ethernet"}, "spec.path", ""},
		{Spec{Cells: 2, Reps: 3}, "spec.reps", ""},
		{Spec{Terminals: 2}, "spec.terminals", ""},
		{Spec{Shards: 2}, "spec.shards", ""},
		{Spec{ShardPolicy: "global"}, "spec.shard_policy", ""},
		{Spec{FlowStart: Duration(time.Second)}, "spec.flow_start", ""},
		{Spec{IdleTerminals: 5}, "spec.idle_terminals", ""},
		{Spec{Population: 5}, "spec.population", ""},
		{Spec{PopulationSpec: &PopulationSpecJSON{}}, "spec.population_spec", ""},
		{Spec{FlowGaugeLimit: 9}, "spec.flow_gauge_limit", ""},
		{Spec{Cells: 2, PopulationSpec: &PopulationSpecJSON{}}, "spec.population_spec", ""},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) passed, want %s error", c.spec, c.path)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.path+":") {
			t.Errorf("Validate(%+v) = %q, want %s: prefix", c.spec, err, c.path)
		}
		if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("Validate(%+v) = %q, want it to contain %q", c.spec, err, c.msg)
		}
	}
}

// FuzzParseSpec feeds arbitrary bytes to the spec parser. Every input
// must either be rejected or build a Scenario, and a built Scenario
// must export a Spec whose encoding parses back to the same Spec and
// the same Scenario: the wire form is a fixed point after one
// normalization.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(specGolden))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"duration":"2s","analysis":{"mode":"stream","sketch_rel_err":1.5}}`))
	f.Add([]byte(`{"duration":"2s","self_heal":true,"heal_policy":{"multiplier":0.5}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		sc, err := spec.Scenario()
		if err != nil {
			t.Fatalf("valid spec %s does not build: %v", data, err)
		}
		spec2, err := sc.Spec()
		if err != nil {
			t.Fatalf("spec %s: scenario does not export: %v", data, err)
		}
		enc, err := json.Marshal(spec2)
		if err != nil {
			t.Fatal(err)
		}
		spec3, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("exported spec %s does not re-parse: %v", enc, err)
		}
		if !reflect.DeepEqual(spec2, spec3) {
			t.Fatalf("exported spec not a fixed point:\n %+v\n %+v", spec2, spec3)
		}
		sc3, err := spec3.Scenario()
		if err != nil {
			t.Fatalf("exported spec %s does not build: %v", enc, err)
		}
		if !reflect.DeepEqual(sc, sc3) {
			t.Fatalf("spec %s: round trip changed the scenario:\n %+v\n %+v", data, sc, sc3)
		}
	})
}

// TestSpecScenarioRoundTrip: Spec -> Scenario -> Spec' -> Scenario'
// must reproduce the identical Scenario — the definition of a lossless
// wire form. Runtime hooks are all nil on both sides, so DeepEqual is
// exact.
func TestSpecScenarioRoundTrip(t *testing.T) {
	specs := []*Spec{
		{}, // all paper defaults
		{Seed: 7, Path: "ethernet", Workload: "telnet",
			Duration: Duration(30 * time.Second), Reps: 3, Workers: 2},
		{Seed: 9, FaultProfile: "flaps", SelfHeal: true,
			HealPolicy: &HealPolicySpec{MaxAttempts: -1, NoJitter: true, Multiplier: 1.5}},
		{Workload: "voip-g729", Analysis: &AnalysisSpec{Mode: "stream-only", SketchRelErr: 0.005}},
		{Seed: 3, Cells: 4, Terminals: 2, Shards: 3, ShardPolicy: "dynamic",
			FlowStart: Duration(10 * time.Second), Duration: Duration(20 * time.Second),
			IdleTerminals: 50, Population: 200,
			PopulationSpec: &PopulationSpecJSON{RateBps: 32000, Tolerance: 0.05},
			FlowGaugeLimit: -1},
		{Cells: 2, SelfHeal: true, FaultProfile: "drops",
			Analysis: &AnalysisSpec{Mode: "stream", Exact: true}},
	}
	for i, spec := range specs {
		sc, err := spec.Scenario()
		if err != nil {
			t.Fatalf("spec %d: Scenario: %v", i, err)
		}
		spec2, err := sc.Spec()
		if err != nil {
			t.Fatalf("spec %d: back to Spec: %v", i, err)
		}
		sc2, err := spec2.Scenario()
		if err != nil {
			t.Fatalf("spec %d: Scenario from round-tripped spec: %v", i, err)
		}
		if !reflect.DeepEqual(sc, sc2) {
			t.Errorf("spec %d: round trip changed the scenario:\n spec  %+v\n spec' %+v\n sc  %+v\n sc' %+v",
				i, spec, spec2, sc, sc2)
		}
	}
}

// TestScenarioSpecRejectsNonWireForms: scenarios carrying programmatic
// overrides or runtime hooks must refuse to serialize instead of
// silently dropping behavior.
func TestScenarioSpecRejectsNonWireForms(t *testing.T) {
	cases := []struct {
		name string
		sc   *Scenario
	}{
		{"operator", NewScenario(WithOperator(umts.Config{}))},
		{"card", NewScenario(WithCard(modem.CardProfile{}))},
		{"pin", NewScenario(WithPIN("0000"))},
		{"faults", func() *Scenario {
			sc := NewScenario(WithFaultProfile("drops"))
			if err := sc.resolveFaults(); err != nil {
				t.Fatal(err)
			}
			sc.faultProfile = ""
			return sc
		}()},
		{"trace", NewScenario(WithTrace(func(string, ...any) {}))},
		{"dump", NewScenario(WithMetricsDump(func(metrics.Snapshot) {}))},
		{"interrupt", NewScenario(WithInterrupt(func() bool { return false }))},
		{"live", NewScenario(WithAnalysis(AnalysisConfig{Mode: AnalysisStream, Live: func(LiveWindow) {}}))},
	}
	for _, c := range cases {
		if _, err := c.sc.Spec(); err == nil {
			t.Errorf("%s: Spec() serialized a scenario with no wire form", c.name)
		}
	}
}

// resultBytes is the byte-identity probe: the canonical JSON encoding
// of everything a run reports about QoS.
func resultBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if rep.MultiCell != nil {
		if err := enc.Encode(rep.MultiCell.Flows); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(rep.MultiCell.Counters); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, r := range rep.Results {
		if err := enc.Encode(r.Decoded); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSpecDifferentialSingleCell: a Spec-built run must be
// byte-identical to the directly-built Scenario run — the control
// plane's core correctness claim.
func TestSpecDifferentialSingleCell(t *testing.T) {
	spec := &Spec{Seed: 11, Workload: "voip", Duration: Duration(parTestDur)}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewScenario(
		WithSeed(11), WithWorkload(WorkloadVoIP), WithDuration(parTestDur),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, viaSpec), resultBytes(t, direct)) {
		t.Error("spec-built run differs from direct run")
	}
}

// TestSpecShardPolicyRoundTrip: every engine policy name survives the
// wire format — JSON decode, Validate, Scenario conversion, and the
// Spec() export — so a saved measurement spec replays under the policy
// it recorded. Iterating shard.Policies() makes the test self-widening:
// a new policy that misses any leg of the path fails here.
func TestSpecShardPolicyRoundTrip(t *testing.T) {
	for _, p := range shard.Policies() {
		raw := []byte(`{"cells":2,"shard_policy":"` + p.String() + `"}`)
		var s Spec
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatalf("policy %v: unmarshal: %v", p, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("policy %v: validate: %v", p, err)
		}
		sc, err := s.Scenario()
		if err != nil {
			t.Fatalf("policy %v: scenario: %v", p, err)
		}
		if sc.shardPolicy != p {
			t.Fatalf("policy %v: scenario carries %v", p, sc.shardPolicy)
		}
		back, err := sc.Spec()
		if err != nil {
			t.Fatalf("policy %v: spec export: %v", p, err)
		}
		want := p.String()
		if p == shard.PolicyGlobal {
			want = "" // the default is omitted from the wire format
		}
		if back.ShardPolicy != want {
			t.Errorf("policy %v: round-tripped as %q, want %q", p, back.ShardPolicy, want)
		}
	}
}

// TestSpecDifferentialMultiCell: same identity on the shard engine
// with a non-default placement.
func TestSpecDifferentialMultiCell(t *testing.T) {
	spec := &Spec{Seed: 5, Cells: 3, Terminals: 1, Shards: 2,
		ShardPolicy: "dynamic", Duration: Duration(12 * time.Second)}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewScenario(
		WithSeed(5), WithCells(3, 1), WithShards(2),
		WithShardPolicy(shard.PolicyDynamic), WithDuration(12*time.Second),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, viaSpec), resultBytes(t, direct)) {
		t.Error("spec-built multi-cell run differs from direct run")
	}
}

// TestSpecHealPolicyConversion: the wire heal policy reaches the
// dialer unchanged.
func TestSpecHealPolicyConversion(t *testing.T) {
	spec := &Spec{SelfHeal: true, HealPolicy: &HealPolicySpec{
		InitialBackoff: Duration(3 * time.Second), MaxBackoff: Duration(time.Minute),
		Multiplier: 1.5, JitterFrac: 0.2, MaxAttempts: 4,
	}}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	want := &dialer.Policy{InitialBackoff: 3 * time.Second, MaxBackoff: time.Minute,
		Multiplier: 1.5, JitterFrac: 0.2, MaxAttempts: 4}
	if !reflect.DeepEqual(sc.healPolicy, want) {
		t.Errorf("heal policy = %+v, want %+v", sc.healPolicy, want)
	}
}
