package testbed

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/dialer"
	"github.com/onelab/umtslab/internal/sim/shard"
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
// must either be rejected or build a Scenario, and an accepted spec's
// encoding must parse back to the same Spec and build the same
// Scenario: the wire form is lossless.
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
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec2, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("encoded spec %s does not re-parse: %v", enc, err)
		}
		if !reflect.DeepEqual(spec, spec2) {
			t.Fatalf("spec %s: encoding not lossless:\n %+v\n %+v", data, spec, spec2)
		}
		sc2, err := spec2.Scenario()
		if err != nil {
			t.Fatalf("encoded spec %s does not build: %v", enc, err)
		}
		if !reflect.DeepEqual(sc, sc2) {
			t.Fatalf("spec %s: encoding changed the scenario:\n %+v\n %+v", data, sc, sc2)
		}
	})
}

// TestSpecShardPolicyRoundTrip: every engine policy name survives the
// wire format — JSON decode, Validate and Scenario conversion — so a
// saved measurement spec replays under the policy it recorded.
// Iterating shard.Policies() makes the test self-widening: a new
// policy that misses any leg of the path fails here.
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
