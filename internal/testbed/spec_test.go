package testbed

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// specGolden is the wire form of TestSpecGoldenJSON's spec, which sets
// each of the Spec's 16 values. No run takes them all at once: the
// single-cell path, reps and workers conflict with cells.
const specGolden = `{"seed":42,"path":"ethernet","workload":"cbr1m","duration":"1m30s","reps":3,"workers":2,"fault_profile":"flaky","self_heal":true,"analysis":{"mode":"stream-only"},"cells":4,"terminals":2,"shards":3,"shard_policy":"dynamic","flow_start":"15s","idle_terminals":100,"population":1000}`

// TestSpecGoldenJSON pins the wire format: field names, duration
// strings, and omitted defaults must not drift, because specs live in
// files and HTTP bodies outside this repo's control. The decode is
// lossless, and the single-cell and the multi-cell halves of the
// document each parse.
func TestSpecGoldenJSON(t *testing.T) {
	spec := &Spec{
		Seed: 42, Path: "ethernet", Workload: "cbr1m",
		Duration: Duration(90 * time.Second), Reps: 3, Workers: 2,
		FaultProfile: "flaky", SelfHeal: true,
		Analysis: &AnalysisSpec{Mode: "stream-only"},
		Cells:    4, Terminals: 2, Shards: 3, ShardPolicy: "dynamic",
		FlowStart: Duration(15 * time.Second), IdleTerminals: 100, Population: 1000,
	}
	got, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != specGolden {
		t.Errorf("wire format drifted:\n got %s\nwant %s", got, specGolden)
	}
	dec := json.NewDecoder(strings.NewReader(specGolden))
	dec.DisallowUnknownFields()
	back := &Spec{}
	if err := dec.Decode(back); err != nil {
		t.Fatalf("golden spec does not decode: %v", err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("marshal/unmarshal not lossless:\n got %+v\nwant %+v", back, spec)
	}
	single, cells := *spec, *spec
	single.Cells, single.Terminals, single.Shards, single.ShardPolicy = 0, 0, 0, ""
	single.FlowStart, single.IdleTerminals, single.Population = 0, 0, 0
	cells.Path, cells.Reps, cells.Workers = "", 0, 0
	for _, half := range []*Spec{&single, &cells} {
		b, err := json.Marshal(half)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSpec(b); err != nil {
			t.Errorf("golden half %s does not parse: %v", b, err)
		}
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
		{Spec{Duration: Duration(-time.Second)}, "spec.duration", ""},
		{Spec{Reps: -1}, "spec.reps", ""},
		{Spec{Workers: 4}, "spec.workers", ""},
		{Spec{Cells: 2, Path: "ethernet"}, "spec.path", ""},
		{Spec{Cells: 2, Reps: 3}, "spec.reps", ""},
		{Spec{Terminals: 2}, "spec.terminals", ""},
		{Spec{Shards: 2}, "spec.shards", ""},
		{Spec{ShardPolicy: "global"}, "spec.shard_policy", ""},
		{Spec{FlowStart: Duration(time.Second)}, "spec.flow_start", ""},
		{Spec{IdleTerminals: 5}, "spec.idle_terminals", ""},
		{Spec{Population: 5}, "spec.population", ""},
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

// TestSpecValidateRunLimits has one row per limit a multi-cell run
// would otherwise hit only when it builds or runs: the spec at the
// limit validates and builds, one step past it fails Validate with the
// row's field path.
func TestSpecValidateRunLimits(t *testing.T) {
	for _, c := range []struct {
		name    string
		ok, bad Spec
		path    string
	}{
		{"Gi plan", Spec{Cells: 56}, Spec{Cells: 57}, "spec.cells"},
		{"receiver ports", Spec{Cells: 1, Terminals: 56535, IdleTerminals: 1},
			Spec{Cells: 1, Terminals: 56536, IdleTerminals: 1}, "spec.terminals"},
		{"receiver ports, all cells", Spec{Cells: 5, Terminals: 11307, IdleTerminals: 1},
			Spec{Cells: 5, Terminals: 11308, IdleTerminals: 1}, "spec.terminals"},
		{"cell pool", Spec{Cells: 2, Terminals: 254}, Spec{Cells: 2, Terminals: 255}, "spec.terminals"},
		{"fleet cell pool", Spec{Cells: 1, Terminals: 1, Population: 65533},
			Spec{Cells: 1, Terminals: 1, Population: 65534}, "spec.terminals"},
	} {
		if _, err := c.ok.Scenario(); err != nil {
			t.Errorf("%s: %+v at the limit: %v", c.name, c.ok, err)
		}
		if err := c.bad.Validate(); err == nil || !strings.HasPrefix(err.Error(), c.path+":") {
			t.Errorf("%s: Validate(%+v) = %v, want a %s error", c.name, c.bad, err, c.path)
		}
	}
}

// FuzzParseSpec feeds arbitrary bytes to the spec parser. Every input
// must either be rejected or build a Scenario, and an accepted spec's
// encoding must parse back to the same Spec and build the same
// Scenario: the wire form is lossless. A document naming a retired
// field is refused.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(specGolden))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed":3,"cells":2,"terminals":2,"shard_policy":"global","flow_start":"10s","population":4}`))
	f.Add([]byte(`{"duration":"2s","analysis":{"mode":"stream","sketch_rel_err":1.5}}`))
	f.Add([]byte(`{"duration":"2s","self_heal":true,"heal_policy":{"multiplier":0.5}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		for _, retired := range []string{`"window"`, `"flow_gauge_limit"`, `"sketch_rel_err"`, `"exact"`, `"heal_policy"`, `"population_spec"`} {
			if bytes.Contains(data, []byte(retired)) {
				t.Fatalf("spec %s names retired field %s and was accepted", data, retired)
			}
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

// TestSpecShardPolicyRoundTrip: both policy names that saved
// documents carry still parse, and each builds the same Scenario as a
// document without the field — the engine has one window policy.
func TestSpecShardPolicyRoundTrip(t *testing.T) {
	base, err := (&Spec{Cells: 2}).Scenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"global", "dynamic"} {
		s, err := ParseSpec([]byte(`{"cells":2,"shard_policy":"` + p + `"}`))
		if err != nil {
			t.Fatalf("policy %s: %v", p, err)
		}
		sc, err := s.Scenario()
		if err != nil {
			t.Fatalf("policy %s: scenario: %v", p, err)
		}
		if !reflect.DeepEqual(sc, base) {
			t.Fatalf("policy %s: scenario differs from the default:\n %+v\n %+v", p, sc, base)
		}
	}
}
