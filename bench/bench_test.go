package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestWorkloadsSmall runs every workload end to end on tiny inputs (one
// repetition, 5 s flows, one iteration, five serve jobs) and requires
// every output check to pass and every end-to-end metric to be measured.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := run(w, opts{seed: 3, small: true})
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %q", out.attempted, out.failed, out.problems)
			}
			for _, d := range endToEnd {
				if v := out.metrics[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
		})
	}
}

// TestTracedRun covers the per-layer path on a batch workload with
// multi-cell legs and on the serve workload: every per-layer metric is
// reported, the profile's layer shares add up, and the trace is written.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"multicell_voip", "serve_mixed"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := run(w, opts{seed: 3, small: true, trace: true, outDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || len(out.gates) != 0 {
			t.Fatalf("%s: failed %d, gates %q, problems %q", name, out.failed, out.gates, out.problems)
		}
		var sum float64
		for _, d := range perLayer {
			v, ok := out.metrics[d.name]
			if !ok {
				t.Errorf("%s: per-layer metric %s missing", name, d.name)
			}
			if strings.HasSuffix(d.name, ".cpu_pct") && d.name != "unattributed.cpu_pct" {
				sum += v
			}
		}
		if sum != 0 && (sum < 99.9 || sum > 100.1) {
			t.Errorf("%s: layer CPU shares add up to %.3f%%", name, sum)
		}
		var trace struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		b, err := os.ReadFile(filepath.Join(dir, name+"-seed3.trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Fatalf("%s: trace: %v, %d events", name, err, len(trace.TraceEvents))
		}
		if _, err := os.Stat(filepath.Join(dir, name+"-seed3.layers.json")); err != nil {
			t.Error(err)
		}
	}
}

// TestBenchmarkJSON checks the benchmark description at the repository
// root against its schema and against the metrics and workloads this
// program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %q, want %q", got, want)
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads, want 2-8 and the program's %d", n, len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is %s, the program runs %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricJSON, defs []metricDef, limit int, bounded bool) {
		if len(got) < 1 || len(got) > limit || len(got) != len(defs) {
			t.Errorf("%s: %d metrics, want 1-%d and the program's %d", kind, len(got), limit, len(defs))
		}
		for i, m := range got {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: unit %q, better %q", kind, m.Name, m.Unit, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
			if i >= len(defs) {
				continue
			}
			d := defs[i]
			if d.name != m.Name || d.unit != m.Unit || d.better != m.Better || (bounded && d.bound != *m.Bound) {
				t.Errorf("%s %d: file has %+v, the program reports %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, 16, true)
	check("per_layer", b.PerLayer, perLayer, 128, false)
	var setup bool
	for _, m := range b.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1-60", b.RunSeconds)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command %q", b.Command)
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("paths %q", b.Paths)
	}
	for _, p := range b.Paths {
		if fi, err := os.Stat(filepath.Join("..", p)); err != nil || !fi.IsDir() || filepath.IsAbs(p) || strings.Contains(p, "..") {
			t.Errorf("path %q is not a directory inside the repository: %v", p, err)
		}
	}
	for _, w := range workloads {
		for _, legs := range [][]string{w.legs, w.small} {
			docs := make([][]byte, len(legs))
			for i, l := range legs {
				docs[i] = specDoc(l, specSeed(1, i), nil)
			}
			if _, err := parseDocs(docs); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 || median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Errorf("quartiles %v %v", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{[]float64{100, 100, 101, 99, 100, 100, 99, 101, 100, 100}, "same"},
		{[]float64{115, 116, 114, 115, 115, 116, 114, 115, 115, 115}, "worse"},
		{[]float64{90, 91, 89, 90, 90, 91, 89, 90, 90, 90}, "improved"},
		{[]float64{60, 140, 70, 130, 100, 65, 135, 100, 98, 102}, "unresolved"},
	} {
		if got := verdict(parent, c.change, 0.1, true); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.change, got, c.want)
		}
	}
}
