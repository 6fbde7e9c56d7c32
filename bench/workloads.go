package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/onelab/umtslab/internal/control"
	"github.com/onelab/umtslab/internal/testbed"
)

// workload is one set of inputs the benchmark runs. A batch workload runs
// its legs back to back, once per iteration; the serve workload submits
// its legs as jobs to the control plane in an open loop (serve.go).
// README.md gives the reason for each choice.
type workload struct {
	name string
	// legs are spec documents without a seed: the benchmark derives every
	// seed from -seed, so the program sees only generated specs. small
	// replaces them in this package's tests.
	legs, small []string
	// payload is the workload's ITG payload size in bytes, the input shape
	// of the layer kernels.
	payload int
	serve   bool
}

var workloads = []*workload{
	{
		name:    "paper_voip",
		legs:    []string{`{"workload":"voip","reps":20}`, `{"workload":"voip","reps":20,"path":"ethernet"}`},
		small:   []string{`{"workload":"voip","duration":"5s"}`, `{"workload":"voip","duration":"5s","path":"ethernet"}`},
		payload: 90,
	},
	{
		name:    "paper_cbr1m",
		legs:    []string{`{"workload":"cbr1m","reps":20}`, `{"workload":"cbr1m","reps":20,"path":"ethernet"}`},
		small:   []string{`{"workload":"cbr1m","duration":"5s"}`, `{"workload":"cbr1m","duration":"5s","path":"ethernet"}`},
		payload: 1024,
	},
	{
		// Shard count and policy stay at the system default on purpose,
		// so that a change of default shows.
		name:    "multicell_voip",
		legs:    []string{`{"cells":4,"terminals":16,"duration":"120s"}`},
		small:   []string{`{"cells":2,"terminals":2,"duration":"5s"}`},
		payload: 90,
	},
	{
		name:    "fleet_idle",
		legs:    []string{`{"cells":4,"terminals":2,"idle_terminals":24000,"population":1000,"duration":"30s"}`},
		small:   []string{`{"cells":2,"terminals":1,"idle_terminals":100,"population":10,"duration":"5s"}`},
		payload: 90,
	},
	{
		// The job kinds, drawn 3:1:1 (see serveMix).
		name: "serve_mixed",
		legs: []string{
			`{"workload":"voip","duration":"30s","analysis":{"mode":"stream"}}`,
			`{"workload":"cbr1m","duration":"30s"}`,
			`{"path":"ethernet","duration":"30s"}`,
		},
		small: []string{
			`{"workload":"voip","duration":"5s","analysis":{"mode":"stream"}}`,
			`{"workload":"cbr1m","duration":"5s"}`,
			`{"path":"ethernet","duration":"5s"}`,
		},
		payload: 90,
		serve:   true,
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func (w *workload) templates(small bool) []string {
	if small {
		return w.small
	}
	return w.legs
}

// specSeed derives the i-th spec seed of a run from the benchmark seed
// (splitmix64), positive and non-zero as testbed.Spec requires.
func specSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) | 1
}

// specDoc renders a template as a spec document with the given seed and
// fields overridden (a nil value deletes the field).
func specDoc(tmpl string, seed int64, set map[string]any) []byte {
	m := map[string]any{}
	if err := json.Unmarshal([]byte(tmpl), &m); err != nil {
		panic(fmt.Sprintf("spec template %s: %v", tmpl, err))
	}
	m["seed"] = seed
	for k, v := range set {
		if v == nil {
			delete(m, k)
		} else {
			m[k] = v
		}
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("spec template %s: %v", tmpl, err))
	}
	return b
}

// probeOverride turns a spec into a set-up probe: the same experiment
// with a 1 ms flow and one repetition, so that what remains is building,
// dial-up, drain, decode and encode.
var probeOverride = map[string]any{"duration": "1ms", "reps": nil}

// parseDocs validates every document up front, so that a bad spec stops
// the benchmark before anything is timed.
func parseDocs(docs [][]byte) ([]*testbed.Spec, error) {
	specs := make([]*testbed.Spec, len(docs))
	for i, d := range docs {
		s, err := testbed.ParseSpec(d)
		if err != nil {
			return nil, fmt.Errorf("spec %s: %w", d, err)
		}
		specs[i] = s
	}
	return specs, nil
}

// opsOf is the number of operations a spec runs: its repetitions, or
// its flows on a multi-cell run.
func opsOf(s *testbed.Spec) int {
	switch {
	case s.Cells > 0:
		return s.Cells * max(s.Terminals, 1)
	case s.Reps > 1:
		return s.Reps
	}
	return 1
}

func decodeResult(enc []byte) (*control.Result, error) {
	var r control.Result
	if err := json.Unmarshal(enc, &r); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	return &r, nil
}

// checkResult re-expresses the paper shape checks that apply to one
// spec's result, returning one message per failed operation. shape adds
// the checks that need the paper's full 120 s flows; every check holds
// for any seed.
func checkResult(s *testbed.Spec, r *control.Result, shape bool) []string {
	if s.Cells > 0 {
		return checkMultiCell(s, r.MultiCell)
	}
	if len(r.Results) != opsOf(s) {
		return []string{fmt.Sprintf("%d repetitions reported, want %d", len(r.Results), opsOf(s))}
	}
	var bad []string
	for i, rep := range r.Results {
		if err := checkRep(s, rep, shape); err != nil {
			bad = append(bad, fmt.Sprintf("%s/%s rep %d: %v", workloadOf(s), pathOf(s), i, err))
		}
	}
	return bad
}

func workloadOf(s *testbed.Spec) string {
	if s.Workload == "" {
		return "voip"
	}
	return s.Workload
}

func pathOf(s *testbed.Spec) string {
	if s.Path == "" {
		return "umts"
	}
	return s.Path
}

func checkRep(s *testbed.Spec, rep control.RepResult, shape bool) error {
	d := rep.Decoded
	if d == nil || d.Sent == 0 {
		return fmt.Errorf("no packets sent")
	}
	umts := pathOf(s) == "umts"
	switch workloadOf(s) {
	case "voip":
		if d.Lost != 0 || d.AvgBitrateKbps <= 64 {
			return fmt.Errorf("%d lost at %.1f kbps, want none lost above 64 kbps", d.Lost, d.AvgBitrateKbps)
		}
		if shape && umts && (d.MaxRTT <= 400*time.Millisecond || d.MaxRTT >= time.Second) {
			return fmt.Errorf("max RTT %v, want within (400ms, 1s)", d.MaxRTT)
		}
	case "cbr1m":
		if !umts {
			if d.Lost != 0 || (shape && d.AvgBitrateKbps <= 950) {
				return fmt.Errorf("%d lost at %.1f kbps, want none lost above 950 kbps", d.Lost, d.AvgBitrateKbps)
			}
			return nil
		}
		if d.Lost <= d.Sent/2 {
			return fmt.Errorf("%d of %d lost, want more than half", d.Lost, d.Sent)
		}
		if !shape {
			return nil
		}
		var sum float64
		var n int
		for _, w := range d.Windows {
			if w.T >= 55*time.Second {
				sum += w.BitrateKbps
				n++
			}
		}
		if late := sum / float64(max(n, 1)); late <= 350 || late >= 430 {
			return fmt.Errorf("late-phase rate %.1f kbps, want within (350, 430)", late)
		}
		if !strings.Contains(strings.Join(rep.BearerEvents, "\n"), "upgraded") {
			return fmt.Errorf("no bearer upgrade among %q", rep.BearerEvents)
		}
	}
	return nil
}

// checkMultiCell requires every flow to be set up before flows start and,
// for a fleet, the requested idle terminals and populations.
func checkMultiCell(s *testbed.Spec, mc *control.MultiCellResult) []string {
	if mc == nil || len(mc.Flows) != opsOf(s) {
		return []string{fmt.Sprintf("multi-cell result missing or short, want %d flows", opsOf(s))}
	}
	flowStart := time.Duration(s.FlowStart)
	if flowStart == 0 {
		flowStart = 15 * time.Second
	}
	var bad []string
	for _, f := range mc.Flows {
		if f.Decoded == nil || f.Decoded.Sent == 0 || f.SetupTime <= 0 || f.SetupTime >= flowStart {
			bad = append(bad, fmt.Sprintf("cell %d terminal %d: set up at %v, want before flow start %v with packets sent",
				f.Cell, f.Terminal, f.SetupTime, flowStart))
		}
	}
	if want := s.Cells * s.IdleTerminals; mc.IdleTerminals != want {
		bad = append(bad, fmt.Sprintf("%d idle terminals, want %d", mc.IdleTerminals, want))
	}
	if s.Population > 0 {
		if len(mc.Populations) != s.Cells {
			bad = append(bad, fmt.Sprintf("%d populations, want one per cell (%d)", len(mc.Populations), s.Cells))
		}
		for i, p := range mc.Populations {
			if p.Subscribers != s.Population || p.CarriedBytes <= 0 {
				bad = append(bad, fmt.Sprintf("population %d: %d subscribers carrying %.0f B, want %d carrying traffic",
					i, p.Subscribers, p.CarriedBytes, s.Population))
			}
		}
	}
	return bad
}
