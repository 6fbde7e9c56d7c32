package testbed

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

const parTestDur = 12 * time.Second // virtual seconds; runs in ~ms real time

// TestConcurrentReproductionsNoSharedState runs two figure reproductions
// concurrently on separate loops. Under -race this guards the worker-
// pool design against accidental shared state (package-level RNGs,
// registries, caches); without -race it still checks both complete.
func TestConcurrentReproductionsNoSharedState(t *testing.T) {
	var wg sync.WaitGroup
	cells := []struct {
		path Path
		wl   Workload
	}{
		{PathUMTS, WorkloadVoIP},
		{PathEthernet, WorkloadCBR1M},
	}
	results := make([]*ExperimentResult, len(cells))
	for i, c := range cells {
		wg.Add(1)
		go func(i int, path Path, wl Workload) {
			defer wg.Done()
			r, err := runPaper(int64(100+i), path, wl, parTestDur)
			if err != nil {
				t.Errorf("cell %d: %v", i, err)
				return
			}
			results[i] = r
		}(i, c.path, c.wl)
	}
	wg.Wait()
	for i, r := range results {
		if r == nil {
			continue // error already reported
		}
		if r.Decoded.Received == 0 {
			t.Errorf("cell %d received no packets", i)
		}
	}
}

// TestRepPoolDeterminism: the repetition worker pool must produce
// results identical to sequential execution of the same seeds — the
// merge is by rep index, and each rep owns a private loop and registry.
func TestRepPoolDeterminism(t *testing.T) {
	const base, reps = 7, 3
	rep := runSpec(t, Spec{Seed: base, Duration: Duration(parTestDur), Reps: reps, Workers: 2})
	for r := 0; r < reps; r++ {
		seq, err := runPaper(RepSeed(base, r), PathUMTS, WorkloadVoIP, parTestDur)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Results[r].Decoded, seq.Decoded) {
			t.Errorf("rep %d: parallel decode differs from sequential", r)
		}
		if !reflect.DeepEqual(rep.Results[r].Metrics, seq.Metrics) {
			t.Errorf("rep %d: parallel metrics snapshot differs from sequential", r)
		}
	}
}

// TestRunScenariosOrderAndBounds: results land at their input index
// even with more scenarios than workers, and workers <= 0 picks a sane
// default.
func TestRunScenariosOrderAndBounds(t *testing.T) {
	var scs []*Scenario
	for _, spec := range []Spec{
		{Seed: 1, Path: "ethernet", Workload: "voip", Duration: Duration(parTestDur)},
		{Seed: RepSeed(1, 1), Path: "ethernet", Workload: "voip", Duration: Duration(parTestDur)},
		{Seed: 1, Path: "ethernet", Workload: "cbr1m", Duration: Duration(parTestDur)},
	} {
		sc, err := spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, sc)
	}
	res, err := RunScenarios(scs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(scs) {
		t.Fatalf("got %d results for %d scenarios", len(res), len(scs))
	}
	if res[2].Results[0].Spec.Workload != WorkloadCBR1M {
		t.Fatal("results not merged by input index")
	}
	// Reps 0 and 1 of the same cell must differ (different seeds).
	if reflect.DeepEqual(res[0].Results[0].Decoded.Windows, res[1].Results[0].Decoded.Windows) {
		t.Fatal("distinct reps produced identical series; rep seeding broken")
	}
}

// TestExperimentMetricsSnapshot asserts the observability layer against
// ground truth the decoder already computes: the ITG counters must match
// the logs, and the radio/PPP layers must have been exercised on the
// UMTS path.
func TestExperimentMetricsSnapshot(t *testing.T) {
	r, err := runPaper(3, PathUMTS, WorkloadVoIP, parTestDur)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Metrics
	if got := m.Counter("itg/packets_sent"); got != int64(r.Decoded.Sent) {
		t.Errorf("itg/packets_sent = %d, decoder saw %d", got, r.Decoded.Sent)
	}
	if got := m.Counter("itg/packets_received"); got != int64(r.Decoded.Received) {
		t.Errorf("itg/packets_received = %d, decoder saw %d", got, r.Decoded.Received)
	}
	if m.Counter("ppp/tx_frames") == 0 || m.Counter("ppp/rx_frames") == 0 {
		t.Error("PPP frame counters not populated on the UMTS path")
	}
	if m.Counter("umts/ul/tx_chunks") == 0 {
		t.Error("radio uplink counters not populated")
	}
	if m.Counter("sim/events_fired") == 0 {
		t.Error("sim kernel counters not populated")
	}
	if m.CounterSum("netsim/link/", "/tx_packets") == 0 {
		t.Error("per-link tx counters not populated")
	}
	if g := m.Gauges["sim/heap_depth"]; g.Max <= 0 {
		t.Error("heap depth peak not tracked")
	}
}

// badScenarios builds a RunScenarios input of Ethernet VoIP cells with
// the workload at the given indices replaced by an invalid one, which
// no Spec builds and the run rejects.
func badScenarios(t *testing.T, n int, bad map[int]Workload) []*Scenario {
	scs := make([]*Scenario, n)
	for i := range scs {
		spec := &Spec{Seed: RepSeed(1, i), Path: "ethernet", Duration: Duration(parTestDur)}
		sc, err := spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		if w, ok := bad[i]; ok {
			sc.workload = w
		}
		scs[i] = sc
	}
	return scs
}

// TestRunScenariosFailFast injects an invalid workload at index 0 and
// checks that the pool stops dispatching: with one worker, run 0 errors
// before anything past index 1 can be handed out, so the tail of the
// result slice must stay nil. (Index 1 may or may not run — the
// dispatcher can already be blocked sending it when the flag is set —
// but the channel handshake guarantees index 2 onward observes the
// store.)
func TestRunScenariosFailFast(t *testing.T) {
	results, err := RunScenarios(badScenarios(t, 8, map[int]Workload{0: Workload(99)}), 1)
	if err == nil {
		t.Fatal("expected the invalid workload at index 0 to be reported")
	}
	if !strings.Contains(err.Error(), "workload(99)") {
		t.Errorf("error %q does not name the invalid workload", err)
	}
	if results[0] != nil {
		t.Error("errored run has a non-nil result")
	}
	for i := 2; i < len(results); i++ {
		if results[i] != nil {
			t.Errorf("run %d executed after the failure; fail-fast did not stop dispatch", i)
		}
	}
}

// TestRunScenariosFirstErrorDeterministic puts two distinct bad runs in
// the input and checks the reported error is always the smallest-index
// one, regardless of which worker hits its failure first.
func TestRunScenariosFirstErrorDeterministic(t *testing.T) {
	scs := badScenarios(t, 4, map[int]Workload{1: Workload(98), 3: Workload(99)})
	for trial := 0; trial < 4; trial++ {
		_, err := RunScenarios(scs, 2)
		if err == nil {
			t.Fatal("expected an error")
		}
		if !strings.Contains(err.Error(), "workload(98)") {
			t.Errorf("trial %d: reported %q, want the index-1 error (workload(98))", trial, err)
		}
	}
}
