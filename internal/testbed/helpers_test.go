package testbed

import (
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/fault"
)

// runSpec builds spec's scenario and runs it; a spec that does not
// build or run fails the test.
func runSpec(t testing.TB, spec Spec) *Report {
	t.Helper()
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// runPaper runs one (path, workload) cell with paper parameters from a
// Spec — the shape the removed RunPaperExperiment wrapper had, kept as
// a test helper because half the suite wants exactly this run.
func runPaper(seed int64, path Path, wl Workload, dur time.Duration) (*ExperimentResult, error) {
	spec := &Spec{Seed: seed, Path: path.Name(), Workload: wl.Name(), Duration: Duration(dur)}
	sc, err := spec.Scenario()
	if err != nil {
		return nil, err
	}
	rep, err := sc.Run()
	if err != nil {
		return nil, err
	}
	return rep.Results[0], nil
}

// runCells runs a multi-cell spec and returns its multi-cell result.
// Each of set changes the built scenario before the run, for what no
// Spec expresses: the test-only drain and backhaul delay, or a raw
// fault schedule.
func runCells(spec Spec, set ...func(*Scenario)) (*MultiCellResult, error) {
	sc, err := spec.Scenario()
	if err != nil {
		return nil, err
	}
	for _, f := range set {
		f(sc)
	}
	rep, err := sc.Run()
	if err != nil {
		return nil, err
	}
	return rep.MultiCell, nil
}

// withDrain sets a multi-cell run's tail after its flows.
func withDrain(d time.Duration) func(*Scenario) {
	return func(sc *Scenario) { sc.drain = d }
}

// withFaults arms a raw fault schedule, at absolute virtual times.
func withFaults(sched fault.Schedule) func(*Scenario) {
	return func(sc *Scenario) { sc.faults = sched }
}
