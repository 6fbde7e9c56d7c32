package testbed

import "time"

// runPaper runs one (path, workload) cell with paper parameters via
// the Scenario front door — the shape the removed RunPaperExperiment
// wrapper had, kept as a test helper because half the suite wants
// exactly this run.
func runPaper(seed int64, path Path, wl Workload, dur time.Duration) (*ExperimentResult, error) {
	rep, err := NewScenario(
		WithSeed(seed), WithPath(path), WithWorkload(wl), WithDuration(dur),
	).Run()
	if err != nil {
		return nil, err
	}
	return rep.Results[0], nil
}

// runCells runs a multi-cell scenario through the Scenario front door
// and returns its multi-cell result.
func runCells(sc Scenario) (*MultiCellResult, error) {
	rep, err := sc.Run()
	if err != nil {
		return nil, err
	}
	return rep.MultiCell, nil
}
