package umtslab_test

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchSchedArtifact validates the committed `make bench-sched`
// artifact: every field the report promises is present, both
// configurations decoded identically, and the recorded allocation
// improvement of the shipping kernel (buffer pooling on) over the
// kernel with pooling off meets the 1.5x acceptance bar. The artifact
// is static, so the test is deterministic; regenerate it with `make
// bench-sched` after touching the scheduler or the packet path.
func TestBenchSchedArtifact(t *testing.T) {
	raw, err := os.ReadFile("BENCH_sched.json")
	if err != nil {
		t.Fatalf("BENCH_sched.json missing (run `make bench-sched`): %v", err)
	}
	var rep struct {
		Workload         string  `json:"workload"`
		Path             string  `json:"path"`
		FlowS            float64 `json:"flow_duration_s"`
		Reps             int     `json:"reps"`
		NoPool           *config `json:"nopool"`
		Pool             *config `json:"pool"`
		AllocImprovement float64 `json:"alloc_improvement"`
		WallImprovement  float64 `json:"wall_improvement"`
		Identical        *bool   `json:"results_identical"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_sched.json does not parse: %v", err)
	}
	if rep.Workload == "" || rep.Path == "" {
		t.Errorf("workload/path missing: %q %q", rep.Workload, rep.Path)
	}
	if rep.FlowS <= 0 || rep.Reps < 1 {
		t.Errorf("bad run shape: flow_duration_s=%v reps=%d", rep.FlowS, rep.Reps)
	}
	for name, c := range map[string]*config{
		"nopool": rep.NoPool,
		"pool":   rep.Pool,
	} {
		if c == nil {
			t.Errorf("configuration %s missing", name)
			continue
		}
		if c.WallSPerRun <= 0 || c.AllocsPerRun == 0 || c.BytesPerRun == 0 {
			t.Errorf("%s has empty measurements: %+v", name, *c)
		}
	}
	if rep.Identical == nil || !*rep.Identical {
		t.Error("results_identical must be recorded true: the kernel configurations must not change simulation output")
	}
	if rep.AllocImprovement < 1.5 {
		t.Errorf("alloc_improvement %.2f below the 1.5x acceptance bar", rep.AllocImprovement)
	}
	if rep.WallImprovement <= 0 {
		t.Errorf("wall_improvement %.2f not recorded", rep.WallImprovement)
	}
}

type config struct {
	WallSPerRun  float64 `json:"wall_s_per_run"`
	AllocsPerRun uint64  `json:"allocs_per_run"`
	BytesPerRun  uint64  `json:"bytes_per_run"`
}
