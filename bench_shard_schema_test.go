package umtslab_test

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchShardArtifact validates the committed `make bench-shard`
// artifact: every field the report promises is present, the sharded run
// produced byte-identical results, and — when the artifact was measured
// on a machine with enough cores for parallelism to pay — the recorded
// speedup of 4+ shards over one meets the 2x acceptance bar.
// Conservative synchronization cannot beat 2x on a single-core runner
// (the shards time-slice one CPU and pay the barrier overhead), so on
// such machines the test only requires that sharding is not a
// pathological slowdown. The artifact is static, so the test is
// deterministic; regenerate it with `make bench-shard` after touching
// the shard engine or the scenario builder.
func TestBenchShardArtifact(t *testing.T) {
	raw, err := os.ReadFile("BENCH_shard.json")
	if err != nil {
		t.Fatalf("BENCH_shard.json missing (run `make bench-shard`): %v", err)
	}
	var rep struct {
		NumCPU      *int    `json:"num_cpu"`
		GOMAXPROCS  *int    `json:"gomaxprocs"`
		Cells       int     `json:"cells"`
		Terminals   int     `json:"terminals"`
		Shards      int     `json:"shards"`
		FlowS       float64 `json:"flow_duration_s"`
		Wall1S      float64 `json:"wall_1shard_s"`
		WallNS      float64 `json:"wall_nshard_s"`
		Speedup     float64 `json:"speedup"`
		Identical   *bool   `json:"results_identical"`
		Windows     int64   `json:"windows"`
		LookaheadMs float64 `json:"lookahead_ms"`
		Messages    *int64  `json:"cross_shard_messages"`

		WallDynamicS     float64 `json:"wall_nshard_dynamic_s"`
		SpeedupDynamic   float64 `json:"speedup_dynamic"`
		DynamicIdentical *bool   `json:"dynamic_identical"`
		WindowsDynamic   int64   `json:"windows_dynamic"`

		FleetIdleTerminals   int     `json:"fleet_idle_terminals"`
		FleetPopulation      int     `json:"fleet_population"`
		FleetWindowsGlobal   int64   `json:"fleet_windows_global"`
		FleetWindowsDynamic  int64   `json:"fleet_windows_dynamic"`
		FleetWindowReduction float64 `json:"fleet_window_reduction"`
		FleetIdentical       *bool   `json:"fleet_identical"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_shard.json does not parse: %v", err)
	}
	if rep.NumCPU == nil || *rep.NumCPU < 1 || rep.GOMAXPROCS == nil || *rep.GOMAXPROCS < 1 {
		t.Error("num_cpu/gomaxprocs must record the measuring machine")
	}
	if rep.Cells < 2 || rep.Terminals < 1 {
		t.Errorf("scenario too small to exercise sharding: %d cells x %d terminals", rep.Cells, rep.Terminals)
	}
	if rep.Shards < 4 {
		t.Errorf("shards = %d; the acceptance scenario runs at least 4", rep.Shards)
	}
	if rep.FlowS <= 0 || rep.Wall1S <= 0 || rep.WallNS <= 0 {
		t.Errorf("empty measurements: flow=%v wall1=%v wallN=%v", rep.FlowS, rep.Wall1S, rep.WallNS)
	}
	if rep.Identical == nil || !*rep.Identical {
		t.Error("results_identical must be recorded true: sharding must not change simulation output")
	}
	if rep.Windows < 2 {
		t.Errorf("windows = %d; the engine must have synchronized repeatedly", rep.Windows)
	}
	if rep.LookaheadMs <= 0 {
		t.Errorf("lookahead_ms = %v; cross-shard links must provide lookahead", rep.LookaheadMs)
	}
	if rep.Messages == nil || *rep.Messages == 0 {
		t.Error("cross_shard_messages empty: the scenario must exchange traffic across shards")
	}
	if rep.Speedup <= 0 {
		t.Errorf("speedup %v not recorded", rep.Speedup)
	}
	// The dynamic-policy leg: identical results, and — since the dynamic
	// horizon is never shorter than the global lookahead window — never
	// more windows than global on the same scenario.
	if rep.WallDynamicS <= 0 || rep.SpeedupDynamic <= 0 {
		t.Errorf("dynamic leg not measured: wall=%v speedup=%v (regenerate with `make bench-shard`)",
			rep.WallDynamicS, rep.SpeedupDynamic)
	}
	if rep.DynamicIdentical == nil || !*rep.DynamicIdentical {
		t.Error("dynamic_identical must be recorded true: the window policy must not change simulation output")
	}
	if rep.WindowsDynamic < 1 || rep.WindowsDynamic > rep.Windows {
		t.Errorf("windows_dynamic = %d vs windows = %d; dynamic horizons may only be longer than global ones",
			rep.WindowsDynamic, rep.Windows)
	}
	// The idle-fleet leg is the policy's acceptance criterion: on the
	// BENCH_fleet cohort (>= 24k idle + population per cell, no active
	// flows) dynamic must release at least 5x fewer windows than
	// global — a deterministic, CPU-count-independent claim, so it is
	// gated on every machine.
	if rep.FleetIdleTerminals < 24000 || rep.FleetPopulation < 1000 {
		t.Errorf("idle-fleet leg too small: %d idle + %d population per cell (want >= 24000 + 1000)",
			rep.FleetIdleTerminals, rep.FleetPopulation)
	}
	if rep.FleetIdentical == nil || !*rep.FleetIdentical {
		t.Error("fleet_identical must be recorded true: the window policy must not change the idle-fleet output")
	}
	if rep.FleetWindowsGlobal < 1 || rep.FleetWindowsDynamic < 1 {
		t.Errorf("idle-fleet window counts not recorded: global=%d dynamic=%d",
			rep.FleetWindowsGlobal, rep.FleetWindowsDynamic)
	}
	if rep.FleetWindowReduction < 5 {
		t.Errorf("idle-fleet window reduction %.2fx (global %d vs dynamic %d) below the 5x acceptance bar",
			rep.FleetWindowReduction, rep.FleetWindowsGlobal, rep.FleetWindowsDynamic)
	}
	// The 2x bar only binds where it is physically achievable: >=4-way
	// sharding measured with >=4 schedulable cores. The same condition
	// gates the dynamic-vs-global comparison — per-shard horizons only
	// remove synchronization, so with real cores they must not lose to
	// the lockstep window.
	if *rep.NumCPU >= 4 && *rep.GOMAXPROCS >= 4 && rep.Shards >= 4 {
		if rep.Speedup < 2 {
			t.Errorf("speedup %.2f below the 2x acceptance bar on a %d-core machine", rep.Speedup, *rep.NumCPU)
		}
		if rep.WallDynamicS > rep.WallNS {
			t.Errorf("dynamic wall %.2fs slower than global %.2fs on a %d-core machine",
				rep.WallDynamicS, rep.WallNS, *rep.NumCPU)
		}
	} else {
		if rep.Speedup < 0.5 {
			t.Errorf("speedup %.2f: sharding pathologically slow even for a %d-core machine", rep.Speedup, *rep.NumCPU)
		}
		// On a starved machine the dynamic policy can only be honest
		// about ~1x; hold it to "not pathologically worse than global".
		if rep.WallNS > 0 && rep.WallDynamicS > 1.5*rep.WallNS {
			t.Errorf("dynamic wall %.2fs more than 1.5x global %.2fs even on a %d-core machine",
				rep.WallDynamicS, rep.WallNS, *rep.NumCPU)
		}
	}
}
