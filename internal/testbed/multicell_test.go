package testbed

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/sim/shard"
)

// TestMultiCellFlowsDeliver sanity-checks the scenario itself: every
// terminal dials its cell, registers the server, and the VoIP flows
// arrive with plausible QoS.
func TestMultiCellFlowsDeliver(t *testing.T) {
	res, err := runCells(Spec{Seed: 11, Cells: 2, Terminals: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 4 {
		t.Fatalf("flows %d, want 4", len(res.Flows))
	}
	for _, f := range res.Flows {
		if f.Decoded.Received == 0 {
			t.Errorf("cell %d terminal %d: no packets received", f.Cell, f.Terminal)
		}
		if f.Decoded.AvgBitrateKbps < 50 {
			t.Errorf("cell %d terminal %d: bitrate %.1f kbps, want ~72", f.Cell, f.Terminal, f.Decoded.AvgBitrateKbps)
		}
		if f.SetupTime <= 0 || f.SetupTime > defaultFlowStart {
			t.Errorf("cell %d terminal %d: setup time %v", f.Cell, f.Terminal, f.SetupTime)
		}
		if len(f.BearerEvents) == 0 {
			t.Errorf("cell %d terminal %d: no bearer events", f.Cell, f.Terminal)
		}
		if f.Decoded.AvgRTT <= 0 {
			t.Errorf("cell %d terminal %d: no RTT samples", f.Cell, f.Terminal)
		}
	}
	if res.Windows < 2 {
		t.Errorf("engine ran %d windows; expected lookahead-sized windows", res.Windows)
	}
	if res.Lookahead != 7500*time.Microsecond {
		t.Errorf("lookahead %v, want the 7.5 ms backhaul delay", res.Lookahead)
	}
}

// diffMultiCell runs the same scenario with shard count 1 (the
// reference) and then shard count n under both window policies (global
// lockstep and dynamic per-shard horizons), and
// asserts byte-identical QoS reports, bearer logs, and placement-
// independent kernel counters across all runs — the determinism
// contract covers placement AND window policy. set changes each built
// scenario as in runCells.
func diffMultiCell(t *testing.T, spec Spec, n int, set ...func(*Scenario)) {
	t.Helper()
	spec.Shards = 1
	spec.ShardPolicy = ""
	single, err := runCells(spec, set...)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range shard.Policies() {
		spec.Shards = n
		spec.ShardPolicy = policy.String()
		sharded, err := runCells(spec, set...)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%d shards/%v", n, policy)
		if len(single.Flows) != len(sharded.Flows) {
			t.Fatalf("flow counts differ: %d vs %d (%s)", len(single.Flows), len(sharded.Flows), label)
		}
		for i := range single.Flows {
			a, b := single.Flows[i], sharded.Flows[i]
			if !reflect.DeepEqual(a.Decoded, b.Decoded) {
				t.Errorf("cell %d terminal %d: decoded QoS differs between 1 shard and %s", a.Cell, a.Terminal, label)
			}
			if !reflect.DeepEqual(a.Streamed, b.Streamed) {
				t.Errorf("cell %d terminal %d: streamed QoS differs between 1 shard and %s", a.Cell, a.Terminal, label)
			}
			if !reflect.DeepEqual(a.BearerEvents, b.BearerEvents) {
				t.Errorf("cell %d terminal %d: bearer logs differ:\n1 shard:  %v\n%s: %v",
					a.Cell, a.Terminal, a.BearerEvents, label, b.BearerEvents)
			}
			if a.SetupTime != b.SetupTime || a.SendErrors != b.SendErrors {
				t.Errorf("cell %d terminal %d: setup/senderrors differ (%s)", a.Cell, a.Terminal, label)
			}
		}
		if !reflect.DeepEqual(single.Counters, sharded.Counters) {
			for name, v := range single.Counters {
				if sharded.Counters[name] != v {
					t.Errorf("counter %s: %d (1 shard) vs %d (%s)", name, v, sharded.Counters[name], label)
				}
			}
			for name, v := range sharded.Counters {
				if _, ok := single.Counters[name]; !ok {
					t.Errorf("counter %s only present in the %s run (%d)", name, label, v)
				}
			}
		}
	}
}

// TestMultiCellShardedIdentical is the acceptance differential: the
// K-cell scenario on one loop vs one shard per cell plus the core.
func TestMultiCellShardedIdentical(t *testing.T) {
	diffMultiCell(t, Spec{Seed: 3, Cells: 3, Terminals: 1}, 4)
}

// TestMultiCellPartialSharding maps several cells onto each shard —
// partitions must compose on shared loops exactly as they do alone.
func TestMultiCellPartialSharding(t *testing.T) {
	diffMultiCell(t, Spec{Seed: 5, Cells: 3, Terminals: 1}, 2)
}

// TestMultiCellShardedIdenticalHeap repeats the differential on a
// second topology: two cells, one shard each plus the core.
func TestMultiCellShardedIdenticalHeap(t *testing.T) {
	diffMultiCell(t, Spec{Seed: 3, Cells: 2, Terminals: 1}, 3)
}

// TestMultiCellRandomizedTopologies fuzzes the scenario shape — cell
// count, terminals per cell, workload mix, backhaul delay (and with it
// the lookahead window), seed — and asserts the differential for every
// draw.
func TestMultiCellRandomizedTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential is the slow acceptance test")
	}
	rng := rand.New(rand.NewSource(99))
	workloads := []Workload{WorkloadVoIP, WorkloadVoIPG729, WorkloadTelnet}
	for round := 0; round < 3; round++ {
		spec := Spec{
			Seed:      rng.Int63n(1 << 30),
			Cells:     2 + rng.Intn(3),
			Terminals: 1 + rng.Intn(2),
			Workload:  workloads[rng.Intn(len(workloads))].Name(),
			Duration:  Duration(time.Duration(10+rng.Intn(10)) * time.Second),
		}
		backhaul := time.Duration(3+rng.Intn(10)) * time.Millisecond
		shards := 2 + rng.Intn(spec.Cells)
		t.Logf("round %d: %d cells x %d terminals, %s, backhaul %v, %d shards, seed %d",
			round, spec.Cells, spec.Terminals, spec.Workload, backhaul, shards, spec.Seed)
		diffMultiCell(t, spec, shards, func(sc *Scenario) { sc.backhaulDelay = backhaul })
	}
}
