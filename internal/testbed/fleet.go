package testbed

import (
	"fmt"
	"runtime"

	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/umts"
)

// FleetFootprint measures the resident heap cost, in bytes per
// terminal, of powering on n subscriber terminals in one cell without
// running the simulation. With eager=true every terminal's full
// PlanetLab stack is materialized immediately (the pre-fleet baseline
// behavior); with eager=false the terminals are a compact
// umts.Terminal fleet whose stacks would materialize only on first
// dial. The ratio of the two is the fleet compaction factor that
// TestFleetFootprintCompaction gates.
//
// The measurement brackets the allocation with GC cycles and reads
// HeapAlloc, so it reports live bytes, not allocation churn. Run it
// with n large enough (thousands) that per-object noise and the
// allocator's size-class rounding wash out.
func FleetFootprint(n int, eager bool) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("testbed: fleet footprint needs n > 0, got %d", n)
	}
	// In cell 0 a terminal's identity needs only its index, not sc.terminals.
	sc, err := (&Spec{Cells: 1}).Scenario()
	if err != nil {
		return 0, err
	}
	loop := sim.NewLoop(1)
	nw := netsim.NewNetwork(loop)
	server := nw.AddNode("fleet-server")
	cfg := umts.FleetCell(0)
	op := umts.NewOperator(loop, nw, cfg)
	env := &cellEnv{loop: loop, nw: nw, server: server, op: op, cfg: cfg, sc: sc}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	var terms []*mcTerminal
	var fleet []umts.Terminal
	if eager {
		for m := 0; m < n; m++ {
			ts, err := buildTerminal(env, 0, m)
			if err != nil {
				return 0, err
			}
			if err := ts.materialize(); err != nil {
				return 0, err
			}
			terms = append(terms, ts)
		}
	} else {
		fleet = op.NewTerminalFleet(0, 1, n)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(terms)
	runtime.KeepAlive(fleet)
	runtime.KeepAlive(env)

	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	if per < 0 {
		per = 0
	}
	return per, nil
}
