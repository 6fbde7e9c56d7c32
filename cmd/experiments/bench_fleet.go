package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/onelab/umtslab/internal/sim/shard"
	"github.com/onelab/umtslab/internal/testbed"
	"github.com/onelab/umtslab/internal/umts"
)

// fleetBenchReport is the `make bench-fleet` artifact: the 100k+
// terminal scale-out, its per-terminal memory economics, and the
// population model's differential validation. Schema enforced by
// bench_fleet_schema_test.go at the repo root.
type fleetBenchReport struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`

	Cells             int `json:"cells"`
	ActivePerCell     int `json:"active_per_cell"`
	IdlePerCell       int `json:"idle_per_cell"`
	PopulationPerCell int `json:"population_per_cell"`
	TotalTerminals    int `json:"total_terminals"`

	// The timed fleet run: virtual horizon, wall clock, and the scale
	// figure of merit — terminal-simulation-seconds per wall second
	// (total terminals × virtual seconds / wall seconds).
	SimSeconds             float64 `json:"sim_seconds"`
	WallS                  float64 `json:"wall_s"`
	TerminalSimSecPerWallS float64 `json:"terminal_sim_seconds_per_wall_s"`
	PeakRSSBytes           int64   `json:"peak_rss_bytes"`

	// Memory economics, measured by testbed.FleetFootprint: resident
	// bytes per powered-on terminal, compact-lazy vs eager full-stack,
	// and their ratio (the tentpole's >= 50x claim).
	BytesPerIdleTerminal      float64 `json:"bytes_per_idle_terminal"`
	BytesPerIdleTerminalEager float64 `json:"bytes_per_idle_terminal_eager"`
	IdleCompaction            float64 `json:"idle_compaction"`

	// Differential validation of the population model against an
	// ensemble of real dialed terminals under the same CBR spec on a
	// fade-free cell (per-session random fades are declared out of the
	// fluid model's scope).
	PopUtilReal         float64 `json:"population_utilization_real"`
	PopUtilModel        float64 `json:"population_utilization_model"`
	PopUtilAbsErr       float64 `json:"population_utilization_abs_err"`
	PopTolerance        float64 `json:"population_tolerance"`
	PoolOccupancyReal   int     `json:"pool_occupancy_real"`
	PoolOccupancyModel  int     `json:"pool_occupancy_model"`
	PopulationValidated bool    `json:"population_validated"`

	// The fleet scenario's 1-shard vs N-shard determinism check.
	Shards           int  `json:"shards"`
	ResultsIdentical bool `json:"results_identical"`
}

// peakRSSBytes reads the process high-water resident set (VmHWM);
// outside Linux it falls back to the Go runtime's OS-claimed bytes.
func peakRSSBytes() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
						return kb * 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// benchFleet runs the fleet-scale benchmark: measure per-terminal
// footprints, execute the 100k+ scenario (active flows + compact idle
// fleet + aggregate populations) on the default sharding and again on
// one shard to prove byte-identical results, differentially validate
// the population model, and write the report as JSON.
func benchFleet(path string, seed int64, cells, active, idle, population int) error {
	if cells <= 0 {
		cells = 4
	}
	if active <= 0 {
		active = 2
	}
	if idle <= 0 {
		idle = 24000
	}
	if population <= 0 {
		population = 1000
	}

	lazyB, err := testbed.FleetFootprint(8192, false)
	if err != nil {
		return err
	}
	eagerB, err := testbed.FleetFootprint(256, true)
	if err != nil {
		return err
	}

	t0 := time.Now()
	res, err := multiCell(seed, cells, active, 0, shard.PolicyGlobal, idle, population)
	if err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	for i, st := range res.Populations {
		if st.CarriedBytes <= 0 {
			return fmt.Errorf("bench-fleet: cell %d population carried nothing", i)
		}
	}

	single, err := multiCell(seed, cells, active, 1, shard.PolicyGlobal, idle, population)
	if err != nil {
		return err
	}

	// Differential probe on a fade-free fleet cell (the fluid model
	// does not reproduce per-session random fades, by declaration).
	probeCfg := umts.FleetCell(0)
	probeCfg.Fades = umts.FadeConfig{}
	spec := umts.PopulationSpec{RateBps: 64e3, Start: 5 * time.Second, Duration: 20 * time.Second}
	realLeg, err := umts.MeasureEnsemble(seed, probeCfg, 40, spec)
	if err != nil {
		return err
	}
	modelLeg, _, err := umts.MeasurePopulation(seed, probeCfg, 40, spec)
	if err != nil {
		return err
	}

	horizon := res.Opts.FlowStart + res.Opts.Duration + res.Opts.Drain
	total := cells * (active + idle + population)
	absErr := math.Abs(realLeg.Utilization - modelLeg.Utilization)
	rep := fleetBenchReport{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Cells:      cells, ActivePerCell: active,
		IdlePerCell: idle, PopulationPerCell: population,
		TotalTerminals: total,

		SimSeconds:             horizon.Seconds(),
		WallS:                  wall,
		TerminalSimSecPerWallS: float64(total) * horizon.Seconds() / wall,
		PeakRSSBytes:           peakRSSBytes(),

		BytesPerIdleTerminal:      lazyB,
		BytesPerIdleTerminalEager: eagerB,
		IdleCompaction:            eagerB / lazyB,

		PopUtilReal:        realLeg.Utilization,
		PopUtilModel:       modelLeg.Utilization,
		PopUtilAbsErr:      absErr,
		PopTolerance:       umts.DefaultPopulationTolerance,
		PoolOccupancyReal:  realLeg.PoolOccupancy,
		PoolOccupancyModel: modelLeg.PoolOccupancy,
		PopulationValidated: absErr <= umts.DefaultPopulationTolerance &&
			realLeg.PoolOccupancy == modelLeg.PoolOccupancy,

		Shards:           res.Opts.Shards,
		ResultsIdentical: flowsIdentical(single, res),
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("bench-fleet: %d terminals (%d cells x %d+%d+%d) over %v: wall %.2f s, %.0f terminal-sim-s/wall-s, idle %.0f B vs eager %.0f B (%.0fx), pop |err| %.4f (tol %.2f, validated=%v), identical=%v -> %s\n",
		total, cells, active, idle, population, horizon, wall,
		rep.TerminalSimSecPerWallS, lazyB, eagerB, rep.IdleCompaction,
		absErr, rep.PopTolerance, rep.PopulationValidated, rep.ResultsIdentical, path)
	return nil
}
