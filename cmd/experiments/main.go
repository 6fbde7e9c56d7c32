// Command experiments regenerates every figure of the paper's evaluation
// (§3): Figures 1-3 (72 kbps VoIP-like flow: bitrate, jitter, RTT) and
// Figures 4-7 (1 Mbps CBR flow: bitrate, jitter, loss, RTT), each over
// both the UMTS-to-Ethernet and Ethernet-to-Ethernet paths, plus the
// §3.2 narrative checks (average bitrate met, zero VoIP loss, two-phase
// uplink profile, who-wins relations).
//
// Usage:
//
//	experiments [-figure all|1..7] [-dur 120s] [-reps 1] [-seed 1]
//	            [-workers N] [-every 5] [-series] [-metrics file]
//	            [-cells K] [-terminals M] [-shards S]
//	            [-fleet N] [-population P] [-bench-fleet file]
//	            [-shard-policy global|dynamic]
//	            [-analysis batch|stream|stream-only]
//	            [-fault-profile name] [-self-heal]
//	            [-bench-parallel file] [-bench-sched file]
//	            [-bench-shard file] [-bench-sched-compare file]
//	            [-bench-shard-compare file] [-bench-check files]
//	            [-bench-fault file] [-bench-analysis file]
//	            [-serve :port] [-spec file.json] [-serve-smoke]
//	            [-cpuprofile file] [-memprofile file] [-v]
//
// -serve turns the binary into a long-lived measurement service: an
// HTTP/JSON control plane (internal/control) that accepts declarative
// testbed specs at POST /v1/jobs, runs them on a bounded worker pool,
// streams live QoS windows over SSE at /v1/jobs/{id}/stream, and
// exposes service counters plus per-job simulation metrics at
// /v1/metrics. SIGINT/SIGTERM drains the queue before exit. -spec runs
// one spec document in-process and prints the same canonical result
// encoding, so service and one-shot results can be compared
// byte-for-byte. -serve-smoke exercises the whole service mode
// end-to-end in-process (the `make serve-smoke` gate).
//
// With -reps N each experiment is repeated on N independently seeded
// testbeds (the paper ran each experiment 20 times) and the summary
// reports mean ± std across repetitions; series are printed for the
// first repetition.
//
// Repetitions fan out across a bounded worker pool (-workers, default
// GOMAXPROCS); every repetition owns a private simulation loop and
// metrics registry, and results merge by repetition index, so the
// output is byte-identical to a sequential run of the same seeds.
// -metrics dumps each cell's rep-0 metrics snapshot as JSON ("-" for
// stdout); -bench-parallel times the sequential vs. pooled schedule and
// writes the comparison as JSON instead of running the normal report;
// -bench-sched times the sim kernel with buffer pooling off and on
// over one paper cell and writes wall time and allocation counts as
// JSON.
// -cpuprofile/-memprofile write pprof profiles of whichever mode ran.
//
// -fault-profile injects a named deterministic fault preset (drops,
// fades, degrade, regloss, flaps, flaky — see internal/fault.Preset)
// into every run, scaled to the flow duration; -self-heal runs the
// umts backend in recover mode, so carrier drops degrade the
// connection and a supervised redial re-establishes it instead of
// failing the slice. -bench-fault measures the fault/recovery story:
// it first proves an empty fault schedule is byte-identical to a plain
// run, then runs the drops preset under self-healing and records the
// outage, redial, and delivery accounting as JSON (the `make
// bench-fault` artifact).
//
// -analysis selects the QoS pipeline: batch (the reference post-hoc
// decode of retained per-packet logs), stream (batch plus a live
// constant-memory stream decoder, for differential comparison), or
// stream-only (per-packet logs dropped; analysis memory stays
// O(windows + flows) however long the flow runs). -bench-analysis
// times batch vs streaming decode over identical paper-scale logs,
// records the retained bytes and the quantile sketch's observed
// percentile error, and writes the comparison as JSON (the `make
// bench-analysis` artifact).
//
// -cells K switches to the scale-out scenario instead of the paper
// figures: K cells x M terminals (-terminals) run as one simulation,
// partitioned over S shards (-shards; default one shard per cell plus
// one for the wired core) by the conservative parallel engine in
// internal/sim/shard. -shard-policy selects the engine's window policy:
// global lockstep windows (default) or dynamic per-shard horizons
// (shortest-path distances over the edge graph, extended by earliest-
// output-time promises of what each shard can actually emit — idle-
// heavy fleets advance in event-to-event strides). Unknown policy names
// are rejected with the allowed set. The per-flow QoS summary is
// identical for every shard count AND policy.
// -bench-shard times the same scenario on 1 shard vs S shards under
// both policies, verifies all runs match, additionally counts engine
// windows on an idle-fleet leg (24k idle terminals + 1000 population
// per cell, no active flows) under global vs dynamic, and writes the
// comparison as JSON (the `make bench-shard` artifact).
// -bench-sched-compare re-measures the scheduler benchmark and exits
// non-zero if the shipping configuration
// regressed more than 25% against the committed JSON (the `make
// bench-compare` gate). -bench-shard-compare validates the committed
// shard artifact instead: both policies recorded identical, dynamic
// windows <= global windows, the idle-fleet leg's >= 5x dynamic window
// reduction, and (on >= 4-core artifacts) the dynamic wall time within
// 1.05x of the global one (the `make bench-compare-shard` gate). -bench-check
// takes a comma-separated list of committed BENCH_*.json artifacts,
// parses each one, and fails unless every `*_identical` field in every
// file is true (the `make bench-all` aggregate gate).
//
// -fleet N powers on N additional compact idle terminals per cell
// (registered, never dialing; the full node stack materializes only on
// first dial) and -population P attaches P modeled background
// subscribers per cell as one aggregate fluid ensemble — together they
// scale a -cells run to 100k+ subscribers. -bench-fleet runs the
// fleet-scale benchmark: per-terminal footprint (compact vs eager),
// the 100k-terminal scenario's wall time and peak RSS, the population
// model's differential validation against real dialed terminals, and
// the 1-vs-N-shard identity check, written as JSON (the `make
// bench-fleet` artifact).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/onelab/umtslab/internal/bufpool"
	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/sim/shard"
	"github.com/onelab/umtslab/internal/stats"
	"github.com/onelab/umtslab/internal/testbed"
)

type figure struct {
	id       int
	title    string
	workload testbed.Workload
	series   string // bitrate, jitter, loss, rtt
	unit     string
}

var figures = []figure{
	{1, "Bitrate of the VoIP-like flow", testbed.WorkloadVoIP, "bitrate", "kbps"},
	{2, "Jitter of the VoIP-like flow", testbed.WorkloadVoIP, "jitter", "s"},
	{3, "RTT of the VoIP-like flow", testbed.WorkloadVoIP, "rtt", "s"},
	{4, "Bitrate of the 1-Mbps flow", testbed.WorkloadCBR1M, "bitrate", "kbps"},
	{5, "Jitter of the 1-Mbps flow", testbed.WorkloadCBR1M, "jitter", "s"},
	{6, "Loss of the 1-Mbps flow", testbed.WorkloadCBR1M, "loss", "pkt/window"},
	{7, "RTT of the 1-Mbps flow", testbed.WorkloadCBR1M, "rtt", "s"},
}

// cell caches one (workload, path, rep) run.
type cellKey struct {
	wl   testbed.Workload
	path testbed.Path
	rep  int
}

var (
	cache       = map[cellKey]*testbed.ExperimentResult{}
	dur         time.Duration
	faultSched  fault.Schedule
	selfHeal    bool
	analysisCfg testbed.AnalysisConfig
	shardPolicy shard.Policy
)

// cellScenario builds the Scenario for one (workload, path) cell at the
// given pre-derived seed, honoring the global fault/self-heal flags.
func cellScenario(seed int64, wl testbed.Workload, path testbed.Path) *testbed.Scenario {
	opts := []testbed.ScenarioOption{
		testbed.WithSeed(seed), testbed.WithPath(path),
		testbed.WithWorkload(wl), testbed.WithDuration(dur),
		testbed.WithFaults(faultSched),
		testbed.WithAnalysis(analysisCfg),
	}
	if selfHeal {
		opts = append(opts, testbed.WithSelfHeal(nil))
	}
	return testbed.NewScenario(opts...)
}

func run(seed int64, wl testbed.Workload, path testbed.Path, rep int) (*testbed.ExperimentResult, error) {
	k := cellKey{wl, path, rep}
	if r, ok := cache[k]; ok {
		return r, nil
	}
	rp, err := cellScenario(testbed.RepSeed(seed, rep), wl, path).Run()
	if err != nil {
		return nil, err
	}
	cache[k] = rp.Results[0]
	return rp.Results[0], nil
}

// cellList enumerates every (workload, path, rep) cell the report will
// consult, deduplicated in a stable order: the selected figures' cells
// plus rep 0 of all four paper cells used by the §3.2 shape checks.
func cellList(sel []figure, reps int) []cellKey {
	seen := map[cellKey]bool{}
	var keys []cellKey
	add := func(k cellKey) {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, fig := range sel {
		for _, path := range []testbed.Path{testbed.PathUMTS, testbed.PathEthernet} {
			for rep := 0; rep < reps; rep++ {
				add(cellKey{fig.workload, path, rep})
			}
		}
	}
	for _, wl := range []testbed.Workload{testbed.WorkloadVoIP, testbed.WorkloadCBR1M} {
		for _, path := range []testbed.Path{testbed.PathUMTS, testbed.PathEthernet} {
			add(cellKey{wl, path, 0})
		}
	}
	return keys
}

// toScenarios builds the exact Scenario each cell key runs — the same
// construction run() uses, so the pooled prefetch and the sequential
// cache-miss path cannot drift (faults, self-healing, and the analysis
// pipeline all ride along).
func toScenarios(keys []cellKey, seed int64) []*testbed.Scenario {
	scs := make([]*testbed.Scenario, len(keys))
	for i, k := range keys {
		scs[i] = cellScenario(testbed.RepSeed(seed, k.rep), k.wl, k.path)
	}
	return scs
}

// prefetch executes every needed cell across the worker pool and fills
// the cache, so the (sequential, deterministic) printing code below hits
// the cache on every lookup. Each rep runs with RepSeed(seed, rep) on a
// private loop, so the report is byte-identical to a sequential run.
func prefetch(seed int64, sel []figure, reps, workers int) error {
	keys := cellList(sel, reps)
	reports, err := testbed.RunScenarios(toScenarios(keys, seed), workers)
	if err != nil {
		return err
	}
	for i, k := range keys {
		cache[k] = reports[i].Results[0]
	}
	return nil
}

func seriesOf(r *testbed.ExperimentResult, name string) stats.Series {
	switch name {
	case "bitrate":
		return r.Decoded.BitrateSeries()
	case "jitter":
		return r.Decoded.JitterSeries()
	case "loss":
		return r.Decoded.LossSeries()
	case "rtt":
		return r.Decoded.RTTSeries()
	default:
		return nil
	}
}

func main() {
	figSel := flag.String("figure", "all", "figure to regenerate: all or 1..7")
	durFlag := flag.Duration("dur", 120*time.Second, "flow duration (paper: 120 s)")
	reps := flag.Int("reps", 1, "repetitions per experiment (paper: 20)")
	seed := flag.Int64("seed", 1, "base simulation seed")
	every := flag.Int("every", 5, "print every Nth window of each series")
	noSeries := flag.Bool("summary-only", false, "suppress the series, print summaries only")
	csvDir := flag.String("csv", "", "also write each series as <dir>/figN-<path>.csv (plot-ready)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for repetitions (<=0: GOMAXPROCS)")
	metricsOut := flag.String("metrics", "", `write rep-0 metrics snapshots as JSON to this file ("-" for stdout)`)
	benchOut := flag.String("bench-parallel", "", "time sequential vs parallel schedules, write JSON to this file, and exit")
	benchSchedOut := flag.String("bench-sched", "", "time the sim kernel with buffer pooling off and on, write JSON to this file, and exit")
	cells := flag.Int("cells", 0, "run the K-cell scale-out scenario instead of the paper figures")
	terminals := flag.Int("terminals", 1, "terminals per cell for -cells")
	fleetIdle := flag.Int("fleet", 0, "additional idle (never-dialing) compact terminals per cell for -cells")
	populationN := flag.Int("population", 0, "aggregate background subscribers per cell for -cells (fluid ensemble, O(1) cost)")
	benchFleetOut := flag.String("bench-fleet", "", "run the 100k-terminal fleet benchmark (footprint, throughput, population validation), write JSON to this file, and exit")
	shards := flag.Int("shards", 0, "shard count for -cells (0: one per cell plus the wired core)")
	shardPolicyFlag := flag.String("shard-policy", "global", "shard engine window policy for -cells: global (lockstep windows) or dynamic (per-shard horizons with EOT promises)")
	benchShardOut := flag.String("bench-shard", "", "time the -cells scenario on 1 vs -shards shards under every window policy, write JSON to this file, and exit")
	benchSchedCmp := flag.String("bench-sched-compare", "", "re-measure the scheduler benchmark and fail if pool wall time regressed >25% vs this committed JSON")
	benchShardCmp := flag.String("bench-shard-compare", "", "validate this committed bench-shard JSON: both policies identical, dynamic windows <= global, idle-fleet reduction >= 5x, dynamic wall <= 1.05x global on >=4 cores")
	benchCheckList := flag.String("bench-check", "", "comma-separated committed BENCH_*.json artifacts: parse each and fail unless every *_identical field is true")
	analysisFlag := flag.String("analysis", "batch", "QoS pipeline: batch (reference), stream (batch + live stream decoder), stream-only (constant-memory, per-packet logs dropped)")
	benchAnalysisOut := flag.String("bench-analysis", "", "time batch vs streaming decode over identical paper-scale logs, write JSON to this file, and exit")
	faultProfile := flag.String("fault-profile", "none", "deterministic fault preset injected into every run: none, drops, fades, degrade, regloss, flaps, flaky")
	selfHealFlag := flag.Bool("self-heal", false, "run the umts backend in recover mode (supervised redial instead of failing the slice)")
	benchFaultOut := flag.String("bench-fault", "", "prove empty-schedule transparency, run the drops preset under self-healing, write JSON to this file, and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	serveAddr := flag.String("serve", "", `run as a long-lived measurement service on this address (e.g. ":8080"): HTTP/JSON control plane accepting declarative specs at POST /v1/jobs`)
	specFile := flag.String("spec", "", `run one declarative JSON spec file ("-" for stdin) and print the canonical result document (byte-identical to the service's /v1/jobs/{id}/result)`)
	smokeFlag := flag.Bool("serve-smoke", false, "run the in-process service-mode smoke test (submit, stream, scrape, drain) and exit")
	flag.Parse()
	dur = *durFlag
	selfHeal = *selfHealFlag
	var err error
	faultSched, err = fault.Preset(*faultProfile, *seed, dur)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	analysisCfg.Mode, err = testbed.ParseAnalysisMode(*analysisFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	shardPolicy, err = shard.ParsePolicy(*shardPolicyFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
			}
		}()
	}

	if *smokeFlag {
		if err := serveSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: serve-smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *serveAddr != "" {
		if err := runServe(*serveAddr, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *specFile != "" {
		if err := runSpec(*specFile); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: spec: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var selected []figure
	if *figSel == "all" {
		selected = figures
	} else {
		n, err := strconv.Atoi(*figSel)
		if err != nil || n < 1 || n > 7 {
			fmt.Fprintf(os.Stderr, "experiments: bad -figure %q\n", *figSel)
			os.Exit(2)
		}
		selected = figures[n-1 : n]
	}

	if *benchOut != "" {
		if err := benchParallel(*benchOut, *seed, selected, *reps, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bench-parallel: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchSchedOut != "" {
		if err := benchSched(*benchSchedOut, *seed, *reps); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bench-sched: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchSchedCmp != "" {
		if err := benchSchedCompare(*benchSchedCmp, *seed, *reps); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bench-sched-compare: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchShardOut != "" {
		if err := benchShard(*benchShardOut, *seed, *cells, *terminals, *shards); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bench-shard: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchShardCmp != "" {
		if err := benchShardCompare(*benchShardCmp); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bench-shard-compare: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchCheckList != "" {
		if err := benchCheck(strings.Split(*benchCheckList, ",")); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bench-check: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchAnalysisOut != "" {
		if err := benchAnalysis(*benchAnalysisOut, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bench-analysis: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchFaultOut != "" {
		if err := benchFault(*benchFaultOut, *seed, *faultProfile); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bench-fault: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchFleetOut != "" {
		if err := benchFleet(*benchFleetOut, *seed, *cells, *terminals, *fleetIdle, *populationN); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bench-fleet: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *cells > 0 {
		if err := runMultiCell(*seed, *cells, *terminals, *shards, *fleetIdle, *populationN, *metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: multicell: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if err := prefetch(*seed, selected, *reps, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("Reproduction of 'Providing UMTS connectivity to PlanetLab nodes' (ROADS'08)\n")
	fmt.Printf("flows: %v, window 200 ms, %d repetition(s), base seed %d\n", dur, *reps, *seed)

	for _, fig := range selected {
		fmt.Printf("\n================ Figure %d: %s ================\n", fig.id, fig.title)
		for _, path := range []testbed.Path{testbed.PathUMTS, testbed.PathEthernet} {
			var sums stats.Summary
			var first stats.Series
			for rep := 0; rep < *reps; rep++ {
				r, err := run(*seed, fig.workload, path, rep)
				if err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
					os.Exit(1)
				}
				s := seriesOf(r, fig.series)
				if rep == 0 {
					first = s
				}
				sums.Add(s.Mean())
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, fig, path, first); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: csv: %v\n", err)
					os.Exit(1)
				}
			}
			fmt.Printf("\n--- %s ---\n", path)
			fmt.Printf("mean %s over run: %.4g", fig.unit, sums.Mean())
			if *reps > 1 {
				fmt.Printf(" (std across %d reps: %.3g)", *reps, sums.Std())
			}
			if smax := first.Max(); math.IsNaN(smax) {
				fmt.Printf("; no samples in rep 0\n")
			} else {
				fmt.Printf("; max in rep 0: %.4g %s\n", smax, fig.unit)
			}
			if !*noSeries {
				fmt.Printf("# t(s)  %s (%s), every %d windows\n", fig.series, fig.unit, *every)
				for i, p := range first {
					if i%*every != 0 {
						continue
					}
					fmt.Printf("%7.2f  %.5g\n", p.T.Seconds(), p.V)
				}
			}
		}
		if fig.id == 4 {
			printBearerEvents()
		}
	}

	printChecks(*seed)

	if *metricsOut != "" {
		if err := dumpMetrics(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

// dumpMetrics writes the rep-0 metrics snapshot of every cell the run
// touched, keyed "workload|path", as indented JSON.
func dumpMetrics(path string) error {
	out := map[string]metrics.Snapshot{}
	for k, r := range cache {
		if k.rep != 0 {
			continue
		}
		out[fmt.Sprintf("%v|%v", k.wl, k.path)] = r.Metrics
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type benchReport struct {
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Workers     int     `json:"workers"`
	Runs        int     `json:"runs"`
	Reps        int     `json:"reps"`
	FlowS       float64 `json:"flow_duration_s"`
	SequentialS float64 `json:"sequential_wall_s"`
	ParallelS   float64 `json:"parallel_wall_s"`
	Speedup     float64 `json:"speedup"`
	Identical   bool    `json:"results_identical"`
}

// benchParallel times the same schedule of runs through a 1-worker pool
// and an N-worker pool, verifies the decoded results are identical, and
// writes the comparison as JSON (the `make bench` artifact).
func benchParallel(path string, seed int64, sel []figure, reps, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	keys := cellList(sel, reps)
	t0 := time.Now()
	seq, err := testbed.RunScenarios(toScenarios(keys, seed), 1)
	if err != nil {
		return err
	}
	seqWall := time.Since(t0)
	t0 = time.Now()
	par, err := testbed.RunScenarios(toScenarios(keys, seed), workers)
	if err != nil {
		return err
	}
	parWall := time.Since(t0)
	identical := true
	for i := range keys {
		if !reflect.DeepEqual(seq[i].Results[0].Decoded, par[i].Results[0].Decoded) {
			identical = false
		}
	}
	rep := benchReport{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     workers,
		Runs:        len(keys),
		Reps:        reps,
		FlowS:       dur.Seconds(),
		SequentialS: seqWall.Seconds(),
		ParallelS:   parWall.Seconds(),
		Speedup:     seqWall.Seconds() / parWall.Seconds(),
		Identical:   identical,
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench-parallel: %d runs, sequential %.2f s, parallel(%d workers) %.2f s, speedup %.2fx, identical=%v -> %s\n",
		len(keys), seqWall.Seconds(), workers, parWall.Seconds(), rep.Speedup, identical, path)
	return nil
}

// schedBenchConfig is one measured sim-kernel configuration.
type schedBenchConfig struct {
	WallSPerRun  float64 `json:"wall_s_per_run"`
	AllocsPerRun uint64  `json:"allocs_per_run"`
	BytesPerRun  uint64  `json:"bytes_per_run"`
}

type schedBenchReport struct {
	Workload string  `json:"workload"`
	Path     string  `json:"path"`
	FlowS    float64 `json:"flow_duration_s"`
	Reps     int     `json:"reps"`
	// NoPool is the kernel with buffer pooling disabled: every packet
	// buffer and packet freshly allocated.
	NoPool schedBenchConfig `json:"nopool"`
	// Pool is the shipping configuration.
	Pool schedBenchConfig `json:"pool"`
	// AllocImprovement is nopool allocs per run over pool allocs per
	// run (higher is better; the acceptance bar is 1.5).
	AllocImprovement float64 `json:"alloc_improvement"`
	WallImprovement  float64 `json:"wall_improvement"`
	// Identical reports whether both configurations decoded the same
	// QoS result — recycling is an optimization, never semantics.
	Identical bool `json:"results_identical"`
}

// benchSched times the paper's VoIP/UMTS cell with buffer pooling off
// and on, verifies both decode identically, and writes the comparison
// as JSON (the `make bench-sched` artifact).
func benchSched(path string, seed int64, reps int) error {
	rep, err := measureSched(seed, reps)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench-sched: %d rep(s) of %v VoIP/UMTS: nopool %.3f s %.0f allocs, pool %.3f s %.0f allocs; alloc x%.2f, wall x%.2f, identical=%v -> %s\n",
		reps, dur,
		rep.NoPool.WallSPerRun, float64(rep.NoPool.AllocsPerRun),
		rep.Pool.WallSPerRun, float64(rep.Pool.AllocsPerRun),
		rep.AllocImprovement, rep.WallImprovement, rep.Identical, path)
	return nil
}

// benchSchedCompare re-measures the scheduler benchmark with the same
// flags and fails when the shipping configuration (pool) got more than
// 25% slower per run than the committed artifact — a cheap regression
// tripwire for the sim-kernel hot path. Allocation counts are compared
// too, but only reported: wall time is the gate.
func benchSchedCompare(path string, seed int64, reps int) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed schedBenchReport
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if committed.Pool.WallSPerRun <= 0 {
		return fmt.Errorf("%s: no pool wall time to compare against", path)
	}
	fresh, err := measureSched(seed, reps)
	if err != nil {
		return err
	}
	ratio := fresh.Pool.WallSPerRun / committed.Pool.WallSPerRun
	allocRatio := float64(fresh.Pool.AllocsPerRun) / float64(committed.Pool.AllocsPerRun)
	fmt.Printf("bench-sched-compare: pool %.3f s/run vs committed %.3f s/run (x%.2f wall, x%.2f allocs)\n",
		fresh.Pool.WallSPerRun, committed.Pool.WallSPerRun, ratio, allocRatio)
	if !fresh.Identical {
		return fmt.Errorf("kernel configurations no longer decode identical results")
	}
	if ratio > 1.25 {
		return fmt.Errorf("pool wall time regressed x%.2f (>1.25) vs %s", ratio, path)
	}
	fmt.Println("bench-sched-compare: within budget")
	return nil
}

// measureSched runs the two sim-kernel configurations and fills a
// schedBenchReport; benchSched writes it, benchSchedCompare diffs it
// against the committed artifact.
func measureSched(seed int64, reps int) (schedBenchReport, error) {
	if reps < 1 {
		reps = 1
	}
	configs := []struct {
		name string
		pool bool
	}{{"nopool", false}, {"pool", true}}
	measured := make([]schedBenchConfig, len(configs))
	firsts := make([]*testbed.ExperimentResult, len(configs))
	for i, cfg := range configs {
		bufpool.SetDisabled(!cfg.pool)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for rep := 0; rep < reps; rep++ {
			rp, err := testbed.NewScenario(
				testbed.WithSeed(testbed.RepSeed(seed, rep)),
				testbed.WithPath(testbed.PathUMTS),
				testbed.WithWorkload(testbed.WorkloadVoIP),
				testbed.WithDuration(dur),
			).Run()
			if err != nil {
				bufpool.SetDisabled(false)
				return schedBenchReport{}, fmt.Errorf("%s rep %d: %w", cfg.name, rep, err)
			}
			if rep == 0 {
				firsts[i] = rp.Results[0]
			}
		}
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		measured[i] = schedBenchConfig{
			WallSPerRun:  wall.Seconds() / float64(reps),
			AllocsPerRun: (after.Mallocs - before.Mallocs) / uint64(reps),
			BytesPerRun:  (after.TotalAlloc - before.TotalAlloc) / uint64(reps),
		}
	}
	bufpool.SetDisabled(false)
	return schedBenchReport{
		Workload:         testbed.WorkloadVoIP.String(),
		Path:             testbed.PathUMTS.String(),
		FlowS:            dur.Seconds(),
		Reps:             reps,
		NoPool:           measured[0],
		Pool:             measured[1],
		AllocImprovement: float64(measured[0].AllocsPerRun) / float64(measured[1].AllocsPerRun),
		WallImprovement:  measured[0].WallSPerRun / measured[1].WallSPerRun,
		Identical:        reflect.DeepEqual(firsts[0].Decoded, firsts[1].Decoded),
	}, nil
}

// shardBenchReport is the `make bench-shard` artifact: the K-cell
// scenario timed on one loop vs N shards, under both window policies.
// The CPU fields are recorded so the schema test can scale its speedup
// expectation to the machine that produced the artifact — conservative
// parallelism cannot beat 2x on a single-core runner, and the dynamic
// policy cannot beat the global one without cores to run ahead on.
type shardBenchReport struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Cells      int     `json:"cells"`
	Terminals  int     `json:"terminals"`
	Shards     int     `json:"shards"`
	FlowS      float64 `json:"flow_duration_s"`
	Wall1S     float64 `json:"wall_1shard_s"`
	// WallNS and Speedup measure the global (lockstep) policy — the
	// field names predate the policy knob and stay stable for tooling.
	WallNS    float64 `json:"wall_nshard_s"`
	Speedup   float64 `json:"speedup"`
	Identical bool    `json:"results_identical"`
	// The dynamic-policy leg of the same scenario: per-shard horizons,
	// same byte-identical results, its own wall time and window count.
	WallDynamicS     float64 `json:"wall_nshard_dynamic_s"`
	SpeedupDynamic   float64 `json:"speedup_dynamic"`
	DynamicIdentical bool    `json:"dynamic_identical"`
	WindowsDynamic   int64   `json:"windows_dynamic"`
	Windows          int64   `json:"windows"`
	LookaheadMs      float64 `json:"lookahead_ms"`
	Messages         int64   `json:"cross_shard_messages"`
	// The idle-fleet leg: the BENCH_fleet scenario minus its active
	// flows (idle cohorts + background populations only), run under
	// global and dynamic. With no cross-shard traffic the promise
	// horizon strides from population tick to population tick, so the
	// engine-wide window total (summed over shards) collapses — the
	// deterministic, CPU-count-independent win the policy exists for.
	FleetIdleTerminals   int     `json:"fleet_idle_terminals"`
	FleetPopulation      int     `json:"fleet_population"`
	FleetWindowsGlobal   int64   `json:"fleet_windows_global"`
	FleetWindowsDynamic  int64   `json:"fleet_windows_dynamic"`
	FleetWindowReduction float64 `json:"fleet_window_reduction"`
	FleetIdentical       bool    `json:"fleet_identical"`
}

// flowsIdentical compares two multi-cell runs on the determinism
// contract: per-flow QoS, bearer logs, setup times, and the
// placement-independent counters.
func flowsIdentical(a, b *testbed.MultiCellResult) bool {
	if len(a.Flows) != len(b.Flows) || !reflect.DeepEqual(a.Counters, b.Counters) {
		return false
	}
	for i := range a.Flows {
		x, y := a.Flows[i], b.Flows[i]
		if !reflect.DeepEqual(x.Decoded, y.Decoded) ||
			!reflect.DeepEqual(x.BearerEvents, y.BearerEvents) ||
			x.SetupTime != y.SetupTime || x.SendErrors != y.SendErrors {
			return false
		}
	}
	return true
}

// multiCell runs one multi-cell leg through the Scenario front door
// and returns the shard-engine result. A zero shards value keeps the
// engine's default placement (one shard per cell plus the wired core);
// idle/population of 0 omit the fleet options.
func multiCell(seed int64, cells, terminals, shards int, policy shard.Policy, idle, population int) (*testbed.MultiCellResult, error) {
	opts := []testbed.ScenarioOption{
		testbed.WithSeed(seed), testbed.WithCells(cells, terminals),
		testbed.WithShards(shards), testbed.WithShardPolicy(policy),
		testbed.WithDuration(dur),
	}
	if idle > 0 {
		opts = append(opts, testbed.WithIdleTerminals(idle))
	}
	if population > 0 {
		opts = append(opts, testbed.WithPopulation(population, nil))
	}
	rep, err := testbed.NewScenario(opts...).Run()
	if err != nil {
		return nil, err
	}
	return rep.MultiCell, nil
}

// benchShard times the multi-cell scenario on a single loop and on the
// requested shard count under both window policies, verifies every
// sharded run is byte-identical to the single-loop reference, and
// writes the comparison as JSON.
func benchShard(path string, seed int64, cells, terminals, shards int) error {
	if cells <= 0 {
		cells = 4
	}
	if terminals <= 0 {
		terminals = 1
	}
	t0 := time.Now()
	single, err := multiCell(seed, cells, terminals, 1, shard.PolicyGlobal, 0, 0)
	if err != nil {
		return err
	}
	wall1 := time.Since(t0)
	t0 = time.Now()
	sharded, err := multiCell(seed, cells, terminals, shards, shard.PolicyGlobal, 0, 0)
	if err != nil {
		return err
	}
	wallN := time.Since(t0)
	t0 = time.Now()
	dynamic, err := multiCell(seed, cells, terminals, shards, shard.PolicyDynamic, 0, 0)
	if err != nil {
		return err
	}
	wallD := time.Since(t0)

	// Idle-fleet leg: same cells, zero active flows, the BENCH_fleet
	// idle cohort + population per cell. Window totals are summed over
	// every shard — the whole-engine coordination cost.
	const fleetIdle, fleetPopulation = 24000, 1000
	fleetGlobal, err := multiCell(seed, cells, 0, shards, shard.PolicyGlobal, fleetIdle, fleetPopulation)
	if err != nil {
		return err
	}
	fleetDynamic, err := multiCell(seed, cells, 0, shards, shard.PolicyDynamic, fleetIdle, fleetPopulation)
	if err != nil {
		return err
	}
	totalWindows := func(res *testbed.MultiCellResult) int64 {
		var n int64
		for _, snap := range res.Snapshots {
			n += snap.Counter("shard/windows")
		}
		return n
	}
	fwg, fwd := totalWindows(fleetGlobal), totalWindows(fleetDynamic)

	msgs := metrics.MergeSnapshots(sharded.Snapshots...).Counters["shard/msgs_out"]
	rep := shardBenchReport{
		NumCPU:               runtime.NumCPU(),
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		Cells:                cells,
		Terminals:            terminals,
		Shards:               sharded.Opts.Shards,
		FlowS:                dur.Seconds(),
		Wall1S:               wall1.Seconds(),
		WallNS:               wallN.Seconds(),
		Speedup:              wall1.Seconds() / wallN.Seconds(),
		Identical:            flowsIdentical(single, sharded),
		WallDynamicS:         wallD.Seconds(),
		SpeedupDynamic:       wall1.Seconds() / wallD.Seconds(),
		DynamicIdentical:     flowsIdentical(single, dynamic),
		WindowsDynamic:       dynamic.Windows,
		Windows:              sharded.Windows,
		LookaheadMs:          sharded.Lookahead.Seconds() * 1000,
		Messages:             msgs,
		FleetIdleTerminals:   fleetIdle,
		FleetPopulation:      fleetPopulation,
		FleetWindowsGlobal:   fwg,
		FleetWindowsDynamic:  fwd,
		FleetWindowReduction: float64(fwg) / float64(fwd),
		FleetIdentical: flowsIdentical(fleetGlobal, fleetDynamic) &&
			reflect.DeepEqual(fleetGlobal.Populations, fleetDynamic.Populations),
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench-shard: %d cells x %d terminals, %v flows: 1 shard %.2f s, %d shards global %.2f s (%.2fx) dynamic %.2f s (%.2fx), GOMAXPROCS=%d, %d cross-shard msgs, identical=%v/%v -> %s\n",
		cells, terminals, dur, rep.Wall1S, rep.Shards, rep.WallNS, rep.Speedup,
		rep.WallDynamicS, rep.SpeedupDynamic,
		rep.GOMAXPROCS, msgs, rep.Identical, rep.DynamicIdentical, path)
	fmt.Printf("bench-shard: windows global %d vs dynamic %d\n", rep.Windows, rep.WindowsDynamic)
	fmt.Printf("bench-shard: idle fleet %d cells x (%d idle + %d population): %d windows global vs %d dynamic (%.1fx fewer), identical=%v\n",
		cells, rep.FleetIdleTerminals, rep.FleetPopulation,
		rep.FleetWindowsGlobal, rep.FleetWindowsDynamic, rep.FleetWindowReduction, rep.FleetIdentical)
	return nil
}

// benchShardCompare validates the committed bench-shard artifact: both
// policies must have produced byte-identical results, the dynamic
// policy must not grant more windows than global (its horizon is never
// shorter than the lockstep window), the idle-fleet leg must show the
// >= 5x window reduction the policy exists for, and on >= 4-core
// artifacts the dynamic wall time must be within 1.05x of the global
// one (per-shard horizons only remove synchronization, so a real
// slowdown is a regression).
func benchShardCompare(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep shardBenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.WallNS <= 0 || rep.WallDynamicS <= 0 {
		return fmt.Errorf("%s: missing wall times (global %v, dynamic %v) — regenerate with `make bench-shard`",
			path, rep.WallNS, rep.WallDynamicS)
	}
	if !rep.Identical || !rep.DynamicIdentical {
		return fmt.Errorf("%s: recorded results not identical (global=%v dynamic=%v)",
			path, rep.Identical, rep.DynamicIdentical)
	}
	ratioD := rep.WallDynamicS / rep.WallNS
	fmt.Printf("bench-shard-compare: dynamic %.2f s (x%.3f) vs global %.2f s\n",
		rep.WallDynamicS, ratioD, rep.WallNS)
	// The wall gate only applies to multi-core artifacts: on a single
	// core the EOT fixpoint and quiescent rounds are coordinator
	// overhead with no parallelism to buy back, so the policy's 1-CPU
	// claim is the window count (gated below), not the wall clock.
	if rep.NumCPU >= 4 && ratioD > 1.05 {
		return fmt.Errorf("dynamic wall time x%.3f of global (>1.05) in %s", ratioD, path)
	}
	if rep.WindowsDynamic > rep.Windows {
		return fmt.Errorf("dynamic granted %d windows vs global %d (its horizons may only be longer) in %s",
			rep.WindowsDynamic, rep.Windows, path)
	}
	if !rep.FleetIdentical {
		return fmt.Errorf("%s: idle-fleet global and dynamic runs differ", path)
	}
	if rep.FleetWindowsDynamic <= 0 || rep.FleetWindowReduction < 5 {
		return fmt.Errorf("idle-fleet window reduction %.2fx (global %d vs dynamic %d, want >= 5x) in %s",
			rep.FleetWindowReduction, rep.FleetWindowsGlobal, rep.FleetWindowsDynamic, path)
	}
	fmt.Println("bench-shard-compare: within budget")
	return nil
}

// benchCheck is the `make bench-all` aggregate gate: every committed
// benchmark artifact must parse as JSON and every `*_identical` field
// in every file must be true. It deliberately knows nothing about the
// individual report schemas — the per-artifact schema tests gate those
// — so a new artifact (or a new identity claim inside an existing one)
// is covered the moment it is named on the command line.
func benchCheck(paths []string) error {
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		n := 0
		for key, val := range doc {
			if !strings.HasSuffix(key, "_identical") {
				continue
			}
			n++
			ok, isBool := val.(bool)
			if !isBool {
				return fmt.Errorf("%s: %s is %T, want bool", path, key, val)
			}
			if !ok {
				return fmt.Errorf("%s: %s is false — a differential diverged; regenerate and investigate", path, key)
			}
		}
		if n == 0 {
			return fmt.Errorf("%s: no *_identical fields — wrong file or schema drift", path)
		}
		fmt.Printf("bench-check: %s ok (%d identity claims)\n", path, n)
	}
	fmt.Println("bench-check: all artifacts identical")
	return nil
}

// faultBenchReport is the `make bench-fault` artifact. It documents two
// claims at once: the fault layer is free when unused (an explicitly
// armed empty schedule decodes and counts byte-identically to a plain
// run), and the self-healing dialer actually heals (every scripted
// carrier drop is followed by a supervised redial that brings the slice
// back, with the outage on the availability books).
type faultBenchReport struct {
	NumCPU            int     `json:"num_cpu"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	Profile           string  `json:"profile"`
	FlowS             float64 `json:"flow_duration_s"`
	BaselineIdentical bool    `json:"baseline_identical"`
	Drops             int     `json:"drops"`
	FaultsInjected    int64   `json:"faults_injected"`
	RedialAttempts    int64   `json:"redial_attempts"`
	Recoveries        int64   `json:"recoveries"`
	GiveUps           int64   `json:"give_ups"`
	DowntimeS         float64 `json:"downtime_s"`
	Availability      float64 `json:"availability"`
	ReceivedClean     int64   `json:"received_clean"`
	ReceivedFaulty    int64   `json:"received_faulty"`
	WallS             float64 `json:"wall_s"`
}

// supCounterSum sums the supervisor counters with the given suffix
// (their names embed the node/iface, which the report should not
// hardcode).
func supCounterSum(counters map[string]int64, suffix string) int64 {
	var total int64
	for name, v := range counters {
		if strings.HasPrefix(name, "dialer/supervisor/") && strings.HasSuffix(name, suffix) {
			total += v
		}
	}
	return total
}

// benchFault runs the VoIP/UMTS paper cell three times — plain, through
// the Scenario path with an explicitly armed empty schedule, and under
// the fault preset with self-healing — and writes the transparency and
// recovery evidence as JSON. A -fault-profile of none selects the drops
// preset, since benching the fault layer with no faults proves nothing.
func benchFault(path string, seed int64, profile string) error {
	if profile == "" || profile == "none" {
		profile = "drops"
	}
	sched, err := fault.Preset(profile, seed, dur)
	if err != nil {
		return err
	}
	t0 := time.Now()
	plainRep, err := testbed.NewScenario(
		testbed.WithSeed(seed), testbed.WithPath(testbed.PathUMTS),
		testbed.WithWorkload(testbed.WorkloadVoIP), testbed.WithDuration(dur),
	).Run()
	if err != nil {
		return err
	}
	plain := plainRep.Results[0]
	empty, err := testbed.NewScenario(
		testbed.WithSeed(seed), testbed.WithPath(testbed.PathUMTS),
		testbed.WithWorkload(testbed.WorkloadVoIP), testbed.WithDuration(dur),
		testbed.WithFaults(fault.Schedule{}),
	).Run()
	if err != nil {
		return err
	}
	baseline := empty.Results[0]
	identical := reflect.DeepEqual(plain.Decoded, baseline.Decoded) &&
		reflect.DeepEqual(plain.Metrics.Counters, baseline.Metrics.Counters)

	faulted, err := testbed.NewScenario(
		testbed.WithSeed(seed), testbed.WithPath(testbed.PathUMTS),
		testbed.WithWorkload(testbed.WorkloadVoIP), testbed.WithDuration(dur),
		testbed.WithFaults(sched), testbed.WithSelfHeal(nil),
	).Run()
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	res := faulted.Results[0]
	drops := 0
	for _, w := range res.Outages {
		if w.Kind == fault.KindCarrierDrop {
			drops++
		}
	}
	c := res.Metrics.Counters
	rep := faultBenchReport{
		NumCPU:            runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Profile:           profile,
		FlowS:             dur.Seconds(),
		BaselineIdentical: identical,
		Drops:             drops,
		FaultsInjected:    c["fault/injected"],
		RedialAttempts:    supCounterSum(c, "/attempts"),
		Recoveries:        supCounterSum(c, "/recoveries"),
		GiveUps:           supCounterSum(c, "/give_ups"),
		DowntimeS:         res.Status.Downtime.Seconds(),
		Availability:      res.Status.Availability,
		ReceivedClean:     int64(plain.Decoded.Received),
		ReceivedFaulty:    int64(res.Decoded.Received),
		WallS:             wall.Seconds(),
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench-fault: %s over %v: baseline identical=%v; %d drops, %d injected, %d attempts, %d recoveries, %d give-ups, downtime %.1f s, availability %.4f, received %d clean vs %d faulted -> %s\n",
		profile, dur, identical, drops, rep.FaultsInjected, rep.RedialAttempts,
		rep.Recoveries, rep.GiveUps, rep.DowntimeS, rep.Availability,
		rep.ReceivedClean, rep.ReceivedFaulty, path)
	return nil
}

// runMultiCell reproduces the scale-out scenario and prints one QoS
// line per flow. The report is identical for every -shards and
// -shard-policy value — those flags only change how the wall-clock
// work is partitioned and synchronized. With -metrics, each shard's
// snapshot is dumped keyed by shard index; the shard/* instruments
// there (windows, windows_released, the horizon_stride_ns histogram)
// are where a policy's windowing behavior is visible.
func runMultiCell(seed int64, cells, terminals, shards, fleetIdle, population int, metricsOut string) error {
	opts := []testbed.ScenarioOption{
		testbed.WithSeed(seed), testbed.WithCells(cells, terminals),
		testbed.WithShards(shards), testbed.WithShardPolicy(shardPolicy),
		testbed.WithDuration(dur), testbed.WithFaults(faultSched),
		testbed.WithAnalysis(analysisCfg),
	}
	if selfHeal {
		opts = append(opts, testbed.WithSelfHeal(nil))
	}
	if fleetIdle > 0 {
		opts = append(opts, testbed.WithIdleTerminals(fleetIdle))
	}
	if population > 0 {
		opts = append(opts, testbed.WithPopulation(population, nil))
	}
	rep, err := testbed.NewScenario(opts...).Run()
	if err != nil {
		return err
	}
	res := rep.MultiCell
	fmt.Printf("Multi-cell scale-out: %d cells x %d terminals on %d shard(s), %v windows\n",
		res.Opts.Cells, res.Opts.Terminals, res.Opts.Shards, shardPolicy)
	if res.IdleTerminals > 0 {
		fmt.Printf("idle fleet: %d compact terminals (%d per cell), powered on and registered, never dialing\n",
			res.IdleTerminals, fleetIdle)
	}
	for i, st := range res.Populations {
		fmt.Printf("cell %d population: %d modeled subscribers, carried %.0f B (util %.3f), dropped %.0f B\n",
			i, st.Subscribers, st.CarriedBytes, st.Utilization, st.DroppedBytes)
	}
	fmt.Printf("flows: %v each, lookahead %v, %d synchronization windows\n",
		res.Opts.Duration, res.Lookahead, res.Windows)
	for _, w := range res.Outages {
		fmt.Printf("fault: %v from %v to %v (per cell)\n", w.Kind, w.Start, w.End)
	}
	fmt.Printf("\n%-6s %-9s %9s %7s %7s %9s %9s %9s\n",
		"cell", "terminal", "setup(s)", "sent", "recv", "kbps", "jit(ms)", "rtt(ms)")
	for _, f := range res.Flows {
		fmt.Printf("%-6d %-9d %9.2f %7d %7d %9.1f %9.2f %9.1f\n",
			f.Cell, f.Terminal, f.SetupTime.Seconds(),
			f.Decoded.Sent, f.Decoded.Received, f.Decoded.AvgBitrateKbps,
			ms(f.Decoded.AvgJitter), ms(f.Decoded.AvgRTT))
	}
	merged := metrics.MergeSnapshots(res.Snapshots...)
	if b := merged.GaugeSum("itg/stream/", "/retained_bytes"); b > 0 {
		fmt.Printf("\nstreaming analysis (%v): %d records streamed, %.0f B retained across %d decoders\n",
			analysisCfg.Mode, merged.Counters["itg/records_streamed"], b, len(res.Flows))
	}
	if metricsOut != "" {
		out := map[string]metrics.Snapshot{}
		for i, snap := range res.Snapshots {
			out[fmt.Sprintf("shard%d", i)] = snap
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if metricsOut == "-" {
			_, err = os.Stdout.Write(b)
			return err
		}
		return os.WriteFile(metricsOut, b, 0o644)
	}
	return nil
}

// writeCSV emits one figure curve as "t_seconds,value" rows.
func writeCSV(dir string, fig figure, path testbed.Path, s stats.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "umts"
	if path == testbed.PathEthernet {
		kind = "eth"
	}
	name := filepath.Join(dir, fmt.Sprintf("fig%d-%s.csv", fig.id, kind))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# Figure %d: %s (%s), unit %s\n", fig.id, fig.title, path, fig.unit)
	fmt.Fprintf(f, "t_seconds,%s\n", fig.series)
	for _, p := range s {
		fmt.Fprintf(f, "%.3f,%.6g\n", p.T.Seconds(), p.V)
	}
	return nil
}

func printBearerEvents() {
	if r, ok := cache[cellKey{testbed.WorkloadCBR1M, testbed.PathUMTS, 0}]; ok {
		fmt.Println("\nbearer events (UMTS path, rep 0):")
		for _, e := range r.BearerEvents {
			fmt.Println("  " + e)
		}
	}
}

// printChecks evaluates the §3.2 narrative claims ("shape criteria").
func printChecks(seed int64) {
	fmt.Printf("\n================ Shape checks vs the paper ================\n")
	voipU, err := run(seed, testbed.WorkloadVoIP, testbed.PathUMTS, 0)
	if err != nil {
		return
	}
	voipE, err := run(seed, testbed.WorkloadVoIP, testbed.PathEthernet, 0)
	if err != nil {
		return
	}
	cbrU, err := run(seed, testbed.WorkloadCBR1M, testbed.PathUMTS, 0)
	if err != nil {
		return
	}
	cbrE, err := run(seed, testbed.WorkloadCBR1M, testbed.PathEthernet, 0)
	if err != nil {
		return
	}

	check := func(name string, ok bool, detail string) {
		mark := "PASS"
		if !ok {
			mark = "FAIL"
		}
		fmt.Printf("  [%s] %-58s %s\n", mark, name, detail)
	}

	du, de := voipU.Decoded, voipE.Decoded
	check("VoIP: both paths deliver the required 72 kbps on average",
		du.AvgBitrateKbps > 64 && de.AvgBitrateKbps > 64,
		fmt.Sprintf("umts=%.1f eth=%.1f kbps", du.AvgBitrateKbps, de.AvgBitrateKbps))
	check("VoIP: zero packet loss on both paths",
		du.Lost == 0 && de.Lost == 0,
		fmt.Sprintf("umts=%d eth=%d lost", du.Lost, de.Lost))
	check("VoIP: UMTS jitter higher and more fluctuating than Ethernet",
		du.AvgJitter > de.AvgJitter && du.MaxJitter > de.MaxJitter,
		fmt.Sprintf("umts avg=%.2fms max=%.1fms, eth avg=%.3fms max=%.2fms",
			ms(du.AvgJitter), ms(du.MaxJitter), ms(de.AvgJitter), ms(de.MaxJitter)))
	uBR := voipU.Decoded.BitrateSeries().Summarize()
	eBR := voipE.Decoded.BitrateSeries().Summarize()
	check("VoIP: UMTS bitrate more fluctuating than Ethernet (std of windows)",
		uBR.Std() > 2*eBR.Std(),
		fmt.Sprintf("std umts=%.2f eth=%.2f kbps", uBR.Std(), eBR.Std()))
	uRTT := voipU.Decoded.RTTSeries().Summarize()
	eRTT := voipE.Decoded.RTTSeries().Summarize()
	check("VoIP: UMTS RTT more fluctuating than Ethernet (std of windows)",
		uRTT.Std() > 5*eRTT.Std(),
		fmt.Sprintf("std umts=%.1fms eth=%.3fms", uRTT.Std()*1000, eRTT.Std()*1000))
	check("VoIP: UMTS RTT higher, fluctuating up to ~700 ms",
		du.AvgRTT > de.AvgRTT && du.MaxRTT > 400*time.Millisecond && du.MaxRTT < time.Second,
		fmt.Sprintf("umts avg=%.0fms max=%.0fms, eth avg=%.0fms", ms(du.AvgRTT), ms(du.MaxRTT), ms(de.AvgRTT)))

	cu, ce := cbrU.Decoded, cbrE.Decoded
	br := cu.BitrateSeries()
	early := br.Before(45 * time.Second).Mean()
	late := br.After(55 * time.Second).Mean()
	check("CBR: UMTS uplink saturates around 400 kbps (max capacity)",
		late > 350 && late < 430,
		fmt.Sprintf("late-phase bitrate %.1f kbps", late))
	check("CBR: first ~50 s at ~150 kbps, then more than doubled",
		early > 130 && early < 175 && late > 2*early,
		fmt.Sprintf("%.1f -> %.1f kbps", early, late))
	check("CBR: UMTS jitter exceeds 200 ms under saturation",
		cu.MaxJitter > 200*time.Millisecond,
		fmt.Sprintf("max jitter %.0f ms", ms(cu.MaxJitter)))
	check("CBR: UMTS RTT as large as ~3 s",
		cu.MaxRTT > 2*time.Second && cu.MaxRTT < 4500*time.Millisecond,
		fmt.Sprintf("max RTT %.2f s", cu.MaxRTT.Seconds()))
	check("CBR: heavy loss on UMTS, none on Ethernet",
		cu.Lost > cu.Sent/2 && ce.Lost == 0,
		fmt.Sprintf("umts %d/%d lost, eth %d lost", cu.Lost, cu.Sent, ce.Lost))
	check("Ethernet carries the full 1 Mbps cleanly",
		ce.AvgBitrateKbps > 950,
		fmt.Sprintf("%.1f kbps", ce.AvgBitrateKbps))
	check("Ethernet beats UMTS on every QoS metric (both workloads)",
		du.AvgRTT > de.AvgRTT && du.AvgJitter > de.AvgJitter &&
			cu.AvgRTT > ce.AvgRTT && cu.AvgJitter > ce.AvgJitter && cu.Lost > ce.Lost,
		"")

	upgraded := false
	for _, e := range cbrU.BearerEvents {
		if strings.Contains(e, "upgraded") {
			upgraded = true
		}
	}
	check("CBR: network-side adaptation event observed (~50 s)", upgraded,
		strings.Join(cbrU.BearerEvents, "; "))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
