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
//	            [-workers N] [-every 5] [-summary-only] [-csv dir]
//	            [-metrics file]
//	            [-cells K] [-terminals M] [-shards S]
//	            [-fleet N] [-population P]
//	            [-analysis stream-only]
//	            [-fault-profile name] [-self-heal]
//	            [-serve :port] [-spec file.json]
//	            [-cpuprofile file] [-memprofile file]
//
// The flags describe one experiment as a testbed.Spec, the same
// document -spec reads and -serve accepts, checked by Spec.Validate
// (exit status 2 on error): a flag left at its default leaves its
// spec field at the zero value, except -dur (the paper's 120 s in both
// modes) and -terminals (one per cell), a flag that only -cells uses
// is rejected without -cells, and one that only the figure mode uses
// (-figure, -reps, -every, -csv, -summary-only, -workers) is rejected
// with -cells. The figure mode runs that spec once
// per (workload, path) cell with -reps repetitions; the -cells mode
// runs it on the shard engine.
//
// -spec takes the whole experiment from the document, so a flag that
// sets a Spec field (-seed, -dur, -reps, -workers, -fault-profile,
// -self-heal, -analysis, -cells, -terminals, -fleet, -population,
// -shards) is rejected beside it. -spec exits 2 when the document
// cannot be read or is refused, and 1 when its run fails.
//
// -serve turns the binary into a long-lived measurement service: an
// HTTP/JSON control plane (internal/control) that accepts declarative
// testbed specs at POST /v1/jobs, runs them on a bounded worker pool,
// streams live QoS windows over SSE at /v1/jobs/{id}/stream, and
// exposes service counters plus per-job simulation metrics at
// /v1/metrics. It binds before it prints the address it listens on (so
// -serve 127.0.0.1:0 reports the port it got), and reads only -workers
// and the profile flags: any run flag beside it exits 2.
// SIGINT/SIGTERM drains the queue before exit. -spec runs one spec
// document in-process and prints the same canonical result encoding,
// so service and one-shot results can be compared byte-for-byte.
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
// stdout); it exits 2 beside -spec and -serve (the service serves its
// metrics at /v1/metrics). -cpuprofile/-memprofile write pprof profiles of whichever
// mode ran. Wall time, CPU and memory are measured by the separate
// bench/ module (`make bench`), not by this command.
//
// -fault-profile injects a named deterministic fault preset (drops,
// fades, degrade, regloss, flaps, flaky — see internal/fault.Preset)
// into every run, scaled to the flow duration; -self-heal runs the
// umts backend in recover mode, so carrier drops degrade the
// connection and a supervised redial re-establishes it instead of
// failing the slice.
//
// Every flow is decoded live, in one pass, into one QoS report; no
// mode keeps per-packet logs. Its P95/P99 are exact by default, at 8 B
// per delay/RTT sample. -analysis stream-only sketches them instead, so
// analysis memory stays O(windows + flows) however long the flow runs;
// batch and stream are accepted and mean exact.
//
// -cells K switches to the scale-out scenario instead of the paper
// figures: K cells x M terminals (-terminals) run as one simulation,
// partitioned over S shards (-shards; default one shard per cell plus
// one for the wired core) by the conservative parallel engine in
// internal/sim/shard. The per-flow QoS summary is identical for every
// shard count.
//
// -fleet N powers on N additional compact idle terminals per cell
// (registered, never dialing; the full node stack materializes only on
// first dial) and -population P attaches P modeled background
// subscribers per cell as one aggregate fluid ensemble — together they
// scale a -cells run to 100k+ subscribers.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/onelab/umtslab/internal/metrics"
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

// paperCell is one (workload, path) cell of the paper's evaluation.
type paperCell struct {
	wl   testbed.Workload
	path testbed.Path
}

var paths = []testbed.Path{testbed.PathUMTS, testbed.PathEthernet}

// runFigures runs every cell the report consults (the selected
// figures' cells at reps repetitions, plus rep 0 of the four paper
// cells that the §3.2 shape checks read) and returns each cell's
// results in repetition order. Each cell runs base with its path,
// workload and repetition count set, so repetition r runs with
// RepSeed(seed, r) under the one fault schedule drawn from the base
// seed. The cells run side by side on the worker pool, each spreading
// its repetitions over its share of the workers; every repetition owns
// a private loop, so the report is byte-identical for any -workers.
func runFigures(base testbed.Spec, sel []figure, reps, workers int) (map[paperCell][]*testbed.ExperimentResult, error) {
	var cells []paperCell
	n := map[paperCell]int{}
	add := func(c paperCell, reps int) {
		if _, ok := n[c]; !ok {
			cells = append(cells, c)
		}
		n[c] = max(n[c], reps)
	}
	for _, fig := range sel {
		for _, path := range paths {
			add(paperCell{fig.workload, path}, reps)
		}
	}
	for _, wl := range []testbed.Workload{testbed.WorkloadVoIP, testbed.WorkloadCBR1M} {
		for _, path := range paths {
			add(paperCell{wl, path}, 1)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	side := min(workers, len(cells))
	scs := make([]*testbed.Scenario, len(cells))
	for i, c := range cells {
		spec := base
		spec.Path, spec.Workload, spec.Reps = c.path.Name(), c.wl.Name(), n[c]
		if spec.Reps > 1 {
			spec.Workers = workers / side
		}
		sc, err := spec.Scenario()
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	reports, err := testbed.RunScenarios(scs, side)
	if err != nil {
		return nil, err
	}
	results := make(map[paperCell][]*testbed.ExperimentResult, len(cells))
	for i, c := range cells {
		results[c] = reports[i].Results
	}
	return results, nil
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
	dur := flag.Duration("dur", 120*time.Second, "flow duration (paper: 120 s)")
	reps := flag.Int("reps", 1, "repetitions per experiment (paper: 20)")
	seed := flag.Int64("seed", 1, "base simulation seed")
	every := flag.Int("every", 5, "print every Nth window of each series")
	noSeries := flag.Bool("summary-only", false, "suppress the series, print summaries only")
	csvDir := flag.String("csv", "", "also write each series as <dir>/figN-<path>.csv (plot-ready)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for repetitions (<=0: GOMAXPROCS)")
	metricsOut := flag.String("metrics", "", `write rep-0 metrics snapshots as JSON to this file ("-" for stdout)`)
	cells := flag.Int("cells", 0, "run the K-cell scale-out scenario instead of the paper figures")
	terminals := flag.Int("terminals", 1, "terminals per cell for -cells")
	fleetIdle := flag.Int("fleet", 0, "additional idle (never-dialing) compact terminals per cell for -cells")
	populationN := flag.Int("population", 0, "aggregate background subscribers per cell for -cells (fluid ensemble, O(1) cost)")
	shards := flag.Int("shards", 0, "shard count for -cells (0: one per cell plus the wired core)")
	analysis := flag.String("analysis", "", "QoS percentiles: exact by default; stream-only sketches them (constant memory); batch and stream mean exact")
	faultProfile := flag.String("fault-profile", "", "deterministic fault preset injected into every run: none (the default), drops, fades, degrade, regloss, flaps, flaky")
	selfHeal := flag.Bool("self-heal", false, "run the umts backend in recover mode (supervised redial instead of failing the slice)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	serveAddr := flag.String("serve", "", `run as a long-lived measurement service on this address (e.g. ":8080"): HTTP/JSON control plane accepting declarative specs at POST /v1/jobs`)
	specFile := flag.String("spec", "", `run one declarative JSON spec file ("-" for stdin) and print the canonical result document (byte-identical to the service's /v1/jobs/{id}/result)`)
	flag.Parse()

	spec := testbed.Spec{
		Seed:          *seed,
		Duration:      testbed.Duration(*dur),
		FaultProfile:  *faultProfile,
		SelfHeal:      *selfHeal,
		Analysis:      &testbed.AnalysisSpec{Mode: *analysis},
		Cells:         *cells,
		Shards:        *shards,
		IdleTerminals: *fleetIdle,
		Population:    *populationN,
	}
	// -terminals defaults to one terminal per cell; without -cells it
	// enters the spec, to be rejected, only when given. A flag that only
	// the figure mode reads is rejected with -cells, one that sets a
	// Spec field with -spec, -metrics with -spec and -serve, and every
	// flag that -serve does not read with -serve.
	serveRead := map[string]bool{"serve": true, "workers": true, "cpuprofile": true, "memprofile": true}
	figureOnly := map[string]bool{"figure": true, "reps": true, "every": true, "csv": true, "summary-only": true, "workers": true}
	specField := map[string]bool{"seed": true, "dur": true, "reps": true, "workers": true, "fault-profile": true, "self-heal": true,
		"analysis": true, "cells": true, "terminals": true, "fleet": true, "population": true, "shards": true}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "terminals" {
			spec.Terminals = *terminals
		}
		if *specFile != "" && specField[f.Name] {
			fmt.Fprintf(os.Stderr, "experiments: -%s: set by the -spec document (conflicts with -spec)\n", f.Name)
			os.Exit(2)
		}
		if f.Name == "metrics" && (*specFile != "" || *serveAddr != "") {
			fmt.Fprintln(os.Stderr, "experiments: -metrics: figure and -cells modes only (conflicts with -spec and -serve)")
			os.Exit(2)
		}
		if *serveAddr != "" && !serveRead[f.Name] {
			fmt.Fprintf(os.Stderr, "experiments: -%s: not read by the service, which takes each run from its job's spec (conflicts with -serve)\n", f.Name)
			os.Exit(2)
		}
		if *cells > 0 && figureOnly[f.Name] {
			fmt.Fprintf(os.Stderr, "experiments: -%s: figure mode only (conflicts with -cells)\n", f.Name)
			os.Exit(2)
		}
	})
	if spec.Cells > 0 {
		spec.Terminals = *terminals
	}
	if err := spec.Validate(); err != nil {
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

	if *serveAddr != "" {
		if err := runServe(*serveAddr, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *specFile != "" {
		sc, err := loadSpec(*specFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: spec: %v\n", err)
			os.Exit(2)
		}
		if err := runSpec(sc); err != nil {
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

	if spec.Cells > 0 {
		if err := runMultiCell(spec, *metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: multicell: %v\n", err)
			os.Exit(1)
		}
		return
	}

	results, err := runFigures(spec, selected, *reps, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("Reproduction of 'Providing UMTS connectivity to PlanetLab nodes' (ROADS'08)\n")
	fmt.Printf("flows: %v, window 200 ms, %d repetition(s), base seed %d\n", *dur, *reps, *seed)

	for _, fig := range selected {
		fmt.Printf("\n================ Figure %d: %s ================\n", fig.id, fig.title)
		for _, path := range paths {
			var sums stats.Summary
			var first stats.Series
			for rep := 0; rep < *reps; rep++ {
				s := seriesOf(results[paperCell{fig.workload, path}][rep], fig.series)
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
			printBearerEvents(results)
		}
	}

	printChecks(results)

	if *metricsOut != "" {
		// Rep 0 of every cell the run touched, keyed "workload|path".
		out := map[string]metrics.Snapshot{}
		for c, rs := range results {
			out[fmt.Sprintf("%v|%v", c.wl, c.path)] = rs[0].Metrics
		}
		if err := writeJSON(*metricsOut, out); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeJSON writes v as indented JSON to path ("-" for stdout).
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
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

// runMultiCell reproduces the scale-out scenario and prints one QoS
// line per flow. The report is identical for every -shards value —
// the flag only changes how the wall-clock work is partitioned. With
// -metrics, each shard's snapshot is dumped keyed by shard index; the
// shard/* instruments there (windows, messages, stall time, mailbox
// backlog) show the engine's synchronization.
func runMultiCell(spec testbed.Spec, metricsOut string) error {
	sc, err := spec.Scenario()
	if err != nil {
		return err
	}
	rep, err := sc.Run()
	if err != nil {
		return err
	}
	res := rep.MultiCell
	// The header names the -analysis value; its default is printed as
	// "batch", one of the names for exact percentiles.
	mode := cmp.Or(spec.Analysis.Mode, "batch")
	fmt.Printf("Multi-cell scale-out: %d cells x %d terminals on %d shard(s)\n",
		spec.Cells, len(res.Flows)/spec.Cells, res.Shards)
	if res.IdleTerminals > 0 {
		fmt.Printf("idle fleet: %d compact terminals (%d per cell), powered on and registered, never dialing\n",
			res.IdleTerminals, spec.IdleTerminals)
	}
	for i, st := range res.Populations {
		fmt.Printf("cell %d population: %d modeled subscribers, carried %.0f B (util %.3f), dropped %.0f B\n",
			i, st.Subscribers, st.CarriedBytes, st.Utilization, st.DroppedBytes)
	}
	fmt.Printf("flows: %v each, lookahead %v, %d synchronization windows\n",
		time.Duration(spec.Duration), res.Lookahead, res.Windows)
	for _, w := range rep.Outages {
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
	fmt.Printf("\nlive analysis (%v): %d records decoded, %.0f B retained across %d decoders\n",
		mode, merged.Counters["itg/records_streamed"], merged.GaugeSum("itg/stream/", "/retained_bytes"), len(res.Flows))
	if metricsOut == "" {
		return nil
	}
	out := map[string]metrics.Snapshot{}
	for i, snap := range res.Snapshots {
		out[fmt.Sprintf("shard%d", i)] = snap
	}
	return writeJSON(metricsOut, out)
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

func printBearerEvents(results map[paperCell][]*testbed.ExperimentResult) {
	fmt.Println("\nbearer events (UMTS path, rep 0):")
	for _, e := range results[paperCell{testbed.WorkloadCBR1M, testbed.PathUMTS}][0].BearerEvents {
		fmt.Println("  " + e)
	}
}

// printChecks evaluates the §3.2 narrative claims ("shape criteria")
// on rep 0 of the four paper cells.
func printChecks(results map[paperCell][]*testbed.ExperimentResult) {
	fmt.Printf("\n================ Shape checks vs the paper ================\n")
	rep0 := func(wl testbed.Workload, path testbed.Path) *testbed.ExperimentResult {
		return results[paperCell{wl, path}][0]
	}
	voipU := rep0(testbed.WorkloadVoIP, testbed.PathUMTS)
	voipE := rep0(testbed.WorkloadVoIP, testbed.PathEthernet)
	cbrU := rep0(testbed.WorkloadCBR1M, testbed.PathUMTS)
	cbrE := rep0(testbed.WorkloadCBR1M, testbed.PathEthernet)

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
