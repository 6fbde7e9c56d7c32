// Command bench is the repository's end-to-end and per-layer benchmark.
// It drives the testbed only through its wire-level surface (spec
// documents in, encoded reports out, or the control plane over loopback
// HTTP), checks every output, and prints one JSON result line.
//
//	bench -workload paper_voip -seed 1 -seconds 15 -trace 0   one workload
//	bench -seed 1 -out results.jsonl                          every workload, each in a child process
//	bench -compare parent.jsonl change.jsonl                  verdict per workload and metric
//
// bash bench/run.sh builds it from the checkout and passes its flags on.
// README.md describes the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units and directions, and the end-to-end bounds.
type metricDef struct {
	name, unit, better string
	// bound is how far an end-to-end metric may worsen, as a share of
	// the parent's median, before a change counts as a regression.
	bound float64
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.08},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{name: l + ".cpu_pct", unit: "%", better: "lower"})
	}
	kernels := []string{
		"sim.event", "netsim.marshal", "netsim.unmarshal", "iproute.resolve", "netfilter.traverse",
		"ppp.frame", "ppp.deframe", "itg.decode", "stats.sketch_add", "control.encode", "bufpool.getput",
	}
	for _, k := range kernels {
		per := map[string]string{"_per_kb": "/KB", "_per_pkt": "/pkt", "": "/op"}[kernelSuffix(k)]
		defs = append(defs,
			metricDef{name: k + "_ns" + kernelSuffix(k), unit: "ns" + per, better: "lower"},
			metricDef{name: k + "_allocs" + kernelSuffix(k), unit: "allocs" + per, better: "lower"})
	}
	return append(defs, []metricDef{
		{name: "unattributed.cpu_pct", unit: "%", better: "lower"},
		{name: "sim.events", unit: "count", better: "lower"},
		{name: "netsim.packets", unit: "count", better: "lower"},
		{name: "ppp.frames", unit: "count", better: "lower"},
		{name: "ppp.retransmits", unit: "count", better: "lower"},
		{name: "umts.chunks", unit: "count", better: "lower"},
		{name: "umts.queue_drops", unit: "count", better: "lower"},
		{name: "itg.packets", unit: "count", better: "lower"},
		{name: "shard.windows", unit: "count", better: "lower"},
		{name: "shard.msgs", unit: "count", better: "lower"},
		{name: "shard.stall_pct", unit: "%", better: "lower"},
		{name: "bufpool.gets", unit: "count", better: "lower"},
		{name: "bufpool.hit_ratio", unit: "ratio", better: "higher"},
		{name: "sim.est_s", unit: "s", better: "lower"},
		{name: "ppp.est_s", unit: "s", better: "lower"},
		{name: "itg.est_s", unit: "s", better: "lower"},
		{name: "op.count", unit: "count", better: "higher"},
		{name: "op.p50_ms", unit: "ms", better: "lower"},
		{name: "op.p99_ms", unit: "ms", better: "lower"},
		{name: "op.late_p99_ms", unit: "ms", better: "lower"},
		{name: "shard.speedup_vs_1shard", unit: "ratio", better: "higher"},
		{name: "shard.dynamic_wall_ratio", unit: "ratio", better: "lower"},
		{name: "trace.overhead_s", unit: "s", better: "lower"},
	}...)
}()

// opts are one workload run's settings.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // where a traced run writes its trace and layer files
	// small shrinks everything for this package's tests: the workloads'
	// small legs, one iteration, one probe, five serve jobs and short
	// kernel timings.
	small bool
}

func (o opts) probes() (minN, maxN int, budget time.Duration) {
	if o.small {
		return 1, 1, 0
	}
	// The cap lets sub-millisecond probes fill the budget, so that their
	// median spans two seconds of the host rather than its first 0.1 s.
	return 10, 2000, 2 * time.Second
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	problems          []string
	gates             []string // failed gates of a traced run
	metrics           map[string]float64
}

func (o *outcome) add(ph *phase) {
	o.attempted += ph.attempted
	o.failed += ph.failed
	o.problems = append(o.problems, ph.problems...)
}

// runner is what a batch workload and the serve workload both provide.
type runner struct {
	probe   func(tr *tracer) (float64, error)
	measure func(seconds float64, tr *tracer) (*phase, error)
	// check applies the output checks to the phase that first ran the
	// workload (the serve workload checks inside measure); dynamic also
	// reruns multi-cell legs under the dynamic policy. It returns the wall
	// times of the multi-cell reruns.
	check func(ph *phase, dynamic bool) ([]float64, error)
}

func newRunner(w *workload, o opts) (*runner, error) {
	minIters := 3
	if o.small || o.trace {
		minIters = 1
	}
	if w.serve {
		jobs := 0
		if o.small {
			jobs = 5
		}
		s, err := newServeLoad(w, o.seed, max(jobs, int(serveRate*o.seconds)), o.small)
		if err != nil {
			return nil, err
		}
		return &runner{
			probe: s.probe,
			measure: func(seconds float64, tr *tracer) (*phase, error) {
				return s.measure(seconds, jobs, tr)
			},
			check: func(*phase, bool) ([]float64, error) { return nil, nil },
		}, nil
	}
	b, err := newBatch(w, o.seed, o.small)
	if err != nil {
		return nil, err
	}
	return &runner{
		probe: b.probe,
		measure: func(seconds float64, tr *tracer) (*phase, error) {
			return b.measure(seconds, minIters, tr)
		},
		check: func(ph *phase, dynamic bool) ([]float64, error) {
			if err := b.check(ph, !o.small); err != nil {
				return nil, err
			}
			return b.layouts(ph, dynamic)
		},
	}, nil
}

// run measures one workload. An error means the benchmark itself could
// not run; failed operations and checks are counted in the outcome.
func run(w *workload, o opts) (*outcome, error) {
	r, err := newRunner(w, o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return runTraced(w, r, o)
	}
	minN, maxN, budget := o.probes()
	var setup []float64
	for start := time.Now(); len(setup) < maxN && (len(setup) < minN || time.Since(start) < budget); {
		t, err := r.probe(nil)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		setup = append(setup, t)
	}
	ph, err := r.measure(o.seconds, nil)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if _, err := r.check(ph, false); err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{
		"wall_s":      median(ph.wall),
		"cpu_s":       median(ph.cpu),
		"setup_s":     median(setup),
		"alloc_mb":    median(ph.alloc),
		"peak_rss_mb": rss,
	}}
	out.add(ph)
	return out, nil
}

// runTraced measures the workload untraced for half the run, then traced
// for the other half with spans and a CPU profile, and derives the
// per-layer metrics. It fails unless the traced run reproduces the
// untraced reports and the profile accounts for the measured CPU time to
// within 10%.
func runTraced(w *workload, r *runner, o opts) (*outcome, error) {
	base, err := r.measure(o.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	walls, err := r.check(base, true)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	for i := 0; i < 3; i++ {
		if _, err := r.probe(tr); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
	}
	traced, err := r.measure(o.seconds/2, tr)
	if err != nil {
		return nil, err
	}
	p, err := decodeCPUProfile(tr.prof.Bytes())
	if err != nil {
		return nil, err
	}
	budget := 50 * time.Millisecond
	if o.small {
		budget = time.Millisecond
	}
	report := base.report
	if report == nil {
		report = traced.report
	}
	kern, err := runKernels(w.payload, report, budget)
	if err != nil {
		return nil, err
	}

	out := &outcome{metrics: kern}
	out.add(base)
	out.add(traced)
	m := out.metrics
	for _, l := range layers {
		m[l+".cpu_pct"] = 100 * p.byLayer[l].Seconds() / max(p.total.Seconds(), 1e-9)
	}
	cpu := tr.cpu
	m["unattributed.cpu_pct"] = 100 * (cpu - p.total).Seconds() / max(cpu.Seconds(), 1e-9)
	// The closure gate needs enough samples (100 Hz) for a 10% error to
	// be meaningful; tiny test runs report the share without gating.
	if gap := m["unattributed.cpu_pct"]; p.samples >= 400 && (gap > 10 || gap < -10) {
		out.gate("CPU profile covers %v of %v measured CPU (%.1f%% unattributed), want within 10%%", p.total, cpu, gap)
	}

	ops := float64(max(len(traced.wall), 1))
	c := traced.snap
	per := func(v int64) float64 { return float64(v) / ops }
	m["sim.events"] = per(c.Counter("sim/events_fired"))
	m["netsim.packets"] = per(c.CounterSum("netsim/", "/tx_packets"))
	txFrames, rxFrames := per(c.Counter("ppp/tx_frames")), per(c.Counter("ppp/rx_frames"))
	m["ppp.frames"] = txFrames + rxFrames
	m["ppp.retransmits"] = per(c.Counter("ppp/retransmits"))
	m["umts.chunks"] = per(c.CounterSum("umts/", "/tx_chunks"))
	m["umts.queue_drops"] = per(c.CounterSum("umts/", "/queue_drops"))
	m["itg.packets"] = per(c.Counter("itg/packets_sent"))
	m["shard.windows"] = per(c.Counter("shard/windows"))
	m["shard.msgs"] = per(c.Counter("shard/msgs_out"))
	m["shard.stall_pct"] = 100 * float64(c.Counter("shard/stall_wall_ns")) / 1e9 / max(traced.elapsed, 1e-9)
	gets := c.Counter("bufpool/gets")
	m["bufpool.gets"] = per(gets)
	m["bufpool.hit_ratio"] = 1 - float64(c.Counter("bufpool/misses"))/float64(max(gets, 1))

	// Estimated layer time per operation: work count × kernel cost.
	frameKB := float64(w.payload+30) / 1024
	m["sim.est_s"] = m["sim.events"] * m["sim.event_ns"] * 1e-9
	m["ppp.est_s"] = (txFrames*m["ppp.frame_ns_per_kb"] + rxFrames*m["ppp.deframe_ns_per_kb"]) * frameKB * 1e-9
	m["itg.est_s"] = m["itg.packets"] * m["itg.decode_ns_per_pkt"] * 1e-9

	m["op.count"] = float64(len(base.wall))
	m["op.p50_ms"] = 1e3 * median(base.wall)
	m["op.p99_ms"] = 1e3 * percentile(base.wall, 99)
	m["op.late_p99_ms"] = 1e3 * percentile(base.late, 99)
	m["trace.overhead_s"] = median(traced.wall) - median(base.wall)
	m["shard.speedup_vs_1shard"], m["shard.dynamic_wall_ratio"] = 0, 0
	if len(walls) == 2 {
		m["shard.speedup_vs_1shard"] = walls[0] / median(base.wall)
		m["shard.dynamic_wall_ratio"] = walls[1] / median(base.wall)
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := tr.writeChrome(stem + ".trace.json"); err != nil {
		return nil, err
	}
	return out, writeJSONFile(stem+".layers.json", map[string]any{
		"workload": w.name, "seed": o.seed, "env": environment(),
		"profile_samples": p.samples, "gates": out.gates, "metrics": m,
	})
}

func (o *outcome) gate(format string, args ...any) {
	o.gates = append(o.gates, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the machine a result was measured on.
type env struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func environment() env {
	return env{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// record is one line of a results file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	env
	result
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		name    = flag.String("workload", "", "run this workload only (default: every workload, each in a child process)")
		seed    = flag.Int64("seed", 1, "derives every spec seed and the serve job mix")
		seconds = flag.Int("seconds", 15, "length of the measured phase, in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		outFile = flag.String("out", "", "append one record per workload run to this JSON Lines file")
		outDir  = flag.String("outdir", ".bench_build/out", "directory for the trace and per-layer files of traced runs")
		compare = flag.Bool("compare", false, "compare two results files: -compare parent.jsonl change.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare takes two results files: parent then change")
		}
		ok, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		log.Fatalf("-trace is 0 or 1, not %d", *trace)
	}
	if n := runtime.NumCPU(); n < 2 {
		log.Fatalf("needs at least 2 CPUs, this machine has %d: the workloads are sized for two", n)
	}
	runtime.GOMAXPROCS(2)
	if *name == "" {
		if !runAll(*seed, *seconds, *trace, *outFile, *outDir) {
			os.Exit(1)
		}
		return
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		log.Fatal(err)
	}
	o := opts{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, outDir: *outDir}
	out, err := run(w, o)
	if err != nil {
		log.Fatalf("%s: %v", w.name, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && len(out.gates) == 0,
		Attempted: out.attempted,
		Failed:    min(out.failed, out.attempted),
		Metrics:   map[string]metric{},
	}
	e := environment()
	fmt.Printf("workload %s  seed %d  trace %v  %s  num_cpu %d  gomaxprocs %d\n",
		w.name, o.seed, o.trace, e.GoVersion, e.NumCPU, e.GOMAXPROCS)
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			log.Fatalf("%s: metric %s was not measured", w.name, d.name)
		}
		if math.IsNaN(v) {
			v = 0 // no operation succeeded, so the run is reported incorrect
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, p := range append(out.problems, out.gates...) {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
	}
	if *outFile != "" {
		if err := appendRecord(*outFile, record{Workload: w.name, Seed: o.seed, Trace: o.trace, env: e, result: res}); err != nil {
			log.Fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a child process of its own, so that peak
// RSS and GC state are per workload, and prints their metrics. It stops
// at the first child that exits non-zero.
func runAll(seed int64, seconds, trace int, outFile, outDir string) bool {
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-outdir", outDir}
		if outFile != "" {
			args = append(args, "-out", outFile)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			log.Printf("%s: %v; stopping", w.name, err)
			return false
		}
	}
	return true
}
