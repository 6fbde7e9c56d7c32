package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"github.com/onelab/umtslab/internal/control"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/testbed"
)

// phase is one measured stretch of a run. Its samples are per
// operation: a whole iteration of a batch workload, or one job of the
// serve workload.
type phase struct {
	wall, cpu, alloc []float64 // seconds, seconds, MB
	late             []float64 // how late each operation started, seconds
	elapsed          float64   // host time of the whole phase, seconds
	attempted        int
	failed           int
	problems         []string
	snap             metrics.Snapshot // merged work counters, when requested
	report           *testbed.Report  // input for the encode kernel
}

func (p *phase) fail(ops int, format string, args ...any) {
	p.failed += ops
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// batch runs the legs of a batch workload as iterations.
type batch struct {
	docs    [][]byte // one iteration's spec documents
	specs   []*testbed.Spec
	probes  [][]byte
	shards1 [][]byte // the multi-cell legs on one shard
	dynamic [][]byte // the multi-cell legs under the dynamic window policy
	ref     [][]byte // the first iteration's reports
}

func newBatch(w *workload, seed int64, small bool) (*batch, error) {
	b := &batch{}
	s := specSeed(seed, 0)
	for _, t := range w.templates(small) {
		b.docs = append(b.docs, specDoc(t, s, nil))
		b.probes = append(b.probes, specDoc(t, s, probeOverride))
		if strings.Contains(t, `"cells"`) {
			b.shards1 = append(b.shards1, specDoc(t, s, map[string]any{"shards": 1}))
			b.dynamic = append(b.dynamic, specDoc(t, s, map[string]any{"shard_policy": "dynamic"}))
		}
	}
	var err error
	if b.specs, err = parseDocs(b.docs); err != nil {
		return nil, err
	}
	for _, extra := range [][][]byte{b.probes, b.shards1, b.dynamic} {
		if _, err := parseDocs(extra); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// runDoc runs one spec document through the program's wire-level
// surface: ParseSpec, Spec.Scenario, Scenario.Run and EncodeReport.
func runDoc(doc []byte, tr *tracer, parent int, dump func(metrics.Snapshot)) ([]byte, *testbed.Report, error) {
	id := tr.begin("spec.parse", parent, 0)
	spec, err := testbed.ParseSpec(doc)
	var sc *testbed.Scenario
	if err == nil {
		sc, err = spec.Scenario()
	}
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	if dump != nil {
		testbed.WithMetricsDump(dump)(sc)
	}
	id = tr.begin("scenario.run", parent, 0)
	rep, err := sc.Run()
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("report.encode", parent, 0)
	enc, err := control.EncodeReport(rep)
	tr.end(id)
	return enc, rep, err
}

func runDocs(docs [][]byte, tr *tracer, parent int, dump func(metrics.Snapshot)) ([][]byte, *testbed.Report, error) {
	outs := make([][]byte, len(docs))
	var first *testbed.Report
	for i, d := range docs {
		enc, rep, err := runDoc(d, tr, parent, dump)
		if err != nil {
			return nil, nil, fmt.Errorf("spec %s: %w", d, err)
		}
		outs[i] = enc
		if i == 0 {
			first = rep
		}
	}
	return outs, first, nil
}

// probe times one set-up probe of every leg.
func (b *batch) probe(tr *tracer) (float64, error) {
	id := tr.begin("probe", -1, 0)
	start := time.Now()
	_, _, err := runDocs(b.probes, tr, id, nil)
	elapsed := time.Since(start).Seconds()
	tr.end(id)
	return elapsed, err
}

// measure runs iterations until the next one would end after seconds,
// and at least minIters. The first iteration ever run becomes the
// reference that every later one, traced or not, must reproduce byte for
// byte. A traced phase is profiled and collects every run's metrics.
func (b *batch) measure(seconds float64, minIters int, tr *tracer) (*phase, error) {
	ph := &phase{}
	var snaps []metrics.Snapshot
	var dump func(metrics.Snapshot)
	if tr != nil {
		dump = func(s metrics.Snapshot) { snaps = append(snaps, s) }
	}
	ops := 0
	for _, sp := range b.specs {
		ops += opsOf(sp)
	}
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	start := time.Now()
	prevEnd, last := start, 0.0
	for i := 0; i < minIters || time.Since(start).Seconds()+last <= seconds; i++ {
		ph.late = append(ph.late, time.Since(prevEnd).Seconds())
		ph.attempted += ops
		id := tr.begin("iteration", -1, 0)
		m := startMeter()
		outs, rep, err := runDocs(b.docs, tr, id, dump)
		s := m.stop()
		tr.end(id)
		prevEnd, last = time.Now(), s.wall
		if err != nil {
			ph.fail(ops, "iteration %d: %v", i, err)
			continue
		}
		ph.wall = append(ph.wall, s.wall)
		ph.cpu = append(ph.cpu, s.cpu)
		ph.alloc = append(ph.alloc, s.allocMB)
		ph.report = rep
		if b.ref == nil {
			b.ref = outs
			continue
		}
		for leg, out := range outs {
			if !bytes.Equal(out, b.ref[leg]) {
				ph.fail(opsOf(b.specs[leg]), "iteration %d leg %d: report differs from the reference run", i, leg)
			}
		}
	}
	ph.elapsed = time.Since(start).Seconds()
	tr.stopProfile()
	ph.snap = metrics.MergeSnapshots(snaps...)
	return ph, nil
}

// check decodes the reference reports and applies the output checks.
func (b *batch) check(ph *phase, shape bool) error {
	for leg, enc := range b.ref {
		res, err := decodeResult(enc)
		if err != nil {
			return err
		}
		for _, msg := range checkResult(b.specs[leg], res, shape) {
			ph.fail(1, "%s", msg)
		}
	}
	return nil
}

// layouts reruns the multi-cell legs on one shard and, with dynamic set,
// under the dynamic window policy. Each rerun is one more operation and
// must reproduce the reference bytes, since neither the shard count nor
// the policy may change results. It returns the reruns' wall times.
func (b *batch) layouts(ph *phase, dynamic bool) ([]float64, error) {
	if b.ref == nil {
		return nil, nil // every iteration failed, and each is counted already
	}
	runs := [][][]byte{b.shards1}
	if dynamic {
		runs = append(runs, b.dynamic)
	}
	var walls []float64
	for _, docs := range runs {
		if len(docs) == 0 {
			continue
		}
		m := startMeter()
		outs, _, err := runDocs(docs, nil, -1, nil)
		walls = append(walls, m.stop().wall)
		if err != nil {
			return nil, err
		}
		ph.attempted++
		for leg, out := range outs {
			if !bytes.Equal(out, b.ref[leg]) {
				ph.fail(1, "leg %d: report differs between shard layouts or policies", leg)
			}
		}
	}
	return walls, nil
}
