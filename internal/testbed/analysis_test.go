package testbed

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/itg"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/stats"
)

// stripPct zeroes the sketched percentile fields so everything else can
// be compared with DeepEqual in sketch mode.
func stripPct(r *itg.Result) *itg.Result {
	if r == nil {
		return nil
	}
	c := *r
	c.P95Delay, c.P99Delay, c.P95RTT, c.P99RTT = 0, 0, 0, 0
	return &c
}

// pctWithin asserts a sketched percentile against its exact counterpart
// within the declared relative-error bound (plus a small absolute slack
// for the sketch's sub-nanosecond quantization of tiny samples).
func pctWithin(t *testing.T, name string, got, exact time.Duration, relErr float64) {
	t.Helper()
	tol := time.Duration(relErr*float64(exact)) + 2*time.Millisecond
	diff := got - exact
	if diff < 0 {
		diff = -diff
	}
	if diff > tol {
		t.Errorf("%s: sketch %v vs exact %v (diff %v > tol %v)", name, got, exact, diff, tol)
	}
}

// TestScenarioStreamExactMatchesBatch runs the paper's single-cell UMTS
// cell under each analysis name that means exact percentiles — "batch"
// and "stream": each must decode the very report the default run of the
// same seed decodes. (The live decode's equivalence with a batch decode
// of full logs is TestLiveDecodeMatchesDecodeOverLink's.)
func TestScenarioStreamExactMatchesBatch(t *testing.T) {
	def := runSpec(t, Spec{Seed: 7, Duration: Duration(20 * time.Second)}).Results[0]
	if def.Decoded.Received == 0 {
		t.Fatal("default run decoded no packets")
	}
	for _, a := range []AnalysisSpec{{Mode: "batch"}, {Mode: "stream"}} {
		res := runSpec(t, Spec{Seed: 7, Duration: Duration(20 * time.Second), Analysis: &a}).Results[0]
		if !reflect.DeepEqual(res.Decoded, def.Decoded) {
			t.Errorf("analysis %+v decoded a different report than the default run of the same seed:\ngot:     %+v\ndefault: %+v",
				a, res.Decoded, def.Decoded)
		}
	}
	if n := def.Metrics.Counter("itg/records_streamed"); n == 0 {
		t.Error("itg/records_streamed counter is zero")
	}
	if g := def.Metrics.Gauge("itg/stream/flow1/retained_bytes"); g.Value <= 0 {
		t.Error("retained_bytes gauge not recorded")
	}
}

// TestScenarioStreamSketchBound runs the sketched analysis
// ("stream-only") against the default exact run of the same seed:
// counts, bytes, per-window series, and loss match exactly; only
// P95/P99 are estimates, which must land within the declared bound.
func TestScenarioStreamSketchBound(t *testing.T) {
	exact := runSpec(t, Spec{Seed: 9, Duration: Duration(20 * time.Second)}).Results[0].Decoded
	sketched := runSpec(t, Spec{
		Seed: 9, Duration: Duration(20 * time.Second),
		Analysis: &AnalysisSpec{Mode: "stream-only"},
	}).Results[0].Decoded
	if !reflect.DeepEqual(stripPct(sketched), stripPct(exact)) {
		t.Error("sketch mode: non-percentile fields differ from the exact run")
	}
	if reflect.DeepEqual(sketched, exact) {
		t.Error("sketch mode reported the exact percentiles: no sketch was used")
	}
	relErr := stats.DefaultSketchRelErr
	pctWithin(t, "P95Delay", sketched.P95Delay, exact.P95Delay, relErr)
	pctWithin(t, "P99Delay", sketched.P99Delay, exact.P99Delay, relErr)
	pctWithin(t, "P95RTT", sketched.P95RTT, exact.P95RTT, relErr)
	pctWithin(t, "P99RTT", sketched.P99RTT, exact.P99RTT, relErr)
}

// TestScenarioStreamOnlyMatchesSeparateBatchRun runs "stream-only" and
// still must produce the report the default run of the same seed
// produces, percentiles aside, from the same records — the determinism
// contract makes the two runs' traffic identical, so this is a true
// equivalence check.
func TestScenarioStreamOnlyMatchesSeparateBatchRun(t *testing.T) {
	batch := runSpec(t, Spec{Seed: 5, Duration: Duration(15 * time.Second)})
	streamOnly := runSpec(t, Spec{
		Seed: 5, Duration: Duration(15 * time.Second),
		Analysis: &AnalysisSpec{Mode: "stream-only"},
	})
	so := streamOnly.Results[0]
	if !reflect.DeepEqual(stripPct(so.Decoded), stripPct(batch.Results[0].Decoded)) {
		t.Errorf("stream-only result differs from the default run's decode beyond percentiles:\nstream: %+v\nbatch:  %+v",
			so.Decoded, batch.Results[0].Decoded)
	}
	if n, want := so.Metrics.Counter("itg/records_streamed"), batch.Results[0].Metrics.Counter("itg/records_streamed"); n == 0 || n != want {
		t.Errorf("stream-only decoded %d records live, default %d: want the same non-zero count", n, want)
	}
}

// TestPaperCellDecodesLiveWithoutLogs runs a default 120 s paper VoIP
// cell: every record the endpoints observe goes to the decoder (so,
// under the endpoints' logging rule, none is logged), the decoder holds
// no more than 8 B per delay/RTT sample plus its per-window
// accumulators, and the whole run, build included, allocates less than
// the 3 × 32 B of log records per packet the retired post-hoc decode
// kept.
func TestPaperCellDecodesLiveWithoutLogs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := runSpec(t, Spec{Seed: 1})
	runtime.ReadMemStats(&after)
	res := rep.Results[0]
	m := res.Metrics
	observed := m.Counter("itg/packets_sent") + m.Counter("itg/packets_received") + m.Counter("itg/echoes_received")
	if fed := m.Counter("itg/records_streamed"); observed == 0 || fed != observed {
		t.Fatalf("%d records decoded live of %d observed by the endpoints: the rest were logged", fed, observed)
	}
	if logs, got := uint64(32*observed), after.TotalAlloc-before.TotalAlloc; got >= logs {
		t.Errorf("the run allocated %d B, at least the %d B its ITG logs alone would hold", got, logs)
	}
	d := res.Decoded
	samples := d.Received
	for _, w := range d.Windows {
		samples += w.RTTSamples
	}
	// Per window: 40 B of arrival sums and four 8 B counters, with up
	// to 2x slack for slice growth; plus one flow's 512 B duplicate
	// bitmap and fixed overhead.
	bound := 8*samples + 2*72*len(d.Windows) + 1024
	if got := int(m.Gauge("itg/stream/flow1/retained_bytes").Value); got <= 8*samples || got > bound {
		t.Fatalf("decoder retains %d B for %d samples over %d windows, want (%d, %d]", got, samples, len(d.Windows), 8*samples, bound)
	}
}

// TestMultiCellStreamShardedIdentical extends the shard-count
// differential to the "stream" analysis name: per-flow reports are
// placement-independent (sender and receiver feed the same decoder from
// different shards) and equal to the default run's.
func TestMultiCellStreamShardedIdentical(t *testing.T) {
	spec := Spec{Seed: 3, Cells: 2, Terminals: 2, Analysis: &AnalysisSpec{Mode: "stream"}}
	diffMultiCell(t, spec, 3)

	res, err := runCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Analysis = nil
	def, err := runCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Flows {
		if f.Decoded == nil || f.Decoded.Received == 0 {
			t.Fatalf("cell %d terminal %d: empty report", f.Cell, f.Terminal)
		}
		if !reflect.DeepEqual(f.Decoded, def.Flows[i].Decoded) {
			t.Errorf("cell %d terminal %d: report differs from the default run's", f.Cell, f.Terminal)
		}
	}
	merged := metrics.MergeSnapshots(res.Snapshots...)
	if g := merged.GaugeSum("itg/stream/", "/retained_bytes"); g <= 0 {
		t.Errorf("merged retained_bytes gauge sum %v, want > 0", g)
	}
}

// TestMultiCellStreamOnlySharded runs the constant-memory (sketched)
// analysis across shard counts: the sketch is fed in the same order
// whatever the placement, so the report must still be shard-count
// independent.
func TestMultiCellStreamOnlySharded(t *testing.T) {
	diffMultiCell(t, Spec{
		Seed: 5, Cells: 2, Terminals: 1,
		Analysis: &AnalysisSpec{Mode: "stream-only"},
	}, 3)
}
