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
// cell in stream mode with exact percentiles: the streamed report must
// be a separate copy equal to the exact decode, and the live feed must
// not perturb the run — the default (batch) run of the same seed
// decodes to the same report. (The live decode's equivalence with
// itg.Decode of full logs is TestLiveDecodeMatchesDecodeOverLink's.)
func TestScenarioStreamExactMatchesBatch(t *testing.T) {
	rep, err := NewScenario(
		WithSeed(7),
		WithDuration(20*time.Second),
		WithAnalysis(AnalysisConfig{Mode: AnalysisStream, Exact: true}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Streamed == nil {
		t.Fatal("no streamed result in stream mode")
	}
	if res.Streamed.Received == 0 {
		t.Fatal("streamed result saw no packets")
	}
	if res.Streamed == res.Decoded || !reflect.DeepEqual(res.Streamed, res.Decoded) {
		t.Errorf("streamed result is not an equal copy of the exact decode:\nstream: %+v\nbatch:  %+v",
			res.Streamed, res.Decoded)
	}
	batch, err := NewScenario(WithSeed(7), WithDuration(20*time.Second)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Results[0].Decoded, res.Decoded) {
		t.Error("stream mode decoded a different report than the batch run of the same seed")
	}
	if n := res.Metrics.Counter("itg/records_streamed"); n == 0 {
		t.Error("itg/records_streamed counter is zero")
	}
	if g := res.Metrics.Gauge("itg/stream/flow1/retained_bytes"); g.Value <= 0 {
		t.Error("retained_bytes gauge not recorded")
	}
}

// TestScenarioStreamSketchBound runs the default sketch mode: counts,
// bytes, per-window series, and loss still match batch exactly; only
// P95/P99 are estimates, which must land within the declared bound.
func TestScenarioStreamSketchBound(t *testing.T) {
	rep, err := NewScenario(
		WithSeed(9), WithDuration(20*time.Second),
		WithAnalysis(AnalysisConfig{Mode: AnalysisStream}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if !reflect.DeepEqual(stripPct(res.Streamed), stripPct(res.Decoded)) {
		t.Error("sketch mode: non-percentile fields differ from batch")
	}
	relErr := stats.DefaultSketchRelErr
	pctWithin(t, "P95Delay", res.Streamed.P95Delay, res.Decoded.P95Delay, relErr)
	pctWithin(t, "P99Delay", res.Streamed.P99Delay, res.Decoded.P99Delay, relErr)
	pctWithin(t, "P95RTT", res.Streamed.P95RTT, res.Decoded.P95RTT, relErr)
	pctWithin(t, "P99RTT", res.Streamed.P99RTT, res.Decoded.P99RTT, relErr)
}

// TestScenarioStreamOnlyMatchesSeparateBatchRun drops the per-packet
// logs entirely and still must produce the same report a log-retaining
// batch run of the same seed produces — the determinism contract makes
// the two runs' traffic identical, so this is a true equivalence check.
func TestScenarioStreamOnlyMatchesSeparateBatchRun(t *testing.T) {
	batch, err := NewScenario(WithSeed(5), WithDuration(15*time.Second)).Run()
	if err != nil {
		t.Fatal(err)
	}
	streamOnly, err := NewScenario(
		WithSeed(5), WithDuration(15*time.Second),
		WithAnalysis(AnalysisConfig{Mode: AnalysisStreamOnly, Exact: true}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	so := streamOnly.Results[0]
	if so.Decoded != so.Streamed {
		t.Error("stream-only: Decoded should alias Streamed")
	}
	if !reflect.DeepEqual(so.Decoded, batch.Results[0].Decoded) {
		t.Errorf("stream-only result differs from the batch run's decode:\nstream: %+v\nbatch:  %+v",
			so.Decoded, batch.Results[0].Decoded)
	}
	if n, want := so.Metrics.Counter("itg/records_streamed"), batch.Results[0].Metrics.Counter("itg/records_streamed"); n == 0 || n != want {
		t.Errorf("stream-only decoded %d records live, batch %d: want the same non-zero count", n, want)
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
	rep, err := NewScenario(WithSeed(1)).Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
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
// differential to the streaming pipeline: per-flow streamed results are
// placement-independent (sender and receiver feed the same decoder from
// different shards) and, with exact percentiles, equal to Decoded.
func TestMultiCellStreamShardedIdentical(t *testing.T) {
	opts := Scenario{
		seed: 3, cells: 2, terminals: 2,
		analysis: AnalysisConfig{Mode: AnalysisStream, Exact: true},
	}
	diffMultiCell(t, opts, 3)

	res, err := runCells(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		if f.Streamed == nil || f.Streamed.Received == 0 {
			t.Fatalf("cell %d terminal %d: empty streamed result", f.Cell, f.Terminal)
		}
		if !reflect.DeepEqual(f.Streamed, f.Decoded) {
			t.Errorf("cell %d terminal %d: streamed result differs from batch decode", f.Cell, f.Terminal)
		}
	}
	merged := metrics.MergeSnapshots(res.Snapshots...)
	if g := merged.GaugeSum("itg/stream/", "/retained_bytes"); g <= 0 {
		t.Errorf("merged retained_bytes gauge sum %v, want > 0", g)
	}
}

// TestMultiCellStreamOnlySharded runs the constant-memory mode across
// shard counts: with the logs gone, the streamed report IS the decoded
// report, and it must still be shard-count independent.
func TestMultiCellStreamOnlySharded(t *testing.T) {
	diffMultiCell(t, Scenario{
		seed: 5, cells: 2, terminals: 1,
		analysis: AnalysisConfig{Mode: AnalysisStreamOnly, Exact: true},
	}, 3)
}
