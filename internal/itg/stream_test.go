package itg

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/stats"
)

// genLogs builds a synthetic multi-flow run: jittered delays, ~10%
// loss, occasional duplicate deliveries, and echoes for received
// packets. The recv log is appended flow-by-flow, so it is NOT
// RxTime-sorted across flows — exercising the batch oracle's sort,
// while decodeLive feeds the arrivals in RxTime order as a live
// capture delivers them.
func genLogs(seed int64, flows, perFlow int) (sent, recv, echo *Log) {
	rng := rand.New(rand.NewSource(seed))
	sent, recv, echo = &Log{}, &Log{}, &Log{}
	type tx struct{ r Record }
	var departures []tx
	for f := 0; f < flows; f++ {
		flowID := uint32(f + 1)
		for i := 0; i < perFlow; i++ {
			t := time.Duration(i)*5*time.Millisecond + time.Duration(f)*time.Millisecond
			r := Record{FlowID: flowID, Seq: uint32(i), Size: 90 + f, TxTime: t}
			departures = append(departures, tx{r})
			if rng.Float64() < 0.10 {
				continue // lost
			}
			delay := 30*time.Millisecond + time.Duration(rng.Intn(20)-10)*time.Millisecond
			arr := r
			arr.RxTime = r.TxTime + delay
			recv.Add(arr)
			if rng.Float64() < 0.03 {
				dup := arr
				dup.RxTime += 2 * time.Millisecond
				recv.Add(dup) // duplicate delivery
			}
			ech := r
			ech.RxTime = r.TxTime + 2*delay
			echo.Add(ech)
		}
	}
	sort.SliceStable(departures, func(i, j int) bool { return departures[i].r.TxTime < departures[j].r.TxTime })
	for _, d := range departures {
		sent.Add(d.r)
	}
	return sent, recv, echo
}

// decodeLive feeds logged records to a fresh StreamDecoder through
// AddSent, AddRecv and AddEcho, as the live endpoints do: arrivals in
// RxTime order (ties in log order), then finalizes it.
func decodeLive(sent, recv, echo *Log, window time.Duration, opts ...StreamOption) *Result {
	d := NewStreamDecoder(window, opts...)
	for _, r := range records(sent) {
		d.AddSent(r)
	}
	arrivals := append([]Record(nil), records(recv)...)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].RxTime < arrivals[j].RxTime })
	for _, r := range arrivals {
		d.AddRecv(r)
	}
	for _, r := range records(echo) {
		d.AddEcho(r)
	}
	return d.Finalize()
}

func TestStreamExactMatchesBatchRandomLogs(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99} {
		sent, recv, echo := genLogs(seed, 3, 400)
		batch := decodeOracle(sent, recv, echo, 200*time.Millisecond)
		stream := decodeLive(sent, recv, echo, 200*time.Millisecond, WithExactPercentiles())
		if !reflect.DeepEqual(batch, stream) {
			t.Fatalf("seed %d: exact-mode stream result differs from batch\nbatch:  %+v\nstream: %+v", seed, batch, stream)
		}
	}
}

// stripPercentiles zeroes the sketched fields so the rest of the
// result can be compared byte-for-byte.
func stripPercentiles(r *Result) Result {
	c := *r
	c.P95Delay, c.P99Delay, c.P95RTT, c.P99RTT = 0, 0, 0, 0
	return c
}

func TestStreamSketchMatchesBatchExceptPercentiles(t *testing.T) {
	sent, recv, echo := genLogs(5, 2, 600)
	batch := decodeOracle(sent, recv, echo, 200*time.Millisecond)
	const relErr = stats.DefaultSketchRelErr
	stream := decodeLive(sent, recv, echo, 200*time.Millisecond)
	if got, want := stripPercentiles(stream), stripPercentiles(batch); !reflect.DeepEqual(got, want) {
		t.Fatalf("sketch-mode stream differs from batch beyond percentiles\nbatch:  %+v\nstream: %+v", want, got)
	}
	checks := []struct {
		name       string
		got, exact time.Duration
	}{
		{"P95Delay", stream.P95Delay, batch.P95Delay},
		{"P99Delay", stream.P99Delay, batch.P99Delay},
		{"P95RTT", stream.P95RTT, batch.P95RTT},
		{"P99RTT", stream.P99RTT, batch.P99RTT},
	}
	for _, c := range checks {
		// The sketch bounds error relative to a rank-adjacent order
		// statistic; against the interpolated exact percentile we allow
		// the documented α plus one delay-quantization step of slack.
		tol := relErr*float64(c.exact) + float64(2*time.Millisecond)
		if diff := math.Abs(float64(c.got - c.exact)); diff > tol {
			t.Errorf("%s: sketch %v vs exact %v (diff %v > tol %v)", c.name, c.got, c.exact, time.Duration(diff), time.Duration(tol))
		}
	}
}

func TestStreamDuplicatePolicyMatchesBatch(t *testing.T) {
	// One flow, 3 sent, seq 1 delivered twice, seq 2 lost: duplicates
	// inflate Packets/Bytes but not loss, in both decoders.
	sent, recv := &Log{}, &Log{}
	for i := 0; i < 3; i++ {
		sent.Add(Record{FlowID: 1, Seq: uint32(i), Size: 100, TxTime: time.Duration(i) * 10 * time.Millisecond})
	}
	recv.Add(Record{FlowID: 1, Seq: 0, Size: 100, TxTime: 0, RxTime: 30 * time.Millisecond})
	recv.Add(Record{FlowID: 1, Seq: 1, Size: 100, TxTime: 10 * time.Millisecond, RxTime: 40 * time.Millisecond})
	recv.Add(Record{FlowID: 1, Seq: 1, Size: 100, TxTime: 10 * time.Millisecond, RxTime: 45 * time.Millisecond})
	batch := decodeOracle(sent, recv, nil, 200*time.Millisecond)
	stream := decodeLive(sent, recv, nil, 200*time.Millisecond, WithExactPercentiles())
	if !reflect.DeepEqual(batch, stream) {
		t.Fatalf("duplicate handling diverged\nbatch:  %+v\nstream: %+v", batch, stream)
	}
	if batch.Windows[0].Packets != 3 {
		t.Errorf("window packets = %d, want 3 (duplicate counts as a delivery)", batch.Windows[0].Packets)
	}
	if batch.Lost != 1 || batch.Windows[0].Loss != 1 {
		t.Errorf("lost = %d (window %d), want exactly the undelivered seq 2", batch.Lost, batch.Windows[0].Loss)
	}
}

func TestStreamSeqReorderWithinSpanMatchesBatch(t *testing.T) {
	// Arrivals in RxTime order but with sequence numbers locally
	// shuffled (seq i+1 lands before seq i): the sliding bitmap must
	// still dedup-correctly and attribute loss like the batch map.
	sent, recv := &Log{}, &Log{}
	order := []uint32{1, 0, 3, 2, 5, 7, 6} // 4 lost
	for i := 0; i < 8; i++ {
		sent.Add(Record{FlowID: 9, Seq: uint32(i), Size: 64, TxTime: time.Duration(i) * 20 * time.Millisecond})
	}
	for k, seq := range order {
		recv.Add(Record{FlowID: 9, Seq: seq, Size: 64,
			TxTime: time.Duration(seq) * 20 * time.Millisecond,
			RxTime: 500*time.Millisecond + time.Duration(k)*5*time.Millisecond})
	}
	batch := decodeOracle(sent, recv, nil, 200*time.Millisecond)
	stream := decodeLive(sent, recv, nil, 200*time.Millisecond, WithExactPercentiles())
	if !reflect.DeepEqual(batch, stream) {
		t.Fatalf("reordered arrivals diverged\nbatch:  %+v\nstream: %+v", batch, stream)
	}
	if batch.Lost != 1 {
		t.Fatalf("Lost = %d, want 1 (only seq 4 never arrived)", batch.Lost)
	}
}

func TestStreamLateBeyondSpanIsCountedAsDuplicate(t *testing.T) {
	// A first arrival reordered behind more than the bitmap span is the
	// documented divergence: the stream decoder conservatively counts
	// it as a duplicate (one extra loss) and reports it in
	// LateArrivals. The batch decoder, with its unbounded map, does not.
	d := NewStreamDecoder(200*time.Millisecond, WithReorderSpan(64))
	sent := &Log{}
	for i := 0; i < 200; i++ {
		sent.Add(Record{FlowID: 1, Seq: uint32(i), Size: 64, TxTime: time.Duration(i) * time.Millisecond})
	}
	for _, r := range sent.Records {
		d.AddSent(r)
	}
	for i := 1; i < 200; i++ { // seq 0 held back far beyond the span
		d.AddRecv(Record{FlowID: 1, Seq: uint32(i), Size: 64,
			TxTime: time.Duration(i) * time.Millisecond, RxTime: time.Duration(i)*time.Millisecond + 10*time.Millisecond})
	}
	d.AddRecv(Record{FlowID: 1, Seq: 0, Size: 64, TxTime: 0, RxTime: 300 * time.Millisecond})
	res := d.Finalize()
	if d.LateArrivals() != 1 {
		t.Fatalf("LateArrivals = %d, want 1", d.LateArrivals())
	}
	if res.Lost != 1 {
		t.Fatalf("Lost = %d; the late first arrival is conservatively charged as a loss", res.Lost)
	}
	if res.Received != 200 {
		t.Fatalf("Received = %d, want all 200 arrivals counted", res.Received)
	}
}

func TestStreamLiveFeedMatchesBatch(t *testing.T) {
	// Run the same seeded flow twice — once logged and decoded by the
	// batch oracle, once decoded live: the live feed order must be exactly
	// the order batch's stable sort reconstructs.
	spec := cbrSpec(100, 120, 5*time.Second, MeterRTT)
	build := func(loop *sim.Loop) (*Sender, *Receiver) { return loopback(t, loop, 25*time.Millisecond, spec) }
	batch, _ := runFlow(3, spec, build, false)
	live, _ := runFlow(3, spec, build, true)
	if !reflect.DeepEqual(batch, live) {
		t.Fatalf("live stream result differs from batch decode of the same run\nbatch:  %+v\nstream: %+v", batch, live)
	}
}

// runFlow runs spec to completion on a fresh loop seeded with seed over
// the endpoints build wires up, and returns its QoS result and the
// loop: decoded live by an exact StreamDecoder, or logged and decoded
// by the batch oracle.
func runFlow(seed int64, spec FlowSpec, build func(*sim.Loop) (*Sender, *Receiver), live bool) (*Result, *sim.Loop) {
	loop := sim.NewLoop(seed)
	snd, rcv := build(loop)
	var d *StreamDecoder
	if live {
		d = NewStreamDecoder(200*time.Millisecond, WithExactPercentiles())
		d.Expect(spec.ExpectedPackets())
		snd.Stream, rcv.Stream = d, d
	}
	snd.Start()
	loop.Run()
	if live {
		return d.Finalize(), loop
	}
	return decodeOracle(&snd.SentLog, &rcv.RecvLog, &snd.EchoLog, 200*time.Millisecond), loop
}

// TestEndpointsLogOnlyWithoutDecoder pins the one logging rule: an
// endpoint with a decoder attached feeds it every record and logs none
// (itg/records_streamed counts the feed), one without logs everything.
func TestEndpointsLogOnlyWithoutDecoder(t *testing.T) {
	for _, live := range []bool{false, true} {
		loop := sim.NewLoop(11)
		snd, rcv := loopback(t, loop, 20*time.Millisecond, cbrSpec(200, 90, 3*time.Second, MeterRTT))
		if live {
			d := NewStreamDecoder(200*time.Millisecond, WithExactPercentiles())
			snd.Stream, rcv.Stream = d, d
		}
		snd.Start()
		loop.Run()
		logged := int64(snd.SentLog.Len() + rcv.RecvLog.Len() + snd.EchoLog.Len())
		streamed := loop.Metrics().Counter("itg/records_streamed").Value()
		// 600 packets, every one received and echoed.
		if want := int64(3 * 600); live && (logged != 0 || streamed != want) {
			t.Errorf("with a decoder: %d records logged, %d streamed; want 0 and %d", logged, streamed, want)
		} else if !live && (logged != want || streamed != 0) {
			t.Errorf("without a decoder: %d records logged, %d streamed; want %d and 0", logged, streamed, want)
		}
	}
}

func TestStreamWithStartMirrorsRebase(t *testing.T) {
	// WithStart must equal Rebase + decode, including Rebase's quirk of
	// leaving zero RxTimes (sender logs) untouched.
	sent, recv, echo := genLogs(13, 2, 300)
	const start = 3 * time.Second
	shift := func(l *Log) *Log {
		out := &Log{}
		for _, r := range l.Records {
			r.TxTime += start
			if r.RxTime != 0 {
				r.RxTime += start
			}
			out.Add(r)
		}
		return out
	}
	sSent, sRecv, sEcho := shift(sent), shift(recv), shift(echo)
	// Rebase works in place, so the stream decodes the shifted logs
	// first.
	stream := decodeLive(sSent, sRecv, sEcho, 200*time.Millisecond, WithStart(start), WithExactPercentiles())
	batch := decodeOracle(sSent.Rebase(start), sRecv.Rebase(start), sEcho.Rebase(start), 200*time.Millisecond)
	if !reflect.DeepEqual(batch, stream) {
		t.Fatalf("WithStart(...) differs from Rebase + decode\nbatch:  %+v\nstream: %+v", batch, stream)
	}
}

func TestStreamRetainedBytesConstantInPackets(t *testing.T) {
	// Same window span, same flows, same delay population — 10x the
	// packets: the sketch-mode footprint must not move while the batch
	// input's footprint grows linearly.
	build := func(n int) (*StreamDecoder, *Log) {
		d := NewStreamDecoder(200 * time.Millisecond)
		recv := &Log{}
		span := 10 * time.Second
		for i := 0; i < n; i++ {
			t := time.Duration(i) * span / time.Duration(n)
			r := Record{FlowID: uint32(i%4 + 1), Seq: uint32(i / 4), Size: 90,
				TxTime: t, RxTime: t + time.Duration(30+i%5)*time.Millisecond}
			d.AddSent(Record{FlowID: r.FlowID, Seq: r.Seq, Size: 90, TxTime: t})
			d.AddRecv(r)
			recv.Add(r)
		}
		return d, recv
	}
	small, smallLog := build(10000)
	big, bigLog := build(100000)
	if small.RetainedBytes() != big.RetainedBytes() {
		t.Errorf("stream footprint grew with packet count: %d bytes at 10k vs %d at 100k",
			small.RetainedBytes(), big.RetainedBytes())
	}
	if bigLog.RetainedBytes() < 10*smallLog.RetainedBytes()/2 {
		t.Errorf("control: batch log footprint should grow ~linearly (%d vs %d)",
			smallLog.RetainedBytes(), bigLog.RetainedBytes())
	}
	// The O(windows + flows) envelope, with generous per-window and
	// per-flow constants, and a small fraction of the receiver log alone.
	const windows, flows = 50, 4
	if env := windows*200 + flows*20000 + 131072; big.RetainedBytes() >= env {
		t.Errorf("stream footprint %d B exceeds the O(windows + flows) envelope %d B", big.RetainedBytes(), env)
	}
	if big.RetainedBytes()*4 >= bigLog.RetainedBytes() {
		t.Errorf("stream footprint %d B is not under a quarter of the %d B log", big.RetainedBytes(), bigLog.RetainedBytes())
	}
}

// --- decode edge cases (the oracle, a live feed and Decode's replay) ---

func assertBothDecodersEqual(t *testing.T, sent, recv, echo *Log, window time.Duration) (*Result, *Result) {
	t.Helper()
	batch := decodeOracle(sent, recv, echo, window)
	stream := decodeLive(sent, recv, echo, window, WithExactPercentiles())
	if !reflect.DeepEqual(batch, stream) {
		t.Fatalf("decoders diverge\nbatch:  %+v\nstream: %+v", batch, stream)
	}
	if replay := Decode(sent, recv, echo, window); !reflect.DeepEqual(batch, replay) {
		t.Fatalf("Decode diverges from the oracle\nbatch:  %+v\nreplay: %+v", batch, replay)
	}
	return batch, stream
}

func TestDecodeEdgeZeroWindows(t *testing.T) {
	batch, stream := assertBothDecodersEqual(t, &Log{}, &Log{}, &Log{}, 200*time.Millisecond)
	if len(batch.Windows) != 0 {
		t.Fatalf("empty run produced %d windows", len(batch.Windows))
	}
	for _, res := range []*Result{batch, stream} {
		if n := len(res.BitrateSeries()); n != 0 {
			t.Errorf("BitrateSeries on empty result has %d points", n)
		}
		if n := len(res.LossSeries()); n != 0 {
			t.Errorf("LossSeries on empty result has %d points", n)
		}
		if res.JitterSeries() != nil || res.RTTSeries() != nil || res.DelaySeries() != nil {
			t.Error("conditional series on empty result should be nil")
		}
	}
}

func TestDecodeEdgeEchoOnly(t *testing.T) {
	// A MeterRTT flow whose data path dropped everything but whose
	// echoes survived in the log: windows sized by echo arrivals, RTT
	// populated, zero loss (nothing sent on record).
	echo := &Log{}
	for i := 0; i < 5; i++ {
		echo.Add(Record{FlowID: 1, Seq: uint32(i), Size: 90,
			TxTime: time.Duration(i) * 100 * time.Millisecond,
			RxTime: time.Duration(i)*100*time.Millisecond + 60*time.Millisecond})
	}
	batch, _ := assertBothDecodersEqual(t, nil, nil, echo, 200*time.Millisecond)
	if len(batch.Windows) != 3 {
		t.Fatalf("windows = %d, want 3 (horizon at last echo arrival 460 ms)", len(batch.Windows))
	}
	if batch.Lost != 0 || batch.Received != 0 {
		t.Errorf("echo-only log: lost=%d received=%d, want 0/0", batch.Lost, batch.Received)
	}
	if batch.Windows[0].RTTSamples != 2 || batch.Windows[0].RTT != 60*time.Millisecond {
		t.Errorf("window 0 RTT %v over %d samples, want 60ms over 2", batch.Windows[0].RTT, batch.Windows[0].RTTSamples)
	}
	if got := batch.RTTSeries(); len(got) != 3 {
		t.Errorf("RTTSeries has %d points, want 3", len(got))
	}
}

func TestDecodeEdgeNegativeTimesClampToWindowZero(t *testing.T) {
	// Rebasing past the first departure (e.g. aligning to a late flow
	// start) drives early records negative; widx clamps them into
	// window 0 in both decoders.
	sent, recv := &Log{}, &Log{}
	for i := 0; i < 4; i++ {
		tx := time.Duration(i)*300*time.Millisecond - 600*time.Millisecond
		sent.Add(Record{FlowID: 1, Seq: uint32(i), Size: 80, TxTime: tx})
		recv.Add(Record{FlowID: 1, Seq: uint32(i), Size: 80, TxTime: tx, RxTime: tx + 50*time.Millisecond})
	}
	batch, _ := assertBothDecodersEqual(t, sent, recv, nil, 200*time.Millisecond)
	if got := batch.Windows[0].Packets; got != 3 {
		t.Errorf("window 0 packets = %d, want 3 (two clamped negative-time arrivals plus the 50 ms one)", got)
	}
	if batch.Received != 4 || batch.Lost != 0 {
		t.Errorf("received=%d lost=%d, want 4/0", batch.Received, batch.Lost)
	}
}

func TestDecodeEdgeSentPastLastArrival(t *testing.T) {
	// Departures after the last arrival extend the horizon: their loss
	// lands in the trailing windows (the batch widx upper clamp is
	// defensive — the horizon always covers sent TxTimes).
	sent, recv := &Log{}, &Log{}
	sent.Add(Record{FlowID: 1, Seq: 0, Size: 80, TxTime: 0})
	recv.Add(Record{FlowID: 1, Seq: 0, Size: 80, TxTime: 0, RxTime: 40 * time.Millisecond})
	sent.Add(Record{FlowID: 1, Seq: 1, Size: 80, TxTime: 990 * time.Millisecond}) // lost, after last arrival
	batch, _ := assertBothDecodersEqual(t, sent, recv, nil, 200*time.Millisecond)
	if len(batch.Windows) != 5 {
		t.Fatalf("windows = %d, want 5 (horizon covers the late departure)", len(batch.Windows))
	}
	if batch.Windows[4].Loss != 1 {
		t.Errorf("loss not attributed to the departure window: %+v", batch.Windows)
	}
}

func TestDecodeEdgeRecvWithoutSent(t *testing.T) {
	// Arrivals with no matching departures (foreign log): no loss can
	// be charged, and the stream decoder's per-window subtraction must
	// clamp rather than go negative.
	recv := &Log{}
	for i := 0; i < 6; i++ {
		recv.Add(Record{FlowID: 2, Seq: uint32(i), Size: 90,
			TxTime: time.Duration(i) * 50 * time.Millisecond,
			RxTime: time.Duration(i)*50*time.Millisecond + 30*time.Millisecond})
	}
	batch, _ := assertBothDecodersEqual(t, nil, recv, nil, 200*time.Millisecond)
	if batch.Lost != 0 {
		t.Errorf("Lost = %d with an empty sent log", batch.Lost)
	}
}

func TestDecodeUnsortedLogMatchesSortedFastPath(t *testing.T) {
	// The O(n) sorted-detection fast path must decode identically to
	// the stable-sort fallback, including RxTime ties (which keep log
	// order either way).
	sent, recv, echo := genLogs(21, 2, 200)
	recv.Add(Record{FlowID: 1, Seq: 9999, Size: 90, TxTime: 0, RxTime: recv.Records[0].RxTime}) // tie, out of order
	sortedCopy := &Log{Records: append([]Record(nil), recv.Records...)}
	sort.SliceStable(sortedCopy.Records, func(i, j int) bool {
		return sortedCopy.Records[i].RxTime < sortedCopy.Records[j].RxTime
	})
	if !sortedByRxTime(sortedCopy.Records) || sortedByRxTime(recv.Records) {
		t.Fatal("test setup: want one sorted and one unsorted log")
	}
	a := Decode(sent, recv, echo, 200*time.Millisecond)
	b := Decode(sent, sortedCopy, echo, 200*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fast path and sort fallback disagree")
	}
}

// BenchmarkStreamDecodeTwoFeeds feeds one exact decoder from two
// goroutines, as a multi-cell run does: the sender shard's sent and echo
// records on one, the core shard's arrivals on the other. Run it with
// -cpu 2; it measures whether the two sides' accumulators share cache
// lines.
func BenchmarkStreamDecodeTwoFeeds(b *testing.B) {
	const n = 100000
	rec := func(k int, rx time.Duration) Record {
		t := time.Duration(k) * 10 * time.Millisecond
		r := Record{FlowID: 1, Seq: uint32(k), Size: 90, TxTime: t}
		if rx > 0 {
			r.RxTime = t + rx
		}
		return r
	}
	for i := 0; i < b.N; i++ {
		d := NewStreamDecoder(200*time.Millisecond, WithExactPercentiles())
		d.Expect(n)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				d.AddSent(rec(k, 0))
				d.AddEcho(rec(k, 200*time.Millisecond))
			}
		}()
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				d.AddRecv(rec(k, 100*time.Millisecond))
			}
		}()
		wg.Wait()
		if res := d.Finalize(); res.Lost != 0 {
			b.Fatalf("%d lost", res.Lost)
		}
	}
}
