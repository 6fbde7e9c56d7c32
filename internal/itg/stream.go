package itg

import (
	"sort"
	"sync"
	"time"

	"github.com/onelab/umtslab/internal/stats"
)

// StreamDecoder is the online counterpart of Decode: records are fed
// one at a time as the flow's endpoints observe them, and per-window
// accumulators are maintained incrementally, so nothing per packet is
// kept but what the tail percentiles need. Duplicate deliveries are
// detected with a per-flow sliding sequence bitmap (span
// WithReorderSpan, default 4096 sequence numbers) rather than a map
// keyed by every packet ever received. Tail percentiles come either
// from a bounded-relative-error quantile sketch (stats.QuantileSketch,
// the default: O(windows + flows) memory whatever the packet count) or,
// with WithExactPercentiles, from the raw delay/RTT samples (8 B each) —
// the testbed's default analysis, which reproduces Decode exactly from
// one live pass. WithSketch keeps both, so one feed yields both results
// (FinalizeBoth).
//
// Equivalence with Decode. Finalize reproduces the batch result
// field-for-field — counts, bytes, per-window means, loss, totals —
// provided the feed respects the same ordering the batch decoder
// manufactures with its stable sort:
//
//   - AddRecv must be called in non-decreasing RxTime order, ties in
//     log order. A receiver on a sim loop satisfies this for free —
//     virtual time is monotone and ties arrive in processing order,
//     which is exactly the order the batch decoder's stable sort
//     reconstructs from the log.
//   - AddSent and AddEcho are order-insensitive (sums, maxima, and
//     per-window tallies only), so any log order works.
//
// Loss is computed by per-window subtraction: packets sent in a
// departure window minus distinct (flow, seq) first-arrivals whose
// departure fell in that window. This matches the batch decoder
// exactly whenever every received record has a matching sent record
// (always true for Sender/Receiver pairs) and first arrivals are not
// reordered across more than the bitmap span (LateArrivals counts
// violations; the in-order simulation never produces any).
//
// Concurrency. The sent/echo side and the recv side touch disjoint
// state, so one goroutine may call AddSent/AddEcho while another calls
// AddRecv — the multi-cell testbed feeds a sender's shard and the
// server's shard concurrently this way. Calls to the same method must
// be externally serialized, and Finalize must only run after all
// feeding is done (the shard engine's Run provides both guarantees).
type StreamDecoder struct {
	window time.Duration
	start  time.Duration
	exact  bool
	sketch bool
	relErr float64
	span   uint32
	expect int // exact samples to reserve per series (Expect)

	// Live-window subscription (WithLiveWindows). When live is set the
	// decoder serializes every Add*/Finalize call under mu — the price
	// of publishing windows that read both feed sides — and seals
	// window i once every feed has progressed liveLag past its end.
	// Sealing only reads the accumulators, so Finalize stays
	// byte-identical to a subscriber-free run.
	live       func(i int, w WindowStats)
	liveLag    time.Duration
	mu         sync.Mutex
	sealed     int
	lateSealed int

	// The two feed sides write their accumulators on every record, from
	// two goroutines in a multi-cell run: keep them off each other's
	// cache lines and off the read-mostly fields above. Unpadded,
	// BenchmarkStreamDecodeTwoFeeds ran about 2x slower on 2 cores.
	_    cacheLinePad
	recv streamRecvAcc
	_    cacheLinePad
	sent streamSentAcc
	echo streamEchoAcc
	_    cacheLinePad
}

// cacheLinePad spans a 64-byte cache line.
type cacheLinePad [64]byte

// StreamOption configures a StreamDecoder.
type StreamOption func(*StreamDecoder)

// WithStart rebases every fed record by start on the fly, mirroring
// Log.Rebase: TxTime is always shifted, RxTime only when non-zero.
// This lets live feeds align window 0 with the flow start without
// materializing rebased log copies.
func WithStart(start time.Duration) StreamOption {
	return func(d *StreamDecoder) { d.start = start }
}

// WithExactPercentiles retains every delay/RTT sample (8 B each, sized
// by Expect) so Finalize computes P95/P99 exactly as Decode does, and
// drops the sketch unless WithSketch keeps it too. This is the one
// O(packets) cost of a live decode: 16 B per echoed packet, a sixth
// of the three 32-byte log records Decode needs for it.
func WithExactPercentiles() StreamOption {
	return func(d *StreamDecoder) { d.exact = true }
}

// WithSketch keeps the quantile sketch next to the exact samples of
// WithExactPercentiles, so FinalizeBoth can return the exact and the
// sketched result of one feed (a sketch-only decoder needs no option).
func WithSketch() StreamOption {
	return func(d *StreamDecoder) { d.sketch = true }
}

// WithSketchRelErr sets the quantile sketch's relative error bound
// (default stats.DefaultSketchRelErr; ignored without a sketch).
func WithSketchRelErr(relErr float64) StreamOption {
	return func(d *StreamDecoder) { d.relErr = relErr }
}

// WithLiveWindows subscribes sink to the decoder's QoS windows while
// the feed is still running: window i is published exactly once, as
// soon as every feed side (sent, recv, echo) has progressed at least
// lag past the window's end (lag <= 0 selects 10 s). Windows not yet
// sealed when Finalize runs are published from the final accumulators,
// so a subscriber always sees every window of the eventual Result —
// and a window published early is identical to its Finalize value
// whenever lag covers the flow's maximum in-flight delay plus
// departure-to-arrival loss accounting (SealViolations counts feeds
// that broke that promise).
//
// The subscription changes the concurrency contract: with a sink
// installed the decoder locks internally, so the sent/echo and recv
// sides may still feed from two goroutines, and the sink may be called
// from either. The sink must not call back into the decoder.
func WithLiveWindows(lag time.Duration, sink func(i int, w WindowStats)) StreamOption {
	return func(d *StreamDecoder) {
		if lag <= 0 {
			lag = 10 * time.Second
		}
		d.live = sink
		d.liveLag = lag
	}
}

// WithReorderSpan sets how many consecutive sequence numbers the
// per-flow duplicate bitmap tracks (rounded up to a power of two,
// default 4096 — 512 bytes per flow). A first arrival reordered behind
// more than span newer packets is miscounted as a duplicate and tallied
// in LateArrivals.
func WithReorderSpan(n int) StreamOption {
	return func(d *StreamDecoder) {
		span := uint32(64)
		for int(span) < n {
			span <<= 1
		}
		d.span = span
	}
}

// winAcc accumulates one window's arrival-side sums.
type winAcc struct {
	packets   int
	bytes     int
	delaySum  time.Duration
	jitterSum time.Duration
	jitterN   int
}

// flowDedup is one flow's sliding window of received sequence numbers:
// a circular bitmap of span bits covering [base, base+span), with max
// the highest sequence seen. The circular invariant — every slot
// outside [base, max] is zero — lets the window also extend DOWNWARD
// (first arrival was not the flow's lowest seq) as long as max-base
// stays under the span.
type flowDedup struct {
	inited bool
	base   uint32
	max    uint32
	bits   []uint64
}

type streamRecvAcc struct {
	maxT            time.Duration
	wins            []winAcc
	distinctByTxWin []int
	flows           map[uint32]*flowDedup

	received   int
	distinct   int
	late       int
	haveLast   bool
	lastDelay  time.Duration
	totalDelay time.Duration
	maxDelay   time.Duration
	sketch     *stats.QuantileSketch
	samples    []float64
}

type streamSentAcc struct {
	maxT   time.Duration
	perWin []int
	total  int
}

type streamEchoAcc struct {
	maxT     time.Duration
	sums     []time.Duration
	ns       []int
	totalRTT time.Duration
	maxRTT   time.Duration
	count    int
	sketch   *stats.QuantileSketch
	samples  []float64
}

// NewStreamDecoder returns a decoder for the given sample window
// (<= 0 selects the paper's 200 ms, like Decode).
func NewStreamDecoder(window time.Duration, opts ...StreamOption) *StreamDecoder {
	if window <= 0 {
		window = 200 * time.Millisecond
	}
	d := &StreamDecoder{window: window, relErr: stats.DefaultSketchRelErr, span: 4096}
	for _, o := range opts {
		o(d)
	}
	d.recv.flows = make(map[uint32]*flowDedup)
	if !d.exact {
		d.sketch = true
	}
	if d.sketch {
		d.recv.sketch = stats.NewQuantileSketch(d.relErr)
		d.echo.sketch = stats.NewQuantileSketch(d.relErr)
	}
	return d
}

// Window returns the decoder's sample window.
func (d *StreamDecoder) Window() time.Duration { return d.window }

// Expect sizes each exact sample series for n records (typically the
// flow's ExpectedPackets), so a full-length flow's samples are
// allocated once instead of grown. Each series is reserved at its first
// record — an OWD flow never reserves RTT samples. Call it before
// feeding; it is a no-op without WithExactPercentiles.
func (d *StreamDecoder) Expect(n int) { d.expect = n }

// widx maps a (rebased) time to a window index with the batch
// decoder's lower clamp. There is no upper clamp: windows grow with
// the feed, and Finalize sizes the output to the global horizon.
func (d *StreamDecoder) widx(t time.Duration) int {
	i := int(t / d.window)
	if i < 0 {
		i = 0
	}
	return i
}

// AddSent feeds one transmitted-packet record (a SentLog entry).
func (d *StreamDecoder) AddSent(r Record) {
	if d.live != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	tx := r.TxTime - d.start
	if tx > d.sent.maxT {
		d.sent.maxT = tx
	}
	i := d.widx(tx)
	if i < d.sealed {
		d.lateSealed++
	}
	for i >= len(d.sent.perWin) {
		d.sent.perWin = append(d.sent.perWin, 0)
	}
	d.sent.perWin[i]++
	d.sent.total++
	d.maybeSeal()
}

// AddRecv feeds one arrival record (a RecvLog entry). Calls must be in
// non-decreasing RxTime order (see the type comment).
func (d *StreamDecoder) AddRecv(r Record) {
	if d.live != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	a := &d.recv
	tx := r.TxTime - d.start
	rx := r.RxTime
	if rx != 0 {
		rx -= d.start
	}
	if rx > a.maxT {
		a.maxT = rx
	}
	i := d.widx(rx)
	if i < d.sealed {
		d.lateSealed++
	}
	for i >= len(a.wins) {
		a.wins = append(a.wins, winAcc{})
	}
	w := &a.wins[i]
	w.packets++
	w.bytes += r.Size
	delay := rx - tx
	if d.exact {
		if a.samples == nil {
			a.samples = make([]float64, 0, d.expect)
		}
		a.samples = append(a.samples, float64(delay))
	}
	if a.sketch != nil {
		a.sketch.Add(float64(delay))
	}
	w.delaySum += delay
	a.totalDelay += delay
	if delay > a.maxDelay {
		a.maxDelay = delay
	}
	if a.haveLast {
		dv := delay - a.lastDelay
		if dv < 0 {
			dv = -dv
		}
		w.jitterSum += dv
		w.jitterN++
	}
	a.lastDelay = delay
	a.haveLast = true
	a.received++

	if a.markReceived(r.FlowID, r.Seq, d.span) {
		a.distinct++
		ti := d.widx(tx)
		if ti < d.sealed {
			d.lateSealed++
		}
		for ti >= len(a.distinctByTxWin) {
			a.distinctByTxWin = append(a.distinctByTxWin, 0)
		}
		a.distinctByTxWin[ti]++
	}
	d.maybeSeal()
}

// markReceived records (flow, seq) in the flow's sliding bitmap and
// reports whether this is its first delivery. Sequence numbers below
// the bitmap's base — first arrivals reordered behind more than span
// newer packets — cannot be distinguished from duplicates and are
// conservatively treated as such (counted in late).
func (a *streamRecvAcc) markReceived(flow, seq uint32, span uint32) bool {
	f := a.flows[flow]
	if f == nil {
		f = &flowDedup{bits: make([]uint64, span/64)}
		a.flows[flow] = f
	}
	if !f.inited {
		f.inited = true
		f.base, f.max = seq, seq
	} else if seq < f.base {
		if f.max-seq >= span {
			// Beyond the reorder horizon: indistinguishable from a
			// duplicate (its slot may alias a newer seq's bit).
			a.late++
			return false
		}
		f.base = seq
	} else if seq > f.max {
		if gap := seq - f.base; gap >= span {
			// Slide the window forward, clearing the vacated bits.
			newBase := seq - span + 1
			if newBase-f.base >= span {
				for i := range f.bits {
					f.bits[i] = 0
				}
			} else {
				for s := f.base; s != newBase; s++ {
					idx := s & (span - 1)
					f.bits[idx>>6] &^= 1 << (idx & 63)
				}
			}
			f.base = newBase
		}
		f.max = seq
	}
	idx := seq & (span - 1)
	word, bit := idx>>6, uint64(1)<<(idx&63)
	if f.bits[word]&bit != 0 {
		return false
	}
	f.bits[word] |= bit
	return true
}

// AddEcho feeds one reflected-packet record (an EchoLog entry).
func (d *StreamDecoder) AddEcho(r Record) {
	if d.live != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	a := &d.echo
	tx := r.TxTime - d.start
	rx := r.RxTime
	if rx != 0 {
		rx -= d.start
	}
	if rx > a.maxT {
		a.maxT = rx
	}
	rtt := rx - tx
	if d.exact {
		if a.samples == nil {
			a.samples = make([]float64, 0, d.expect)
		}
		a.samples = append(a.samples, float64(rtt))
	}
	if a.sketch != nil {
		a.sketch.Add(float64(rtt))
	}
	i := d.widx(rx)
	if i < d.sealed {
		d.lateSealed++
	}
	for i >= len(a.sums) {
		a.sums = append(a.sums, 0)
		a.ns = append(a.ns, 0)
	}
	a.sums[i] += rtt
	a.ns[i]++
	a.totalRTT += rtt
	a.count++
	if rtt > a.maxRTT {
		a.maxRTT = rtt
	}
	d.maybeSeal()
}

// LateArrivals reports first arrivals that slid out of the duplicate
// bitmap before arriving and were therefore miscounted as duplicates
// (zero on any feed whose per-flow reordering stays within the span).
func (d *StreamDecoder) LateArrivals() int { return d.recv.late }

// SealViolations reports records that targeted a window already
// published to the live sink — feeds whose in-flight delay exceeded
// the WithLiveWindows lag, so the early-published window understates
// the final one. Zero means every live window equals its Finalize
// value.
func (d *StreamDecoder) SealViolations() int {
	if d.live != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	return d.lateSealed
}

// maybeSeal publishes every window the feed has conclusively moved
// past: window i seals once all three sides have progressed liveLag
// beyond its end, leaving only records that would violate the lag
// bound able to touch it. Callers hold mu.
func (d *StreamDecoder) maybeSeal() {
	if d.live == nil {
		return
	}
	progress := d.sent.maxT
	if d.recv.maxT < progress {
		progress = d.recv.maxT
	}
	if d.echo.maxT < progress {
		progress = d.echo.maxT
	}
	for time.Duration(d.sealed+1)*d.window+d.liveLag <= progress {
		d.live(d.sealed, d.windowAt(d.sealed))
		d.sealed++
	}
}

// windowAt folds the accumulators into window i's stats — the one
// computation shared by live sealing and Finalize, so an early-sealed
// window and its end-of-run counterpart can only differ if the feed
// itself violated the seal lag.
func (d *StreamDecoder) windowAt(i int) WindowStats {
	w := WindowStats{T: time.Duration(i) * d.window}
	var acc winAcc
	if i < len(d.recv.wins) {
		acc = d.recv.wins[i]
	}
	w.Packets = acc.packets
	w.Bytes = acc.bytes
	w.BitrateKbps = float64(acc.bytes) * 8 / d.window.Seconds() / 1000
	if acc.packets > 0 {
		w.Delay = acc.delaySum / time.Duration(acc.packets)
	}
	if acc.jitterN > 0 {
		w.JitterSamples = acc.jitterN
		w.Jitter = acc.jitterSum / time.Duration(acc.jitterN)
	}
	sentHere := 0
	if i < len(d.sent.perWin) {
		sentHere = d.sent.perWin[i]
	}
	distinctHere := 0
	if i < len(d.recv.distinctByTxWin) {
		distinctHere = d.recv.distinctByTxWin[i]
	}
	if loss := sentHere - distinctHere; loss > 0 {
		w.Loss = loss
	}
	if i < len(d.echo.ns) && d.echo.ns[i] > 0 {
		w.RTT = d.echo.sums[i] / time.Duration(d.echo.ns[i])
		w.RTTSamples = d.echo.ns[i]
	}
	return w
}

// Finalize folds the accumulators into a Result identical in shape to
// Decode's. It must be called once, after all feeding is done. With a
// live sink installed, every window not yet sealed is published before
// Finalize returns, so subscribers see the complete window series.
func (d *StreamDecoder) Finalize() *Result {
	if d.live != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	res := &Result{Window: d.window}
	res.Sent = d.sent.total
	res.Received = d.recv.received

	maxT := d.recv.maxT
	if d.sent.maxT > maxT {
		maxT = d.sent.maxT
	}
	if d.echo.maxT > maxT {
		maxT = d.echo.maxT
	}
	nWin := int(maxT/d.window) + 1
	if d.sent.total == 0 && d.recv.received == 0 && d.echo.count == 0 {
		nWin = 0
	}
	res.Windows = make([]WindowStats, nWin)

	winSecs := d.window.Seconds()
	var jitterSum time.Duration
	var jitterN int
	var totalBytes int
	for i := range res.Windows {
		w := d.windowAt(i)
		res.Windows[i] = w
		totalBytes += w.Bytes
		if w.JitterSamples > 0 {
			jitterSum += d.recv.wins[i].jitterSum
			jitterN += w.JitterSamples
			if w.Jitter > res.MaxJitter {
				res.MaxJitter = w.Jitter
			}
		}
		res.Lost += w.Loss
		if d.live != nil && i >= d.sealed {
			d.live(i, w)
		}
	}
	if d.live != nil && d.sealed < len(res.Windows) {
		d.sealed = len(res.Windows)
	}
	res.MaxDelay = d.recv.maxDelay
	res.MaxRTT = d.echo.maxRTT
	if nWin > 0 {
		res.AvgBitrateKbps = float64(totalBytes) * 8 / (float64(nWin) * winSecs) / 1000
	}
	if res.Received > 0 {
		res.AvgDelay = d.recv.totalDelay / time.Duration(res.Received)
	}
	if jitterN > 0 {
		res.AvgJitter = jitterSum / time.Duration(jitterN)
	}
	if d.echo.count > 0 {
		res.AvgRTT = d.echo.totalRTT / time.Duration(d.echo.count)
	}
	if d.exact {
		// Selection reorders the samples in place; the multiset, and
		// so a repeated call's answer, is unchanged.
		if len(d.recv.samples) > 0 {
			ps := stats.SelectPercentiles(d.recv.samples, 95, 99)
			res.P95Delay, res.P99Delay = time.Duration(ps[0]), time.Duration(ps[1])
		}
		if len(d.echo.samples) > 0 {
			ps := stats.SelectPercentiles(d.echo.samples, 95, 99)
			res.P95RTT, res.P99RTT = time.Duration(ps[0]), time.Duration(ps[1])
		}
	} else {
		d.sketchPercentiles(res)
	}
	return res
}

// FinalizeBoth is Finalize for a decoder that keeps both percentile
// sources (WithExactPercentiles and WithSketch): exact is Finalize's
// result, and sketched is a copy of it that carries the sketch's
// P95/P99 instead.
func (d *StreamDecoder) FinalizeBoth() (exact, sketched *Result) {
	exact = d.Finalize()
	sketched = exact.Clone()
	d.sketchPercentiles(sketched)
	return exact, sketched
}

func (d *StreamDecoder) sketchPercentiles(res *Result) {
	res.P95Delay, res.P99Delay, res.P95RTT, res.P99RTT = 0, 0, 0, 0
	if d.recv.sketch.Count() > 0 {
		res.P95Delay = time.Duration(d.recv.sketch.Quantile(95))
		res.P99Delay = time.Duration(d.recv.sketch.Quantile(99))
	}
	if d.echo.sketch.Count() > 0 {
		res.P95RTT = time.Duration(d.echo.sketch.Quantile(95))
		res.P99RTT = time.Duration(d.echo.sketch.Quantile(99))
	}
}

// RetainedBytes reports the decoder's current memory footprint: window
// accumulators, per-flow duplicate bitmaps, and sketches. In the
// default sketch mode this is O(windows + flows) regardless of how
// many records were fed; WithExactPercentiles adds the retained sample
// slices (8 B per delay or RTT sample).
func (d *StreamDecoder) RetainedBytes() int {
	const (
		winAccBytes = 40 // 5 machine words
		flowFixed   = 64 // flowDedup struct + map entry overhead
		header      = 256
	)
	b := header
	b += cap(d.recv.wins) * winAccBytes
	b += cap(d.recv.distinctByTxWin) * 8
	b += cap(d.sent.perWin) * 8
	b += cap(d.echo.sums) * 8
	b += cap(d.echo.ns) * 8
	for _, f := range d.recv.flows {
		b += flowFixed + cap(f.bits)*8
	}
	if d.recv.sketch != nil {
		b += d.recv.sketch.RetainedBytes()
	}
	if d.echo.sketch != nil {
		b += d.echo.sketch.RetainedBytes()
	}
	b += cap(d.recv.samples) * 8
	b += cap(d.echo.samples) * 8
	return b
}

// FeedLogs replays whole logs through the decoder: sent and echo in
// log order (order-insensitive), recv in RxTime order — already-sorted
// receiver logs (every live capture) are fed in place, others via one
// stable-sorted copy, exactly reproducing the batch decoder's
// ordering.
func (d *StreamDecoder) FeedLogs(sent, recv, echo *Log) {
	if sent != nil {
		for _, r := range sent.Records {
			d.AddSent(r)
		}
	}
	if recv != nil {
		arrivals := recv.Records
		if !sortedByRxTime(arrivals) {
			arrivals = append([]Record(nil), arrivals...)
			sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].RxTime < arrivals[j].RxTime })
		}
		for _, r := range arrivals {
			d.AddRecv(r)
		}
	}
	if echo != nil {
		for _, r := range echo.Records {
			d.AddEcho(r)
		}
	}
}

// DecodeStream is the drop-in streaming counterpart of Decode: one
// pass over the logs through a StreamDecoder. With no options it uses
// the quantile sketch for P95/P99; pass WithExactPercentiles for a
// result byte-identical to Decode.
func DecodeStream(sent, recv, echo *Log, window time.Duration, opts ...StreamOption) *Result {
	d := NewStreamDecoder(window, opts...)
	d.FeedLogs(sent, recv, echo)
	return d.Finalize()
}
