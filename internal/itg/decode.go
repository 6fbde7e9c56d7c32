package itg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/onelab/umtslab/internal/stats"
)

// WindowStats aggregates one non-overlapping time window — the paper
// samples every QoS parameter over 200 ms windows (§3.1).
type WindowStats struct {
	// Start of the window.
	T time.Duration
	// Packets/Bytes received (payload bytes, as D-ITG counts them).
	// Duplicate-delivery policy: a re-delivered (flow, seq) counts
	// again here — the window really did receive those bytes — but
	// never in Loss, which only asks whether each sent packet arrived
	// at least once. Both decoders (Decode and StreamDecoder) pin this
	// policy and are tested to agree on it.
	Packets int
	Bytes   int
	// BitrateKbps is the received payload rate in the window.
	BitrateKbps float64
	// Jitter is the mean absolute delay variation between consecutive
	// arrivals in the window; JitterSamples counts the variations.
	Jitter        time.Duration
	JitterSamples int
	// Delay is the mean one-way delay of arrivals in the window.
	Delay time.Duration
	// Loss counts packets sent in the window (by departure time) that
	// never arrived.
	Loss int
	// RTT is the mean round trip time of echoes arriving in the window
	// (MeterRTT flows); RTTSamples is the echo count.
	RTT        time.Duration
	RTTSamples int
}

// Result is the decoder's output: the ITGDec analog of per-window series
// plus flow totals.
type Result struct {
	Window  time.Duration
	Windows []WindowStats

	Sent     int
	Received int
	Lost     int

	AvgBitrateKbps float64
	AvgDelay       time.Duration
	MaxDelay       time.Duration
	AvgJitter      time.Duration
	MaxJitter      time.Duration
	AvgRTT         time.Duration
	MaxRTT         time.Duration

	// Tail percentiles over per-packet samples (zero when no samples):
	// P95/P99 one-way delay over received packets and P95/P99 RTT over
	// echoes, computed with one sort each (stats.Percentiles).
	P95Delay time.Duration
	P99Delay time.Duration
	P95RTT   time.Duration
	P99RTT   time.Duration
}

// Clone returns a deep copy of r (its own Windows slice).
func (r *Result) Clone() *Result {
	c := *r
	c.Windows = slices.Clone(r.Windows)
	return &c
}

// Decode correlates a sender log, receiver log, and (optionally) the
// sender's echo log into windowed QoS series. echo may be nil for
// MeterOWD flows.
func Decode(sent, recv, echo *Log, window time.Duration) *Result {
	if window <= 0 {
		window = 200 * time.Millisecond
	}
	res := &Result{Window: window}
	if sent == nil {
		sent = &Log{}
	}
	if recv == nil {
		recv = &Log{}
	}
	if echo == nil {
		echo = &Log{}
	}
	res.Sent = sent.Len()
	res.Received = recv.Len()

	// Horizon: cover every event.
	var maxT time.Duration
	for _, r := range sent.Records {
		if r.TxTime > maxT {
			maxT = r.TxTime
		}
	}
	for _, r := range recv.Records {
		if r.RxTime > maxT {
			maxT = r.RxTime
		}
	}
	for _, r := range echo.Records {
		if r.RxTime > maxT {
			maxT = r.RxTime
		}
	}
	nWin := int(maxT/window) + 1
	if res.Sent == 0 && res.Received == 0 && echo.Len() == 0 {
		nWin = 0
	}
	res.Windows = make([]WindowStats, nWin)
	for i := range res.Windows {
		res.Windows[i].T = time.Duration(i) * window
	}
	widx := func(t time.Duration) int {
		i := int(t / window)
		if i < 0 {
			i = 0
		}
		if i >= nWin {
			i = nWin - 1
		}
		return i
	}

	// Received packets: bitrate, delay, jitter (arrival order). Live
	// captures are already RxTime-ordered — a receiver logs at its
	// loop's monotone virtual time — so detect that in O(n) and skip
	// the copy + stable sort. A non-decreasing log fed in place is
	// exactly what the stable sort would produce (ties keep log order).
	arrivals := recv.Records
	if !sortedByRxTime(arrivals) {
		arrivals = append([]Record(nil), recv.Records...)
		sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].RxTime < arrivals[j].RxTime })
	}
	type acc struct {
		jitterSum time.Duration
		jitterN   int
		delaySum  time.Duration
	}
	accs := make([]acc, nWin)
	var haveLast bool
	var lastDelay time.Duration
	var totalDelay time.Duration
	type flowSeq struct {
		flow uint32
		seq  uint32
	}
	received := make(map[flowSeq]struct{}, len(arrivals))
	delaySamples := make([]float64, 0, len(arrivals))
	for _, r := range arrivals {
		received[flowSeq{r.FlowID, r.Seq}] = struct{}{}
		i := widx(r.RxTime)
		w := &res.Windows[i]
		w.Packets++
		w.Bytes += r.Size
		delay := r.RxTime - r.TxTime
		delaySamples = append(delaySamples, float64(delay))
		accs[i].delaySum += delay
		totalDelay += delay
		if delay > res.MaxDelay {
			res.MaxDelay = delay
		}
		if haveLast {
			dv := delay - lastDelay
			if dv < 0 {
				dv = -dv
			}
			accs[i].jitterSum += dv
			accs[i].jitterN++
		}
		lastDelay = delay
		haveLast = true
	}

	// Losses, by departure window.
	for _, r := range sent.Records {
		if _, ok := received[flowSeq{r.FlowID, r.Seq}]; !ok {
			res.Lost++
			res.Windows[widx(r.TxTime)].Loss++
		}
	}

	// RTT from echoes, by echo-arrival window.
	type rttAcc struct {
		sum time.Duration
		n   int
	}
	rtts := make([]rttAcc, nWin)
	rttSamples := make([]float64, 0, len(echo.Records))
	var totalRTT time.Duration
	for _, r := range echo.Records {
		rtt := r.RxTime - r.TxTime
		rttSamples = append(rttSamples, float64(rtt))
		i := widx(r.RxTime)
		rtts[i].sum += rtt
		rtts[i].n++
		totalRTT += rtt
		if rtt > res.MaxRTT {
			res.MaxRTT = rtt
		}
	}

	// Fold the accumulators into the windows.
	winSecs := window.Seconds()
	var jitterSum time.Duration
	var jitterN int
	var totalBytes int
	for i := range res.Windows {
		w := &res.Windows[i]
		totalBytes += w.Bytes
		w.BitrateKbps = float64(w.Bytes) * 8 / winSecs / 1000
		if w.Packets > 0 {
			w.Delay = accs[i].delaySum / time.Duration(w.Packets)
		}
		if accs[i].jitterN > 0 {
			w.JitterSamples = accs[i].jitterN
			w.Jitter = accs[i].jitterSum / time.Duration(accs[i].jitterN)
			jitterSum += accs[i].jitterSum
			jitterN += accs[i].jitterN
			if w.Jitter > res.MaxJitter {
				res.MaxJitter = w.Jitter
			}
		}
		if rtts[i].n > 0 {
			w.RTT = rtts[i].sum / time.Duration(rtts[i].n)
			w.RTTSamples = rtts[i].n
		}
	}
	if nWin > 0 {
		res.AvgBitrateKbps = float64(totalBytes) * 8 / (float64(nWin) * winSecs) / 1000
	}
	if res.Received > 0 {
		res.AvgDelay = totalDelay / time.Duration(res.Received)
	}
	if jitterN > 0 {
		res.AvgJitter = jitterSum / time.Duration(jitterN)
	}
	if echo.Len() > 0 {
		res.AvgRTT = totalRTT / time.Duration(echo.Len())
	}
	if len(delaySamples) > 0 {
		ps := stats.Percentiles(delaySamples, 95, 99)
		res.P95Delay, res.P99Delay = time.Duration(ps[0]), time.Duration(ps[1])
	}
	if len(rttSamples) > 0 {
		ps := stats.Percentiles(rttSamples, 95, 99)
		res.P95RTT, res.P99RTT = time.Duration(ps[0]), time.Duration(ps[1])
	}
	return res
}

// BitrateSeries returns the per-window received bitrate in kbit/s
// (Figure 1 / Figure 4 of the paper).
func (r *Result) BitrateSeries() stats.Series {
	out := make(stats.Series, len(r.Windows))
	for i, w := range r.Windows {
		out[i] = stats.Point{T: w.T, V: w.BitrateKbps}
	}
	return out
}

// JitterSeries returns the per-window jitter in seconds for windows with
// at least one delay-variation sample (Figure 2 / Figure 5).
func (r *Result) JitterSeries() stats.Series {
	var out stats.Series
	for _, w := range r.Windows {
		if w.JitterSamples > 0 {
			out = append(out, stats.Point{T: w.T, V: w.Jitter.Seconds()})
		}
	}
	return out
}

// LossSeries returns the per-window loss in packets (Figure 6).
func (r *Result) LossSeries() stats.Series {
	out := make(stats.Series, len(r.Windows))
	for i, w := range r.Windows {
		out[i] = stats.Point{T: w.T, V: float64(w.Loss)}
	}
	return out
}

// RTTSeries returns the per-window mean RTT in seconds for windows with
// echo samples (Figure 3 / Figure 7).
func (r *Result) RTTSeries() stats.Series {
	var out stats.Series
	for _, w := range r.Windows {
		if w.RTTSamples > 0 {
			out = append(out, stats.Point{T: w.T, V: w.RTT.Seconds()})
		}
	}
	return out
}

// DelaySeries returns the per-window mean one-way delay in seconds.
func (r *Result) DelaySeries() stats.Series {
	var out stats.Series
	for _, w := range r.Windows {
		if w.Packets > 0 {
			out = append(out, stats.Point{T: w.T, V: w.Delay.Seconds()})
		}
	}
	return out
}

// Summary renders the flow totals like `ITGDec -v`.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packets: sent=%d received=%d lost=%d (%.2f%%)\n",
		r.Sent, r.Received, r.Lost, 100*float64(r.Lost)/max1(float64(r.Sent)))
	fmt.Fprintf(&b, "bitrate: avg=%.1f kbps\n", r.AvgBitrateKbps)
	fmt.Fprintf(&b, "delay:   avg=%.1f ms p95=%.1f ms p99=%.1f ms max=%.1f ms\n",
		r.AvgDelay.Seconds()*1000, r.P95Delay.Seconds()*1000,
		r.P99Delay.Seconds()*1000, r.MaxDelay.Seconds()*1000)
	fmt.Fprintf(&b, "jitter:  avg=%.2f ms max=%.2f ms\n",
		r.AvgJitter.Seconds()*1000, r.MaxJitter.Seconds()*1000)
	if r.AvgRTT > 0 {
		fmt.Fprintf(&b, "rtt:     avg=%.1f ms p95=%.1f ms p99=%.1f ms max=%.1f ms\n",
			r.AvgRTT.Seconds()*1000, r.P95RTT.Seconds()*1000,
			r.P99RTT.Seconds()*1000, r.MaxRTT.Seconds()*1000)
	}
	return b.String()
}

// sortedByRxTime reports whether the records are already in
// non-decreasing RxTime order (one O(n) pass; shared by Decode's
// fast path and StreamDecoder.FeedLogs).
func sortedByRxTime(records []Record) bool {
	for i := 1; i < len(records); i++ {
		if records[i].RxTime < records[i-1].RxTime {
			return false
		}
	}
	return true
}

func max1(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}
