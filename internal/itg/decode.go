package itg

import (
	"cmp"
	"fmt"
	"slices"
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
	// at least once. StreamDecoder (and so Decode) pins this policy,
	// and is tested against the batch oracle on it.
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
	// echoes: exact by selection over the retained samples, or
	// estimated by a quantile sketch (see StreamDecoder).
	P95Delay time.Duration
	P99Delay time.Duration
	P95RTT   time.Duration
	P99RTT   time.Duration
}

// Decode correlates a sender log, receiver log, and (optionally) the
// sender's echo log into windowed QoS series (the ITGDec analog of
// saved logs). echo may be nil for MeterOWD flows. It replays the logs
// through one exact StreamDecoder, the decoder every live flow uses:
// sent and echo records in log order, arrivals in stable RxTime order.
//
// The replay inherits StreamDecoder's precondition: sent (flow, seq)
// keys are unique, every received record has a sent record, and a
// flow's first arrivals are not reordered across more than the
// duplicate bitmap's span. Logs of one Sender/Receiver pair always
// meet it. Outside it, loss is a per-window count of sent packets minus
// distinct first arrivals by departure window, floored at zero, so an
// arrival with no sent record cancels one real loss in its window: one
// sent packet that never arrived plus one orphan arrival in the same
// window decode to Lost 0, not 1.
func Decode(sent, recv, echo *Log, window time.Duration) *Result {
	d := NewStreamDecoder(window, WithExactPercentiles())
	d.Expect(max(len(records(recv)), len(records(echo))))
	for _, r := range records(sent) {
		d.AddSent(r)
	}
	for _, r := range records(echo) {
		d.AddEcho(r)
	}
	// Live captures are already RxTime-ordered (a receiver logs at its
	// loop's monotone virtual time), so skip the copy and stable sort
	// when an O(n) pass finds the log in order: a non-decreasing log is
	// exactly what the sort would produce, ties keeping log order.
	arrivals := records(recv)
	if !sortedByRxTime(arrivals) {
		arrivals = slices.Clone(arrivals)
		slices.SortStableFunc(arrivals, func(a, b Record) int { return cmp.Compare(a.RxTime, b.RxTime) })
	}
	for _, r := range arrivals {
		d.AddRecv(r)
	}
	return d.Finalize()
}

// records returns l's records (none for a nil log).
func records(l *Log) []Record {
	if l == nil {
		return nil
	}
	return l.Records
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
// non-decreasing RxTime order (one O(n) pass; Decode skips its stable
// sort when they are, as every live capture is).
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
