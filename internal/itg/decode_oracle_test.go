package itg

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/stats"
)

// decodeOracle is the batch ITGDec analog, the reference that Decode
// and every StreamDecoder feed are tested against. It correlates a
// sender log, receiver log, and (optionally) the sender's echo log into
// windowed QoS series the direct way: arrivals stable-sorted by RxTime,
// loss from an unbounded set of received (flow, seq) keys, and
// percentiles over a copy of every delay and RTT sample. echo may be nil
// for MeterOWD flows.
func decodeOracle(sent, recv, echo *Log, window time.Duration) *Result {
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

// FuzzDecodeReplay: Decode, the replay of saved logs through one exact
// StreamDecoder, equals the batch oracle in every field on any logs that
// meet the stream decoder's precondition. The fuzz bytes drive a
// generator that keeps it: one to three flows with unique, gapped
// sequence numbers (departures may start before zero), every arrival a
// copy of a sent record delayed 0-255 ms, some lost and some delivered
// twice, echoes with their own delays, at most 1024 records per flow
// (well inside the 4096-sequence bitmap span), and the receive and echo
// logs shuffled (or, on a flag, receives left in RxTime order to take
// Decode's no-sort path).
func FuzzDecodeReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("\x02\x01\x03\x10\x20\x30\x40\x50\x60\x70\x80\x90\xa0\xb0\xc0\xd0\xe0\xf0\xff\x00\x11\x22\x33"))
	f.Add([]byte("0010000700010000")) // shuffled arrivals whose order moves the jitter
	f.Add([]byte("00000001000000"))   // a duplicate delivery beside a loss
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		flows := 1 + next()%3
		window := []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, time.Second}[next()%3]
		sortedRecv := next()%2 == 0
		now := -time.Duration(next()%4) * 100 * time.Millisecond
		seqs := make([]uint32, flows)
		sent, recv, echo := &Log{}, &Log{}, &Log{}
		for n := 0; len(data) >= 4 && n < 1024*flows; n++ {
			flow := next() % flows
			seqs[flow] += uint32(1 + next()%3)
			now += time.Duration(next()%16) * time.Millisecond
			r := Record{FlowID: uint32(flow + 1), Seq: seqs[flow], Size: 40 + flow, TxTime: now}
			sent.Add(r)
			fate := next()
			if fate%8 == 0 {
				continue // lost
			}
			arr := r
			arr.RxTime = r.TxTime + time.Duration(fate)*time.Millisecond
			recv.Add(arr)
			if fate%8 == 1 {
				arr.RxTime += time.Duration(next()%64) * time.Millisecond
				recv.Add(arr) // duplicate delivery
			}
			if fate%4 != 3 {
				ech := r
				ech.RxTime = r.TxTime + time.Duration(2*fate+next()%32)*time.Millisecond
				echo.Add(ech)
			}
		}
		shuffle := func(l *Log) {
			for i := len(l.Records) - 1; i > 0; i-- {
				j := (next()<<8 | next()) % (i + 1)
				l.Records[i], l.Records[j] = l.Records[j], l.Records[i]
			}
		}
		shuffle(recv)
		shuffle(echo)
		if sortedRecv {
			sort.SliceStable(recv.Records, func(i, j int) bool { return recv.Records[i].RxTime < recv.Records[j].RxTime })
		}
		want := decodeOracle(sent, recv, echo, window)
		if got := Decode(sent, recv, echo, window); !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode differs from the oracle on %d sent, %d received, %d echoed\noracle: %+v\ndecode: %+v",
				sent.Len(), recv.Len(), echo.Len(), want, got)
		}
	})
}

// TestDecodeOrphanArrivalCancelsLoss pins Decode outside the stream
// decoder's precondition: an arrival with no sent record in the same
// departure window as a real loss cancels it, because the replay counts
// loss per window as sent minus distinct first arrivals. The oracle,
// which looks each sent key up among the arrivals, still reports it.
func TestDecodeOrphanArrivalCancelsLoss(t *testing.T) {
	sent, recv := &Log{}, &Log{}
	sent.Add(Record{FlowID: 1, Seq: 0, Size: 90, TxTime: 0})
	recv.Add(Record{FlowID: 1, Seq: 5, Size: 90, TxTime: 10 * time.Millisecond, RxTime: 40 * time.Millisecond})
	if want := decodeOracle(sent, recv, nil, 200*time.Millisecond); want.Lost != 1 || want.Windows[0].Loss != 1 {
		t.Fatalf("oracle: Lost %d (window 0: %d), want 1", want.Lost, want.Windows[0].Loss)
	}
	got := Decode(sent, recv, nil, 200*time.Millisecond)
	if got.Lost != 0 || got.Windows[0].Loss != 0 {
		t.Fatalf("Decode: Lost %d (window 0: %d), want the documented 0", got.Lost, got.Windows[0].Loss)
	}
	if got.Sent != 1 || got.Received != 1 {
		t.Fatalf("Decode: %d sent, %d received, want 1 and 1", got.Sent, got.Received)
	}
}
