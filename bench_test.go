// Benchmarks regenerating the paper's evaluation: one benchmark per
// figure (the paper has no tables), plus ablation benches for the design
// choices called out in DESIGN.md §5 and micro-benchmarks of the hot
// substrate paths.
//
// Each figure benchmark runs the complete experiment — dial-up, 120 s of
// traffic in virtual time, decoding — once per iteration and reports the
// figure's headline quantities via b.ReportMetric, so
//
//	go test -bench 'Figure' -benchmem
//
// prints the reproduced numbers next to the timing.
package umtslab_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/itg"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/tcp"
	"github.com/onelab/umtslab/internal/testbed"
	"github.com/onelab/umtslab/internal/umts"
	"github.com/onelab/umtslab/internal/vsys"
)

const paperDuration = 120 * time.Second

// runCell executes one (path, workload) experiment per benchmark
// iteration and returns the last result for metric reporting.
func runCell(b *testing.B, path testbed.Path, wl testbed.Workload) *testbed.ExperimentResult {
	b.Helper()
	var res *testbed.ExperimentResult
	for i := 0; i < b.N; i++ {
		rp, err := testbed.NewScenario(
			testbed.WithSeed(int64(i+1)), testbed.WithPath(path),
			testbed.WithWorkload(wl), testbed.WithDuration(paperDuration),
		).Run()
		if err != nil {
			b.Fatal(err)
		}
		res = rp.Results[0]
	}
	return res
}

// --- Figures 1-3: VoIP-like flow ---

func BenchmarkFigure1VoIPBitrate(b *testing.B) {
	u := runCell(b, testbed.PathUMTS, testbed.WorkloadVoIP)
	e := runCell(b, testbed.PathEthernet, testbed.WorkloadVoIP)
	b.ReportMetric(u.Decoded.AvgBitrateKbps, "umts_kbps")
	b.ReportMetric(e.Decoded.AvgBitrateKbps, "eth_kbps")
	b.ReportMetric(float64(u.Decoded.Lost), "umts_lost")
}

func BenchmarkFigure2VoIPJitter(b *testing.B) {
	u := runCell(b, testbed.PathUMTS, testbed.WorkloadVoIP)
	e := runCell(b, testbed.PathEthernet, testbed.WorkloadVoIP)
	b.ReportMetric(u.Decoded.AvgJitter.Seconds()*1000, "umts_avg_ms")
	b.ReportMetric(u.Decoded.MaxJitter.Seconds()*1000, "umts_max_ms")
	b.ReportMetric(e.Decoded.AvgJitter.Seconds()*1000, "eth_avg_ms")
}

func BenchmarkFigure3VoIPRTT(b *testing.B) {
	u := runCell(b, testbed.PathUMTS, testbed.WorkloadVoIP)
	e := runCell(b, testbed.PathEthernet, testbed.WorkloadVoIP)
	b.ReportMetric(u.Decoded.AvgRTT.Seconds()*1000, "umts_avg_ms")
	b.ReportMetric(u.Decoded.MaxRTT.Seconds()*1000, "umts_max_ms")
	b.ReportMetric(e.Decoded.AvgRTT.Seconds()*1000, "eth_avg_ms")
}

// --- Figures 4-7: 1 Mbps CBR flow ---

func BenchmarkFigure4SatBitrate(b *testing.B) {
	u := runCell(b, testbed.PathUMTS, testbed.WorkloadCBR1M)
	e := runCell(b, testbed.PathEthernet, testbed.WorkloadCBR1M)
	br := u.Decoded.BitrateSeries()
	b.ReportMetric(br.Before(45*time.Second).Mean(), "umts_early_kbps")
	b.ReportMetric(br.After(55*time.Second).Mean(), "umts_late_kbps")
	b.ReportMetric(e.Decoded.AvgBitrateKbps, "eth_kbps")
}

func BenchmarkFigure5SatJitter(b *testing.B) {
	u := runCell(b, testbed.PathUMTS, testbed.WorkloadCBR1M)
	e := runCell(b, testbed.PathEthernet, testbed.WorkloadCBR1M)
	b.ReportMetric(u.Decoded.MaxJitter.Seconds()*1000, "umts_max_ms")
	b.ReportMetric(e.Decoded.MaxJitter.Seconds()*1000, "eth_max_ms")
}

func BenchmarkFigure6SatLoss(b *testing.B) {
	u := runCell(b, testbed.PathUMTS, testbed.WorkloadCBR1M)
	e := runCell(b, testbed.PathEthernet, testbed.WorkloadCBR1M)
	loss := u.Decoded.LossSeries()
	b.ReportMetric(loss.Before(45*time.Second).Mean(), "umts_early_pkt_per_win")
	b.ReportMetric(loss.After(55*time.Second).Mean(), "umts_late_pkt_per_win")
	b.ReportMetric(float64(e.Decoded.Lost), "eth_lost_total")
}

func BenchmarkFigure7SatRTT(b *testing.B) {
	u := runCell(b, testbed.PathUMTS, testbed.WorkloadCBR1M)
	e := runCell(b, testbed.PathEthernet, testbed.WorkloadCBR1M)
	b.ReportMetric(u.Decoded.AvgRTT.Seconds(), "umts_avg_s")
	b.ReportMetric(u.Decoded.MaxRTT.Seconds(), "umts_max_s")
	b.ReportMetric(e.Decoded.AvgRTT.Seconds()*1000, "eth_avg_ms")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationAdaptationOff disables the operator's on-demand rate
// upgrades: the Figure 4 knee disappears and the late-phase bitrate
// stays at the initial bearer rate.
func BenchmarkAblationAdaptationOff(b *testing.B) {
	var late float64
	for i := 0; i < b.N; i++ {
		opCfg := umts.Commercial()
		opCfg.Adaptation.Enabled = false
		tb, err := testbed.New(testbed.Options{Seed: int64(i + 1), Operator: &opCfg})
		if err != nil {
			b.Fatal(err)
		}
		res, err := tb.RunExperiment(testbed.ExperimentSpec{
			Path: testbed.PathUMTS, Workload: testbed.WorkloadCBR1M, Duration: paperDuration,
		})
		if err != nil {
			b.Fatal(err)
		}
		late = res.Decoded.BitrateSeries().After(55 * time.Second).Mean()
	}
	b.ReportMetric(late, "late_kbps_no_adapt")
}

// BenchmarkAblationQueueSizing sweeps the radio buffer size and reports
// the RTT-versus-loss trade-off under saturation.
func BenchmarkAblationQueueSizing(b *testing.B) {
	for _, q := range []int{12500, 50000, 200000} {
		q := q
		b.Run(byteLabel(q), func(b *testing.B) {
			var maxRTT, lossPct float64
			for i := 0; i < b.N; i++ {
				opCfg := umts.Commercial()
				opCfg.Uplink.QueueBytes = q
				opCfg.Fades.MeanInterval = 0
				tb, err := testbed.New(testbed.Options{Seed: int64(i + 1), Operator: &opCfg})
				if err != nil {
					b.Fatal(err)
				}
				res, err := tb.RunExperiment(testbed.ExperimentSpec{
					Path: testbed.PathUMTS, Workload: testbed.WorkloadCBR1M, Duration: 60 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				maxRTT = res.Decoded.MaxRTT.Seconds()
				lossPct = 100 * float64(res.Decoded.Lost) / float64(res.Decoded.Sent)
			}
			b.ReportMetric(maxRTT, "max_rtt_s")
			b.ReportMetric(lossPct, "loss_pct")
		})
	}
}

// BenchmarkAblationIsolationOff removes the POSTROUTING DROP rule after
// start and measures the leakage the paper's rule prevents: packets from
// a foreign slice that escape through ppp0.
func BenchmarkAblationIsolationOff(b *testing.B) {
	for _, withDrop := range []bool{true, false} {
		withDrop := withDrop
		name := "with_drop_rule"
		if !withDrop {
			name = "without_drop_rule"
		}
		b.Run(name, func(b *testing.B) {
			var leaked float64
			for i := 0; i < b.N; i++ {
				leaked = runIsolationProbe(b, int64(i+1), withDrop)
			}
			b.ReportMetric(leaked, "leaked_pkts")
		})
	}
}

func runIsolationProbe(b *testing.B, seed int64, withDrop bool) float64 {
	b.Helper()
	tb, err := testbed.New(testbed.Options{Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	_, fe, err := tb.NewUMTSSlice("holder")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tb.StartUMTS(fe); err != nil {
		b.Fatal(err)
	}
	if !withDrop {
		// The ablation: strip the filter rules the backend installed.
		tb.NapoliFilter.DeleteByComment("umts:holder")
	}
	intruder, err := tb.NapoliHost.CreateSlice("intruder")
	if err != nil {
		b.Fatal(err)
	}
	ppp0 := tb.Napoli.Iface("ppp0")
	before := ppp0.TxPackets
	for i := 0; i < 100; i++ {
		intruder.Send(&netsim.Packet{
			Dst: ppp0.Peer, Proto: netsim.ProtoUDP, SrcPort: 1, DstPort: 9,
			Payload: []byte("leak?"),
		})
	}
	tb.Loop.RunUntil(tb.Loop.Now() + 2*time.Second)
	return float64(ppp0.TxPackets - before)
}

// BenchmarkAblationSharedAccess contrasts the paper's exclusive usage
// model with hypothetical shared access: two concurrent VoIP flows on
// the low-bandwidth link interfere (the §2.2 motivation).
func BenchmarkAblationSharedAccess(b *testing.B) {
	var soloJitter, sharedJitter float64
	for i := 0; i < b.N; i++ {
		soloJitter = sharedVoIPJitter(b, int64(i+1), 1)
		sharedJitter = sharedVoIPJitter(b, int64(i+1), 4)
	}
	b.ReportMetric(soloJitter*1000, "solo_jitter_ms")
	b.ReportMetric(sharedJitter*1000, "shared4_jitter_ms")
}

// sharedVoIPJitter runs n concurrent VoIP flows from the same slice over
// the UMTS path and returns the first flow's average jitter in seconds.
func sharedVoIPJitter(b *testing.B, seed int64, n int) float64 {
	b.Helper()
	tb, err := testbed.New(testbed.Options{Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	slice, fe, err := tb.NewUMTSSlice("sharer")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tb.StartUMTS(fe); err != nil {
		b.Fatal(err)
	}
	if _, err := tb.Invoke(func(cb func(vsys.Result)) error {
		return fe.AddDest(testbed.InriaEthAddr.String(), cb)
	}); err != nil {
		b.Fatal(err)
	}
	recvSlice, err := tb.InriaHost.CreateSlice("probe")
	if err != nil {
		b.Fatal(err)
	}
	const dur = 30 * time.Second
	senders := make([]*itg.Sender, n)
	receivers := make([]*itg.Receiver, n)
	for i := 0; i < n; i++ {
		rcv := itg.NewReceiver(tb.Loop, func(p *netsim.Packet) error { return recvSlice.Send(p) })
		receivers[i] = rcv
		dport := uint16(9000 + i)
		sport := uint16(5000 + i)
		if err := recvSlice.Bind(netsim.ProtoUDP, dport, rcv.Handle); err != nil {
			b.Fatal(err)
		}
		spec := itg.VoIPG711(uint32(i+1), testbed.InriaEthAddr, sport, dport, dur)
		snd := itg.NewSender(tb.Loop, itoa(i), spec, func(p *netsim.Packet) error { return slice.Send(p) })
		if err := slice.Bind(netsim.ProtoUDP, sport, snd.HandleEcho); err != nil {
			b.Fatal(err)
		}
		senders[i] = snd
	}
	start := tb.Loop.Now()
	for _, s := range senders {
		s.Start()
	}
	tb.Loop.RunUntil(start + dur + 5*time.Second)
	res := itg.Decode(&senders[0].SentLog, &receivers[0].RecvLog, &senders[0].EchoLog, 200*time.Millisecond)
	return res.AvgJitter.Seconds()
}

func byteLabel(n int) string {
	switch {
	case n >= 1000:
		return itoa(n/1000) + "KB"
	default:
		return itoa(n) + "B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Substrate micro-benchmarks ---

func BenchmarkIPv4Marshal(b *testing.B) {
	pkt := &netsim.Packet{
		Src: netsim.MustAddr("10.0.0.1"), Dst: netsim.MustAddr("10.0.0.2"),
		Proto: netsim.ProtoUDP, TTL: 64, SrcPort: 5000, DstPort: 9000,
		Payload: make([]byte, 1024),
	}
	b.SetBytes(int64(pkt.Length()))
	for i := 0; i < b.N; i++ {
		wire := pkt.Marshal()
		if _, err := netsim.Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventLoop(b *testing.B) {
	loop := sim.NewLoop(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loop.After(time.Microsecond, func() {})
		if i%1024 == 0 {
			loop.Run()
		}
	}
	loop.Run()
}

func BenchmarkITGDecode(b *testing.B) {
	// Decode a 120 s, 122 pps flow (the Figure 4-7 workload size).
	sent := &itg.Log{}
	recv := &itg.Log{}
	for i := 0; i < 14640; i++ {
		tx := time.Duration(i) * 8196721 * time.Nanosecond
		sent.Add(itg.Record{Seq: uint32(i), Size: 1024, TxTime: tx})
		if i%3 != 0 {
			recv.Add(itg.Record{Seq: uint32(i), Size: 1024, TxTime: tx, RxTime: tx + 500*time.Millisecond})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		itg.Decode(sent, recv, nil, 200*time.Millisecond)
	}
}

// BenchmarkStreamDecode feeds the same 120 s, 122 pps flow record by
// record into the constant-memory streaming decoder (sketch-mode
// percentiles), interleaved as a live run's endpoints deliver them:
// with a 500 ms one-way delay, the arrival of the packet sent 61
// periods earlier follows each departure. Compare ns/op against
// BenchmarkITGDecode for the cost of analyzing one record at a time
// instead of post hoc. Its presence in the bench-smoke gate keeps the
// streaming path exercised on every verify.
func BenchmarkStreamDecode(b *testing.B) {
	const n, lag, period = 14640, 61, 8196721 * time.Nanosecond
	var res *itg.Result
	for i := 0; i < b.N; i++ {
		d := itg.NewStreamDecoder(200 * time.Millisecond)
		for k := 0; k < n+lag; k++ {
			if k < n {
				d.AddSent(itg.Record{Seq: uint32(k), Size: 1024, TxTime: time.Duration(k) * period})
			}
			if j := k - lag; j >= 0 && j%3 != 0 {
				tx := time.Duration(j) * period
				d.AddRecv(itg.Record{Seq: uint32(j), Size: 1024, TxTime: tx, RxTime: tx + 500*time.Millisecond})
			}
		}
		res = d.Finalize()
	}
	b.ReportMetric(float64(res.Lost), "lost")
}

func BenchmarkDialUp(b *testing.B) {
	// Full bring-up: registration, AT chat, PPP negotiation, rules.
	for i := 0; i < b.N; i++ {
		tb, err := testbed.New(testbed.Options{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		_, fe, err := tb.NewUMTSSlice("bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tb.StartUMTS(fe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionTCPUpload measures a real TCP bulk upload over the
// UMTS path (extension beyond the paper's UDP evaluation): goodput is
// bounded by the radio uplink and the SRTT shows the radio buffer's
// bufferbloat.
func BenchmarkExtensionTCPUpload(b *testing.B) {
	var goodput, srttMs float64
	for i := 0; i < b.N; i++ {
		goodput, srttMs = tcpUploadRun(b, int64(i+1))
	}
	b.ReportMetric(goodput, "goodput_kbps")
	b.ReportMetric(srttMs, "srtt_ms")
}

func tcpUploadRun(b *testing.B, seed int64) (goodputKbps, srttMs float64) {
	b.Helper()
	tb, err := testbed.New(testbed.Options{Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	slice, fe, err := tb.NewUMTSSlice("uploader")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tb.StartUMTS(fe); err != nil {
		b.Fatal(err)
	}
	if _, err := tb.Invoke(func(cb func(vsys.Result)) error {
		return fe.AddDest(testbed.InriaEthAddr.String(), cb)
	}); err != nil {
		b.Fatal(err)
	}
	napoliTCP, err := tcp.NewStack(tb.Loop, tb.Napoli, slice.Send)
	if err != nil {
		b.Fatal(err)
	}
	inriaTCP, err := tcp.NewStack(tb.Loop, tb.Inria, nil)
	if err != nil {
		b.Fatal(err)
	}
	done := false
	var doneAt time.Duration
	inriaTCP.Listen(8080, func(c *tcp.Conn) {
		c.OnData = func([]byte) {}
		c.OnClose = func(error) { done = true; doneAt = tb.Loop.Now() }
	})
	payload := make([]byte, 512<<10)
	ppp0 := tb.Napoli.Iface("ppp0")
	client, err := napoliTCP.Dial(ppp0.Addr, testbed.InriaEthAddr, 8080)
	if err != nil {
		b.Fatal(err)
	}
	start := tb.Loop.Now()
	client.OnConnect = func() { client.Write(payload); client.Close() }
	tb.Loop.RunUntil(start + 5*time.Minute)
	if !done {
		b.Fatal("upload incomplete")
	}
	el := (doneAt - start).Seconds()
	return float64(len(payload)) * 8 / el / 1000, client.SRTT().Seconds() * 1000
}

// --- PR: parallel runner & metrics overhead ---

// benchRepScenario builds an 8-rep VoIP/UMTS scenario with short
// flows, so the benchmark measures scheduling overhead rather than one
// long run.
func benchRepScenario(workers int) *testbed.Scenario {
	return testbed.NewScenario(
		testbed.WithSeed(1), testbed.WithPath(testbed.PathUMTS),
		testbed.WithWorkload(testbed.WorkloadVoIP),
		testbed.WithDuration(15*time.Second),
		testbed.WithReps(8), testbed.WithWorkers(workers),
	)
}

// BenchmarkRepsSequential is the baseline: the same schedule the pool
// runs, through a single worker.
func BenchmarkRepsSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRepScenario(1).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepsParallel fans the same schedule across GOMAXPROCS
// workers; compare ns/op against BenchmarkRepsSequential for the
// speedup on this machine.
func BenchmarkRepsParallel(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	for i := 0; i < b.N; i++ {
		if _, err := benchRepScenario(0).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperExperiment runs the complete §3 VoIP cell (dial-up,
// 30 s of traffic, decode) with allocation reporting — the end-to-end
// benchmark for the sim kernel and the zero-allocation packet path.
func BenchmarkPaperExperiment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rp, err := testbed.NewScenario(
			testbed.WithSeed(1),
			testbed.WithPath(testbed.PathUMTS),
			testbed.WithWorkload(testbed.WorkloadVoIP),
			testbed.WithDuration(30*time.Second),
		).Run()
		if err != nil {
			b.Fatal(err)
		}
		if rp.Results[0].Decoded.Received == 0 {
			b.Fatal("no traffic")
		}
	}
}

// BenchmarkFaultRecovery runs the VoIP cell with two scripted carrier
// drops and the self-healing dialer: dial-up, a drop mid-flow, a
// supervised redial, a second drop, a second recovery, decode. Besides
// measuring the fault path's cost, its presence in the bench-smoke
// gate (`make verify` runs every benchmark once) keeps the injector,
// the supervisor, and the recover-mode manager exercised end to end on
// every verify.
func BenchmarkFaultRecovery(b *testing.B) {
	sched := fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindCarrierDrop, At: 20 * time.Second},
		{Kind: fault.KindCarrierDrop, At: 35 * time.Second},
	}}
	for i := 0; i < b.N; i++ {
		rep, err := testbed.NewScenario(
			testbed.WithSeed(int64(i+1)),
			testbed.WithDuration(40*time.Second),
			testbed.WithFaults(sched),
			testbed.WithSelfHeal(nil),
		).Run()
		if err != nil {
			b.Fatal(err)
		}
		res := rep.Results[0]
		if res.Status.State != "up" {
			b.Fatalf("final state %q, want up", res.Status.State)
		}
		if res.Decoded.Received == 0 {
			b.Fatal("no traffic")
		}
	}
}

// BenchmarkFleetScale runs a scaled-down fleet scenario end to end per
// iteration — real flows plus a compact idle fleet plus aggregate
// background populations on the shard engine. Its presence in the
// bench-smoke gate keeps the whole fleet path (lazy materialization,
// cohort registration, population attach/tick/detach, fleet counters)
// exercised on every verify; bench/'s fleet_idle workload measures the
// full 100k-terminal run.
func BenchmarkFleetScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rp, err := testbed.NewScenario(
			testbed.WithSeed(int64(i+1)), testbed.WithCells(2, 1),
			testbed.WithIdleTerminals(5000), testbed.WithPopulation(200, nil),
			testbed.WithDuration(8*time.Second),
		).Run()
		if err != nil {
			b.Fatal(err)
		}
		res := rp.MultiCell
		if res.IdleTerminals != 10000 || len(res.Populations) != 2 {
			b.Fatalf("fleet wiring: idle %d, populations %d", res.IdleTerminals, len(res.Populations))
		}
		if res.Populations[0].CarriedBytes <= 0 {
			b.Fatal("population carried nothing")
		}
	}
}

// BenchmarkFleetFootprint measures the resident bytes of one compact
// powered-on terminal (TestFleetFootprintCompaction bounds it at 2 KiB)
// and reports it as a benchmark metric.
func BenchmarkFleetFootprint(b *testing.B) {
	var per float64
	var err error
	for i := 0; i < b.N; i++ {
		per, err = testbed.FleetFootprint(4096, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(per, "B/terminal")
}

// BenchmarkPopulationProbe times one leg of the population model's
// differential validation: the fluid ensemble under the standard
// 64 kbps probe spec (TestPopulationMatchesEnsemble compares it with
// the real-terminal reference leg).
func BenchmarkPopulationProbe(b *testing.B) {
	cfg := umts.FleetCell(0)
	cfg.Fades = umts.FadeConfig{}
	spec := umts.PopulationSpec{RateBps: 64e3, Start: 5 * time.Second, Duration: 20 * time.Second}
	for i := 0; i < b.N; i++ {
		res, _, err := umts.MeasurePopulation(int64(i+1), cfg, 40, spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.CarriedBytes <= 0 {
			b.Fatal("probe carried nothing")
		}
	}
}
