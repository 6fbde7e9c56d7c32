package testbed

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/itg"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/umts"
	"github.com/onelab/umtslab/internal/vsys"
)

// The ablations of DESIGN.md §5: each switches one design choice off
// at seed 1 and asserts the effect the choice is there for.

// runCBRUMTS runs the 1 Mbps flow over the UMTS path of a testbed with
// operator profile cfg.
func runCBRUMTS(t *testing.T, cfg umts.Config, dur time.Duration) *ExperimentResult {
	t.Helper()
	tb, err := New(Options{Seed: 1, Operator: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.RunExperiment(ExperimentSpec{Path: PathUMTS, Workload: WorkloadCBR1M, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAblationAdaptationOff: without the operator's on-demand rate
// upgrade the Figure 4 knee disappears, and the late bitrate stays at
// the first uplink bearer rate (151 kbps, against about 390 kbps with
// adaptation).
func TestAblationAdaptationOff(t *testing.T) {
	cfg := umts.Commercial()
	on := runCBRUMTS(t, cfg, 120*time.Second).Decoded.BitrateSeries()
	cfg.Adaptation.Enabled = false
	res := runCBRUMTS(t, cfg, 120*time.Second)
	off := res.Decoded.BitrateSeries()
	early, late := off.Before(45*time.Second).Mean(), off.After(55*time.Second).Mean()
	onLate := on.After(55 * time.Second).Mean()
	t.Logf("late bitrate: %.1f kbps without adaptation (early %.1f), %.1f kbps with it", late, early, onLate)
	if late > cfg.Uplink.RateBps/1000 || late < 0.9*early {
		t.Errorf("late bitrate %.1f kbps without adaptation, want the first bearer's (early %.1f, bearer %.0f kbps)",
			late, early, cfg.Uplink.RateBps/1000)
	}
	if onLate < 2*late {
		t.Errorf("late bitrate with adaptation %.1f kbps, want more than twice the %.1f kbps without", onLate, late)
	}
	for _, e := range res.BearerEvents {
		if strings.Contains(e, "upgraded") {
			t.Errorf("bearer upgrade with adaptation off: %q", e)
		}
	}
}

// TestAblationQueueSizing: with fades off, a deeper uplink radio buffer
// trades delay for loss under saturation. As QueueBytes grows from 12.5
// to 50 to 200 KB, max RTT rises (0.88, 2.78, 10.26 s) and loss falls
// (79.62, 79.13, 77.61 %).
func TestAblationQueueSizing(t *testing.T) {
	var prevRTT time.Duration
	prevLoss := 100.0
	for _, q := range []int{12500, 50000, 200000} {
		cfg := umts.Commercial()
		cfg.Uplink.QueueBytes = q
		cfg.Fades.MeanInterval = 0
		d := runCBRUMTS(t, cfg, 60*time.Second).Decoded
		loss := 100 * float64(d.Lost) / float64(d.Sent)
		t.Logf("queue %d B: max RTT %v, loss %.2f %%", q, d.MaxRTT, loss)
		if d.MaxRTT < 2*prevRTT {
			t.Errorf("queue %d B: max RTT %v, want at least twice the %v of the smaller queue", q, d.MaxRTT, prevRTT)
		}
		if loss >= prevLoss {
			t.Errorf("queue %d B: loss %.2f %%, want below the %.2f %% of the smaller queue", q, loss, prevLoss)
		}
		prevRTT, prevLoss = d.MaxRTT, loss
	}
}

// TestAblationIsolationOff removes the POSTROUTING DROP rules the
// backend installed: every packet a foreign slice sends to the PPP peer
// then leaves through ppp0. TestIsolationOtherSliceCannotUseUMTS holds
// the leg with the rules in place.
func TestAblationIsolationOff(t *testing.T) {
	tb := newTB(t, 1)
	_, fe, err := tb.NewUMTSSlice("holder")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.StartUMTS(fe); err != nil {
		t.Fatal(err)
	}
	tb.NapoliFilter.DeleteByComment("umts:holder")
	intruder, err := tb.NapoliHost.CreateSlice("intruder")
	if err != nil {
		t.Fatal(err)
	}
	ppp0 := tb.Napoli.Iface("ppp0")
	before := ppp0.TxPackets
	for i := 0; i < 100; i++ {
		intruder.Send(&netsim.Packet{Dst: ppp0.Peer, Proto: netsim.ProtoUDP, SrcPort: 1, DstPort: 9, Payload: []byte("leak?")})
	}
	tb.Loop.RunUntil(tb.Loop.Now() + 2*time.Second)
	if leaked := ppp0.TxPackets - before; leaked != 100 {
		t.Fatalf("%d of 100 intruder packets left through ppp0 without the DROP rules, want all", leaked)
	}
}

// TestAblationSharedAccess contrasts the paper's exclusive usage model
// with shared access: four VoIP flows from one slice on the UMTS link
// raise the first flow's average jitter (4.73 ms alone, 6.68 ms
// shared), the interference §2.2 gives as the reason for the lock.
func TestAblationSharedAccess(t *testing.T) {
	solo, shared := sharedVoIPJitter(t, 1), sharedVoIPJitter(t, 4)
	t.Logf("first flow's average jitter: %v alone, %v with 3 more flows", solo, shared)
	if shared < solo*6/5 {
		t.Fatalf("shared-access jitter %v, want at least 1.2x the %v of a flow alone", shared, solo)
	}
}

// sharedVoIPJitter runs n concurrent 30 s VoIP flows from one slice
// over the UMTS path at seed 1 and returns the first flow's average
// jitter.
func sharedVoIPJitter(t *testing.T, n int) time.Duration {
	t.Helper()
	tb := newTB(t, 1)
	slice, fe, err := tb.NewUMTSSlice("sharer")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.StartUMTS(fe); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Invoke(func(cb func(vsys.Result)) error {
		return fe.AddDest(InriaEthAddr.String(), cb)
	}); err != nil {
		t.Fatal(err)
	}
	recvSlice, err := tb.InriaHost.CreateSlice("probe")
	if err != nil {
		t.Fatal(err)
	}
	const dur = 30 * time.Second
	senders := make([]*itg.Sender, n)
	var first *itg.Receiver
	for i := range senders {
		rcv := itg.NewReceiver(tb.Loop, recvSlice.Send)
		if i == 0 {
			first = rcv
		}
		dport, sport := uint16(receiverPort+i), uint16(senderPort+i)
		if err := recvSlice.Bind(netsim.ProtoUDP, dport, rcv.Handle); err != nil {
			t.Fatal(err)
		}
		spec := itg.VoIPG711(uint32(i+1), InriaEthAddr, sport, dport, dur)
		senders[i] = itg.NewSender(tb.Loop, strconv.Itoa(i), spec, slice.Send)
		if err := slice.Bind(netsim.ProtoUDP, sport, senders[i].HandleEcho); err != nil {
			t.Fatal(err)
		}
	}
	start := tb.Loop.Now()
	for _, s := range senders {
		s.Start()
	}
	tb.Loop.RunUntil(start + dur + 5*time.Second)
	return itg.Decode(&senders[0].SentLog, &first.RecvLog, &senders[0].EchoLog, 200*time.Millisecond).AvgJitter
}
