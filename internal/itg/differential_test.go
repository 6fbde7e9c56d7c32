package itg

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
)

// TestLiveDecodeMatchesDecodeOverLink is the differential that stands
// in for the testbed's retired batch pass: the same seeded flow runs
// twice over a jittered, lossy, queue-limited netsim link — once logged
// and decoded post hoc by Decode (the ITGDec analog), once decoded live
// by an exact StreamDecoder — and the two Results must be equal in
// every field. VoIP exercises the RTT meter over random loss; the 1 Mbps
// CBR flow overruns a 512 kbps uplink, so drop-tail queue drops supply
// most of its loss.
func TestLiveDecodeMatchesDecodeOverLink(t *testing.T) {
	for _, tc := range []struct {
		name   string
		flow   func(dst netip.Addr) FlowSpec
		uplink netsim.LinkConfig
		lossy  func(*netsim.P2PLink) uint64
	}{
		{
			name: "voip-rtt",
			flow: func(dst netip.Addr) FlowSpec { return VoIPG711(1, dst, 5000, 9000, 20*time.Second) },
			uplink: netsim.LinkConfig{RateBps: 384e3, Delay: 40 * time.Millisecond,
				Jitter: 15 * time.Millisecond, LossProb: 0.02, QueuePackets: 64},
			lossy: func(l *netsim.P2PLink) uint64 { return l.Stats(0).LossDrops },
		},
		{
			name: "cbr-drops",
			flow: func(dst netip.Addr) FlowSpec { return CBR1Mbps(2, dst, 5000, 9000, 20*time.Second) },
			uplink: netsim.LinkConfig{RateBps: 512e3, Delay: 40 * time.Millisecond,
				Jitter: 5 * time.Millisecond, LossProb: 0.01, QueueBytes: 32 << 10},
			lossy: func(l *netsim.P2PLink) uint64 { return l.Stats(0).QueueDrops },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var link *netsim.P2PLink
			build := func(loop *sim.Loop) (*Sender, *Receiver) {
				nw := netsim.NewNetwork(loop)
				a, b := nw.AddNode("a"), nw.AddNode("b")
				downlink := netsim.LinkConfig{RateBps: 2e6, Delay: 30 * time.Millisecond, Jitter: 10 * time.Millisecond, LossProb: 0.01}
				link = nw.WireP2P("ab", a, "eth0", netsim.MustAddr("10.0.0.1"), b, "eth0", netsim.MustAddr("10.0.0.2"), tc.uplink, downlink)
				rcv := NewReceiver(loop, b.Send)
				snd := NewSender(loop, tc.name, tc.flow(netsim.MustAddr("10.0.0.2")), a.Send)
				if err := b.Bind(netsim.ProtoUDP, 9000, rcv.Handle); err != nil {
					t.Fatal(err)
				}
				if err := a.Bind(netsim.ProtoUDP, 5000, snd.HandleEcho); err != nil {
					t.Fatal(err)
				}
				return snd, rcv
			}
			spec := tc.flow(netsim.MustAddr("10.0.0.2"))
			batch, _ := runFlow(21, spec, build, false)
			batchDrops := tc.lossy(link)
			live, _ := runFlow(21, spec, build, true)
			if liveDrops := tc.lossy(link); liveDrops != batchDrops || batchDrops == 0 {
				t.Fatalf("link dropped %d packets logged and %d live, want the same non-zero count", batchDrops, liveDrops)
			}
			if batch.Lost == 0 || batch.Received == 0 || (spec.Meter == MeterRTT && batch.MaxRTT == 0) {
				t.Fatalf("run too tame to compare: %d received, %d lost, max RTT %v", batch.Received, batch.Lost, batch.MaxRTT)
			}
			if !reflect.DeepEqual(batch, live) {
				t.Fatalf("live decode differs from Decode of the logged run\nbatch: %+v\nlive:  %+v", batch, live)
			}
		})
	}
}
