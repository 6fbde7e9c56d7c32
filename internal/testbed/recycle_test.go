package testbed

import (
	"runtime"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/bufpool"
)

// voipDatagram is the on-wire size of one VoIP packet: 20 B IPv4 + 8 B
// UDP + 90 B ITG payload.
const voipDatagram = 118

// TestPoolingCutsAllocations: on a paper VoIP cell, recycling packet
// buffers and packets must cut heap allocations at least 1.5x against
// the allocating reference (bufpool.SetDisabled). About 37x was
// measured on a 30 s cell; the golden report digests hold that both
// configurations produce the same bytes.
func TestPoolingCutsAllocations(t *testing.T) {
	allocs := func(disabled bool) float64 {
		bufpool.SetDisabled(disabled)
		defer bufpool.SetDisabled(false)
		return testing.AllocsPerRun(1, func() {
			if _, err := NewScenario(WithSeed(1), WithDuration(10*time.Second)).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	pooled, unpooled := allocs(false), allocs(true)
	t.Logf("heap allocations: %.0f pooled, %.0f unpooled (%.1fx)", pooled, unpooled, unpooled/pooled)
	if unpooled < 1.5*pooled {
		t.Errorf("heap allocations: %.0f pooled vs %.0f unpooled (%.2fx), want >= 1.5x fewer pooled",
			pooled, unpooled, unpooled/pooled)
	}
}

// TestSliceTxBytesBothPaths: VNET+ counts a slice's bytes on the send
// path whatever the egress. On the UMTS path the ppp0 link marshals and
// frees the packet inside node.Send, so the count must be taken before.
func TestSliceTxBytesBothPaths(t *testing.T) {
	for _, path := range []Path{PathUMTS, PathEthernet} {
		t.Run(path.String(), func(t *testing.T) {
			tb := newTB(t, 1)
			if _, err := tb.RunExperiment(ExperimentSpec{Path: path, Workload: WorkloadVoIP, Duration: 2 * time.Second}); err != nil {
				t.Fatal(err)
			}
			for _, st := range []struct {
				slice string
				stats func() (uint64, uint64)
			}{
				{"sender", func() (uint64, uint64) {
					s := tb.NapoliHost.Slice("unina_umts").Stats()
					return s.TxPackets, s.TxBytes
				}},
				{"receiver", func() (uint64, uint64) {
					s := tb.InriaHost.Slice("unina_probe").Stats()
					return s.TxPackets, s.TxBytes
				}},
			} {
				pkts, bytes := st.stats()
				if pkts == 0 || bytes != pkts*voipDatagram {
					t.Errorf("%s slice: %d packets, %d bytes; want %d bytes each", st.slice, pkts, bytes, voipDatagram)
				}
			}
		})
	}
}

// TestPacketSteadyStateNoAlloc pins the packet free list on a paper
// VoIP cell over both paths: between 20 s and 100 s of a 120 s run,
// every packet the run draws (sender emit, PPP and GTP decode) is a
// recycled one and the echo reuses the data packet, so the exchange
// makes 0 Packet allocations per packet. It counts every heap
// allocation in the window, which also catches a packet built outside
// the free list. The bound is 1 per 100 packets rather than an exact 0:
// a new peak of packets in flight (a radio fade releasing a burst into
// the GTP hop) still allocates one, and so may the runtime.
func TestPacketSteadyStateNoAlloc(t *testing.T) {
	for _, path := range []Path{PathUMTS, PathEthernet} {
		t.Run(path.String(), func(t *testing.T) {
			tb := newTB(t, 1)
			reg := tb.Loop.Metrics()
			sent, misses := reg.Counter("itg/packets_sent"), reg.Counter("bufpool/object_misses")
			var mem [2]runtime.MemStats
			var pkts, allocated [2]int64
			for i, at := range []time.Duration{20 * time.Second, 100 * time.Second} {
				tb.Loop.After(at, func() {
					runtime.ReadMemStats(&mem[i])
					pkts[i], allocated[i] = sent.Value(), misses.Value()
				})
			}
			if _, err := tb.RunExperiment(ExperimentSpec{Path: path, Workload: WorkloadVoIP, Duration: 120 * time.Second}); err != nil {
				t.Fatal(err)
			}
			n := pkts[1] - pkts[0]
			mallocs := int64(mem[1].Mallocs - mem[0].Mallocs)
			t.Logf("%d packets: %d heap allocations, %d packet free-list misses", n, mallocs, allocated[1]-allocated[0])
			if pkts[0] == 0 || n < 5000 {
				t.Fatalf("%d packets sent by 20 s, %d in the window: the flow did not span it", pkts[0], n)
			}
			if mallocs*100 >= n {
				t.Fatalf("%d heap allocations for %d packets after warm-up, want 0 per packet", mallocs, n)
			}
		})
	}
}

// TestMultiCellPacketsRecycleAcrossShards covers packets that migrate
// between loops: a packet built on a terminal's shard is freed on the
// core's, and vice versa. Results must stay byte-identical to one loop
// (diffMultiCell), and the pools must actually recycle. Run it under
// `go test -race -count=10` after touching the packet path: a packet
// touched after its hand-off across a shard edge is a data race.
func TestMultiCellPacketsRecycleAcrossShards(t *testing.T) {
	// VoIP's RTT meter sends both ways; telnet's OWD meter is one-way,
	// so the receiving loop's lists only fill.
	for _, wl := range []Workload{WorkloadVoIP, WorkloadTelnet} {
		t.Run(wl.String(), func(t *testing.T) {
			opts := Scenario{seed: 11, cells: 2, terminals: 2, workload: wl, duration: 5 * time.Second}
			diffMultiCell(t, opts, 3)
			opts.shards = 3
			res, err := runCells(opts)
			if err != nil {
				t.Fatal(err)
			}
			var gets, misses int64
			for _, s := range res.Snapshots {
				gets += s.Counter("bufpool/object_gets")
				misses += s.Counter("bufpool/object_misses")
			}
			if gets == 0 || misses*2 > gets {
				t.Fatalf("%d of %d packets allocated across 3 shards, want most recycled", misses, gets)
			}
		})
	}
}
