package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"github.com/onelab/umtslab/internal/bufpool"
	"github.com/onelab/umtslab/internal/control"
	"github.com/onelab/umtslab/internal/iproute"
	"github.com/onelab/umtslab/internal/itg"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/netfilter"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/ppp"
	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/stats"
	"github.com/onelab/umtslab/internal/testbed"
)

// kernelCost is one layer function's measured cost per call.
type kernelCost struct{ ns, allocs float64 }

// timeKernel calls op in doubling batches until a batch lasts budget.
func timeKernel(budget time.Duration, op func()) kernelCost {
	op()
	var ms runtime.MemStats
	for n := 1; ; n *= 2 {
		runtime.ReadMemStats(&ms)
		a0 := ms.Mallocs
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		el := time.Since(start)
		runtime.ReadMemStats(&ms)
		if el >= budget || n >= 1<<30 {
			return kernelCost{ns: float64(el.Nanoseconds()) / float64(n), allocs: float64(ms.Mallocs-a0) / float64(n)}
		}
	}
}

// runKernels times each layer's public per-packet function on inputs
// shaped like the workload's packets (an ITG payload of payload bytes in
// UDP/IPv4), built with the layer's own constructors, and EncodeReport on
// one of the workload's reports.
func runKernels(payload int, rep *testbed.Report, budget time.Duration) (map[string]float64, error) {
	var (
		out  = map[string]float64{}
		kerr error
	)
	set := func(name string, c kernelCost, scale float64) {
		out[name+"_ns"+kernelSuffix(name)] = c.ns * scale
		out[name+"_allocs"+kernelSuffix(name)] = c.allocs * scale
	}
	fail := func(err error) {
		if kerr == nil {
			kerr = err
		}
	}

	// sim: schedule a batch of events, then run the loop through them.
	loop := sim.NewLoop(1)
	const batch = 256
	nop := func() {}
	set("sim.event", timeKernel(budget, func() {
		now := loop.Now()
		for i := 1; i <= batch; i++ {
			loop.At(now+time.Duration(i)*time.Microsecond, nop)
		}
		loop.RunUntil(now + batch*time.Microsecond)
	}), 1.0/batch)

	ue, server, gw := netip.MustParseAddr("10.64.0.2"), netip.MustParseAddr("143.225.229.10"), netip.MustParseAddr("192.168.1.1")
	pkt := &netsim.Packet{
		Src: ue, Dst: server, Proto: netsim.ProtoUDP, TTL: 64, SrcPort: 9000, DstPort: 9001,
		Payload: itg.EncodePayload(itg.KindData, 1, 1, time.Second, payload),
	}
	var wire []byte
	set("netsim.marshal", timeKernel(budget, func() { wire = pkt.AppendMarshal(wire[:0]) }), 1)
	pool := bufpool.New(metrics.NewRegistry())
	set("netsim.unmarshal", timeKernel(budget, func() {
		p, err := netsim.UnmarshalPooled(wire, pool)
		if err != nil {
			fail(fmt.Errorf("netsim.UnmarshalPooled: %w", err))
			return
		}
		pool.Put(p.Payload)
	}), 1)

	// The Napoli node's policy routing and isolation rules once the UMTS
	// slice is up (paper §2.3).
	const mark, slice = 0x10, 7
	node := netsim.NewNode(loop, "napoli")
	node.AddIface("eth0", netip.MustParseAddr("192.168.1.2"), netip.MustParsePrefix("192.168.1.0/24"))
	ppp0 := node.AddIface("ppp0", ue, netip.Prefix{})
	ppp0.Peer = netip.MustParseAddr("10.64.0.1")
	router := iproute.New(node)
	router.InstallConnected()
	router.DefaultVia("eth0", gw)
	router.AddTable("umts")
	router.AddRoute("umts", iproute.Route{Iface: "ppp0"})
	router.AddRule(iproute.Rule{Priority: 100, Fwmark: mark, From: netip.PrefixFrom(ue, 32), Table: "umts"})
	router.AddRule(iproute.Rule{Priority: 100, Fwmark: mark, To: netip.PrefixFrom(server, 32), Table: "umts"})
	fw := netfilter.New(node)
	for _, r := range []struct {
		table, chain string
		rule         netfilter.Rule
	}{
		{netfilter.TableMangle, netfilter.ChainOutput, netfilter.Rule{
			Match: netfilter.Match{SliceCtx: slice, SliceSet: true}, Target: netfilter.TargetMark, MarkValue: mark}},
		{netfilter.TableFilter, netfilter.ChainPostRouting, netfilter.Rule{
			Match: netfilter.Match{OutIface: "ppp0", SliceCtx: slice, SliceSet: true}, Target: netfilter.TargetAccept}},
		{netfilter.TableFilter, netfilter.ChainPostRouting, netfilter.Rule{
			Match: netfilter.Match{OutIface: "ppp0"}, Target: netfilter.TargetDrop}},
	} {
		if _, err := fw.Append(r.table, r.chain, r.rule); err != nil {
			return nil, fmt.Errorf("netfilter rule: %w", err)
		}
	}
	pkt.Mark, pkt.SliceCtx = mark, slice
	set("iproute.resolve", timeKernel(budget, func() {
		if rr, err := router.Resolve(pkt); err != nil || rr.Table != "umts" {
			fail(fmt.Errorf("iproute.Resolve: table %q, %v; want the umts table", rr.Table, err))
		}
	}), 1)
	set("netfilter.traverse", timeKernel(budget, func() {
		fw.Traverse(netfilter.TableMangle, netfilter.ChainOutput, pkt, nil)
		if v := fw.Traverse(netfilter.TableFilter, netfilter.ChainPostRouting, pkt, ppp0); v != netsim.VerdictAccept {
			fail(fmt.Errorf("netfilter.Traverse dropped the UMTS slice's packet"))
		}
	}), 1)

	// PPP over HDLC: frame and deframe the packet, per KB of PPP payload.
	info := ppp.EncapsulatePPP(ppp.ProtoIPv4, pkt.AppendMarshal(nil))
	perKB := 1024 / float64(len(info))
	var frame []byte
	set("ppp.frame", timeKernel(budget, func() { frame = ppp.AppendFrame(frame[:0], info) }), perKB)
	deframer := &ppp.Deframer{Borrow: true, OnFrame: func([]byte) {}}
	set("ppp.deframe", timeKernel(budget, func() {
		if err := deframer.Feed(frame); err != nil {
			fail(fmt.Errorf("ppp.Deframer.Feed: %w", err))
		}
	}), perKB)
	if deframer.Frames == 0 || deframer.FCSErrors != 0 {
		fail(fmt.Errorf("ppp.Deframer: %d frames, %d FCS errors", deframer.Frames, deframer.FCSErrors))
	}

	// ITG decode of a 120 s flow at the workload's rate, per packet.
	pps := 100
	if payload >= 1024 {
		pps = 122
	}
	sent, recv, echo := &itg.Log{}, &itg.Log{}, &itg.Log{}
	n := 120 * pps
	for i := 0; i < n; i++ {
		tx := time.Duration(i) * time.Second / time.Duration(pps)
		r := itg.Record{FlowID: 1, Seq: uint32(i), Size: payload, TxTime: tx}
		sent.Add(r)
		r.RxTime = tx + 100*time.Millisecond + time.Duration(i%7)*time.Millisecond
		recv.Add(r)
		r.RxTime += 100 * time.Millisecond
		echo.Add(r)
	}
	set("itg.decode", timeKernel(budget, func() { itg.Decode(sent, recv, echo, 200*time.Millisecond) }), 1/float64(n))

	sketch := stats.NewQuantileSketch(stats.DefaultSketchRelErr)
	var i int
	set("stats.sketch_add", timeKernel(budget, func() {
		i++
		sketch.Add(float64(100+i%4096) * 1e-3)
	}), 1)

	if rep != nil {
		var size int
		c := timeKernel(budget, func() {
			b, err := control.EncodeReport(rep)
			if err != nil {
				fail(fmt.Errorf("control.EncodeReport: %w", err))
			}
			size = len(b)
		})
		set("control.encode", c, 1024/float64(max(size, 1)))
	}

	set("bufpool.getput", timeKernel(budget, func() { pool.Put(pool.Get(len(wire))) }), 1)
	return out, kerr
}

// kernelSuffix names the unit a kernel's cost is normalized to.
func kernelSuffix(name string) string {
	switch name {
	case "ppp.frame", "ppp.deframe", "control.encode":
		return "_per_kb"
	case "itg.decode":
		return "_per_pkt"
	}
	return ""
}
