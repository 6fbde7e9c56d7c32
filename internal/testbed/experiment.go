package testbed

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/onelab/umtslab/internal/core"
	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/itg"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/umts"
	"github.com/onelab/umtslab/internal/vsys"
)

// Path selects which end-to-end path a flow takes (§3: UMTS-to-Ethernet
// vs Ethernet-to-Ethernet between the same two nodes).
type Path int

// Paths.
const (
	PathUMTS Path = iota
	PathEthernet
)

func (p Path) String() string {
	switch p {
	case PathUMTS:
		return "UMTS-to-Ethernet"
	case PathEthernet:
		return "Ethernet-to-Ethernet"
	default:
		return fmt.Sprintf("path(%d)", int(p))
	}
}

// Name returns the path's canonical wire name, as accepted by
// ParsePath (String is the display form).
func (p Path) Name() string {
	switch p {
	case PathUMTS:
		return "umts"
	case PathEthernet:
		return "ethernet"
	default:
		return fmt.Sprintf("path(%d)", int(p))
	}
}

// ParsePath maps a canonical name to a Path; the empty string selects
// the default (umts).
func ParsePath(s string) (Path, error) {
	switch s {
	case "", "umts":
		return PathUMTS, nil
	case "ethernet":
		return PathEthernet, nil
	default:
		return 0, fmt.Errorf("testbed: unknown path %q (allowed: umts, ethernet)", s)
	}
}

// Workload selects the traffic class (§3.1).
type Workload int

// Workloads.
const (
	// WorkloadVoIP is the 72 kbps G.711-like UDP CBR flow (paper §3.1).
	WorkloadVoIP Workload = iota
	// WorkloadCBR1M is the 1 Mbps UDP CBR flow (1024 B x 122 pps,
	// paper §3.1).
	WorkloadCBR1M
	// WorkloadVoIPG729 is the lighter 24 kbps G.729 call (extension:
	// D-ITG's other VoIP preset).
	WorkloadVoIPG729
	// WorkloadTelnet is bursty interactive traffic (extension).
	WorkloadTelnet
)

func (w Workload) String() string {
	switch w {
	case WorkloadVoIP:
		return "VoIP G.711 (72 kbps)"
	case WorkloadCBR1M:
		return "CBR 1 Mbps"
	case WorkloadVoIPG729:
		return "VoIP G.729 (24 kbps)"
	case WorkloadTelnet:
		return "Telnet-like"
	default:
		return fmt.Sprintf("workload(%d)", int(w))
	}
}

// Name returns the workload's canonical wire name, as accepted by
// ParseWorkload (String is the display form).
func (w Workload) Name() string {
	switch w {
	case WorkloadVoIP:
		return "voip"
	case WorkloadCBR1M:
		return "cbr1m"
	case WorkloadVoIPG729:
		return "voip-g729"
	case WorkloadTelnet:
		return "telnet"
	default:
		return fmt.Sprintf("workload(%d)", int(w))
	}
}

// ParseWorkload maps a canonical name to a Workload; the empty string
// selects the default (voip).
func ParseWorkload(s string) (Workload, error) {
	switch s {
	case "", "voip":
		return WorkloadVoIP, nil
	case "cbr1m":
		return WorkloadCBR1M, nil
	case "voip-g729":
		return WorkloadVoIPG729, nil
	case "telnet":
		return WorkloadTelnet, nil
	default:
		return 0, fmt.Errorf("testbed: unknown workload %q (allowed: voip, cbr1m, voip-g729, telnet)", s)
	}
}

// Experiment ports.
const (
	senderPort   = 5000
	receiverPort = 9000
)

// workloadFlow returns the ITG flow a workload generates from the
// sender port to dst:dstPort.
func workloadFlow(w Workload, flowID uint32, dst netip.Addr, dstPort uint16, d time.Duration) (itg.FlowSpec, error) {
	switch w {
	case WorkloadVoIP:
		return itg.VoIPG711(flowID, dst, senderPort, dstPort, d), nil
	case WorkloadCBR1M:
		return itg.CBR1Mbps(flowID, dst, senderPort, dstPort, d), nil
	case WorkloadVoIPG729:
		return itg.VoIPG729(flowID, dst, senderPort, dstPort, d), nil
	case WorkloadTelnet:
		return itg.Telnet(flowID, dst, senderPort, dstPort, d), nil
	}
	return itg.FlowSpec{}, fmt.Errorf("unknown workload %v", w)
}

// ExperimentSpec parameterizes one §3 run.
type ExperimentSpec struct {
	Path     Path
	Workload Workload
	// Duration of the flow (paper: 120 s).
	Duration time.Duration
	// Window of the QoS samples (paper: 200 ms).
	Window time.Duration
	// Analysis selects the QoS reports of the flow's live decode: the
	// exact reference (zero value), exact plus sketched percentiles,
	// or sketch-only.
	Analysis AnalysisConfig
}

// ExperimentResult carries the decoded flow plus testbed-side context.
// On the Ethernet path SetupTime and BearerEvents stay empty.
type ExperimentResult struct {
	Spec ExperimentSpec
	flowOutcome
	// Status is the final `umts status` (UMTS path only).
	Status core.Status
	// Metrics is the simulation-wide metrics snapshot taken when the run
	// finished: every instrument the sim kernel, links, radio, PPP, and
	// traffic generator registered on this run's loop.
	Metrics metrics.Snapshot
	// Outages lists the scheduled fault windows (empty when the run had
	// no fault schedule), so QoS reports can be annotated with when the
	// injector was acting.
	Outages []fault.Window
}

// flowOutcome is what one flow reports, in a paper cell and in every
// terminal of a multi-cell run.
type flowOutcome struct {
	// Decoded is the flow's QoS report over the sample window.
	Decoded *itg.Result
	// Streamed is the sketched report (nil in batch mode). In
	// stream-only mode Decoded aliases it.
	Streamed *itg.Result
	// SetupTime means two things. In a paper cell (RunExperiment) it
	// is how long the dial-up took: the `umts start` call alone, from
	// its invocation to the connection being up. In a multi-cell
	// terminal (FlowResult) it runs from virtual time 0, when every
	// terminal starts dialing, to the end of its destination
	// registration, so it also counts `umts add`. The two are not
	// comparable. Zero on the Ethernet path.
	SetupTime time.Duration
	// BearerEvents is the terminal's radio session log — the bearer
	// upgrade shows the Fig. 4 knee.
	BearerEvents []string
	// SendErrors counts packets refused on the send path.
	SendErrors uint64
}

// endpoint is where one end of a flow lives: a slice, or a bare node.
type endpoint interface {
	Send(pkt *netsim.Packet) error
	Bind(proto netsim.Proto, port uint16, h netsim.PortHandler) error
}

// flowRun is one ITG flow: the sender (ITGSend) in a UMTS slice, the
// receiver (ITGRecv, echoing for the RTT meter) at the far end, and the
// one live decoder both of them feed.
type flowRun struct {
	spec   itg.FlowSpec
	snd    *itg.Sender
	recv   *itg.Receiver
	stream *itg.StreamDecoder
}

// receive binds the receiver of spec at its destination port on at,
// and attaches the flow's decoder, window-aligned to start.
func (f *flowRun) receive(loop *sim.Loop, at endpoint, spec itg.FlowSpec, a AnalysisConfig, window, start time.Duration, id LiveWindow) error {
	f.spec = spec
	f.recv = itg.NewReceiver(loop, at.Send)
	if err := at.Bind(netsim.ProtoUDP, spec.DstPort, f.recv.Handle); err != nil {
		return err
	}
	f.stream = a.newDecoder(window, start, spec, id)
	f.recv.Stream = f.stream
	return nil
}

// send binds the flow's sender on from; Start begins the flow.
func (f *flowRun) send(loop *sim.Loop, name string, from endpoint) error {
	f.snd = itg.NewSender(loop, name, f.spec, from.Send)
	f.snd.Stream = f.stream
	return from.Bind(netsim.ProtoUDP, senderPort, f.snd.HandleEcho)
}

// outcome folds the finished flow into its report.
func (f *flowRun) outcome(a AnalysisConfig, setup time.Duration, term *umts.Terminal) flowOutcome {
	o := flowOutcome{SetupTime: setup, BearerEvents: term.SessionEvents(), SendErrors: f.snd.SendErrors}
	o.Decoded, o.Streamed = a.finalize(f.stream)
	return o
}

// RunExperiment reproduces one cell of the paper's evaluation on this
// testbed: bring the path up, generate the flow from a slice on the
// Napoli node to a slice on the INRIA node with the RTT meter, and
// decode it live over the sample window.
func (tb *Testbed) RunExperiment(spec ExperimentSpec) (*ExperimentResult, error) {
	if spec.Duration <= 0 {
		spec.Duration = paperDuration
	}
	if spec.Window <= 0 {
		spec.Window = defaultWindow
	}
	res := &ExperimentResult{Spec: spec}

	// Slices on both nodes.
	sender, fe, err := tb.NewUMTSSlice("unina_umts")
	if err != nil {
		return nil, err
	}
	recvSlice, err := tb.InriaHost.CreateSlice("unina_probe")
	if err != nil {
		return nil, err
	}

	// UMTS path: start the connection and register the destination.
	var setup time.Duration
	if spec.Path == PathUMTS {
		t0 := tb.Loop.Now()
		if _, err := tb.StartUMTS(fe); err != nil {
			return nil, err
		}
		setup = tb.Loop.Now() - t0
		if r, err := tb.Invoke(func(cb func(vsys.Result)) error {
			return fe.AddDest(InriaEthAddr.String(), cb)
		}); err != nil || !r.Ok() {
			return nil, fmt.Errorf("add destination failed: %v %v", err, r.Errs)
		}
	}

	fs, err := workloadFlow(spec.Workload, 1, InriaEthAddr, receiverPort, spec.Duration)
	if err != nil {
		return nil, err
	}
	start := tb.Loop.Now()
	var flow flowRun
	if err := flow.receive(tb.Loop, recvSlice, fs, spec.Analysis, spec.Window, start, LiveWindow{FlowID: 1}); err != nil {
		return nil, err
	}
	if err := flow.send(tb.Loop, fmt.Sprintf("%v/%v", spec.Path, spec.Workload), sender); err != nil {
		return nil, err
	}
	flow.snd.Start()
	tb.Loop.RunUntil(start + spec.Duration + drainTime)
	if tb.Loop.Interrupted() {
		return nil, ErrInterrupted
	}

	res.flowOutcome = flow.outcome(spec.Analysis, setup, tb.Terminal)
	// Recorded before the final snapshot so the decoder's footprint
	// lands in the run's metrics next to the flow counters.
	tb.Loop.Metrics().Gauge("itg/stream/flow1/retained_bytes").Set(float64(flow.stream.RetainedBytes()))

	if spec.Path == PathUMTS {
		if r, err := tb.Invoke(func(cb func(vsys.Result)) error {
			return fe.Status(func(st core.Status, rr vsys.Result) { res.Status = st; cb(rr) })
		}); err != nil || !r.Ok() {
			return nil, fmt.Errorf("status failed: %v", err)
		}
		// Tear down so repeated runs on a fresh testbed stay symmetric
		// with the paper's "set up and torn down just before and after
		// the test" methodology (§2.2).
		if r, err := tb.Invoke(fe.Stop); err != nil || !r.Ok() {
			return nil, fmt.Errorf("stop failed: %v %v", err, r.Errs)
		}
	}
	fe.Close()
	res.Metrics = tb.Loop.Metrics().Snapshot()
	res.Outages = tb.Faults.Windows()
	return res, nil
}

// Metrics returns the registry shared by every component on this
// testbed's loop.
func (tb *Testbed) Metrics() *metrics.Registry { return tb.Loop.Metrics() }
