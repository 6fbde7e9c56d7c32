// Command itg is the D-ITG-like standalone traffic generator: it runs a
// sender and receiver across a configurable simulated link and prints the
// ITGDec-style windowed analysis. It demonstrates the traffic-generation
// methodology of §3.1 in isolation from the PlanetLab/UMTS machinery.
//
// Examples:
//
//	itg -idt constant:0.01 -ps constant:90 -dur 120s -rate 160000
//	itg -idt exponential:0.008 -ps pareto:1.5,400 -loss 0.01 -series bitrate
//
// Like the paper's workflow ("we retrieved the log files from the two
// nodes and we analyzed them by means of ITGDec"), the binary packet
// logs can be saved and re-analyzed offline:
//
//	itg -dur 60s -savelogs /tmp/run1
//	itg decode /tmp/run1 -window 500ms -series rtt
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/onelab/umtslab/internal/itg"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/stats"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "decode" {
		decodeMain(os.Args[2:])
		return
	}
	idtSpec := flag.String("idt", "constant:0.01", "inter-departure time distribution (seconds)")
	psSpec := flag.String("ps", "constant:512", "packet size distribution (bytes)")
	dur := flag.Duration("dur", 30*time.Second, "flow duration")
	window := flag.Duration("window", 200*time.Millisecond, "analysis window")
	rate := flag.Float64("rate", 1e6, "link rate in bit/s (0 = infinite)")
	delay := flag.Duration("delay", 15*time.Millisecond, "one-way link delay")
	jitter := flag.Duration("jitter", 0, "uniform extra delay bound")
	loss := flag.Float64("loss", 0, "random loss probability")
	queue := flag.Int("queue", 100, "link queue in packets (0 = unbounded)")
	meter := flag.String("meter", "rtt", "measurement mode: rtt or owd")
	series := flag.String("series", "", "also print a series: bitrate, jitter, loss, rtt, delay")
	seed := flag.Int64("seed", 1, "simulation seed")
	saveLogs := flag.String("savelogs", "", "directory to write sent.itg/recv.itg/echo.itg binary logs")
	flag.Parse()

	idt, err := itg.ParseDistribution(*idtSpec)
	if err != nil {
		fatal(err)
	}
	ps, err := itg.ParseDistribution(*psSpec)
	if err != nil {
		fatal(err)
	}
	m := itg.MeterRTT
	switch *meter {
	case "rtt":
	case "owd":
		m = itg.MeterOWD
	default:
		fatal(fmt.Errorf("unknown meter %q", *meter))
	}

	loop := sim.NewLoop(*seed)
	nw := netsim.NewNetwork(loop)
	a := nw.AddNode("sender")
	b := nw.AddNode("receiver")
	cfg := netsim.LinkConfig{
		RateBps: *rate, Delay: *delay, Jitter: *jitter,
		LossProb: *loss, QueuePackets: *queue,
	}
	nw.WireP2P("link", a, "eth0", netsim.MustAddr("10.0.0.1"),
		b, "eth0", netsim.MustAddr("10.0.0.2"), cfg, cfg)

	spec := itg.FlowSpec{
		FlowID: 1, DstAddr: netsim.MustAddr("10.0.0.2"),
		SrcPort: 5000, DstPort: 9000,
		IDT: idt, PS: ps, Duration: *dur, Meter: m,
	}
	rcv := itg.NewReceiver(loop, func(p *netsim.Packet) error { return b.Send(p) })
	if err := b.Bind(netsim.ProtoUDP, 9000, rcv.Handle); err != nil {
		fatal(err)
	}
	snd := itg.NewSender(loop, "itg-cli", spec, func(p *netsim.Packet) error { return a.Send(p) })
	if err := a.Bind(netsim.ProtoUDP, 5000, snd.HandleEcho); err != nil {
		fatal(err)
	}

	fmt.Printf("flow: IDT %s, PS %s, %v, meter %s\n", idt, ps, *dur, m)
	fmt.Printf("link: %.0f bit/s, %v delay, %v jitter, loss %.3f, queue %d pkts\n\n",
		*rate, *delay, *jitter, *loss, *queue)

	snd.Start()
	loop.RunUntil(*dur + 10*time.Second)

	if *saveLogs != "" {
		if err := writeLogs(*saveLogs, &snd.SentLog, &rcv.RecvLog, &snd.EchoLog); err != nil {
			fatal(err)
		}
		fmt.Printf("logs written to %s/{sent,recv,echo}.itg\n\n", *saveLogs)
	}

	report(itg.Decode(&snd.SentLog, &rcv.RecvLog, &snd.EchoLog, *window), *series)
}

// report prints the ITGDec-style summary of res and, when series is
// set, that per-window series.
func report(res *itg.Result, series string) {
	fmt.Print(res.Summary())
	if series == "" {
		return
	}
	var s stats.Series
	switch series {
	case "bitrate":
		s = res.BitrateSeries()
	case "jitter":
		s = res.JitterSeries()
	case "loss":
		s = res.LossSeries()
	case "rtt":
		s = res.RTTSeries()
	case "delay":
		s = res.DelaySeries()
	default:
		fatal(fmt.Errorf("unknown series %q", series))
	}
	fmt.Printf("\n# t(s)  %s\n", series)
	for _, p := range s {
		fmt.Printf("%7.2f  %g\n", p.T.Seconds(), p.V)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "itg: %v\n", err)
	os.Exit(1)
}

func writeLogs(dir string, logs ...*itg.Log) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := []string{"sent.itg", "recv.itg", "echo.itg"}
	for i, l := range logs {
		f, err := os.Create(filepath.Join(dir, names[i]))
		if err != nil {
			return err
		}
		if err := l.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func readLog(path string) (*itg.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return itg.DecodeLog(f)
}

// decodeMain is the ITGDec analog: re-analyze previously saved logs
// (itg.Decode replays them through the decoder a live flow uses).
func decodeMain(args []string) {
	fs := flag.NewFlagSet("itg decode", flag.ExitOnError)
	window := fs.Duration("window", 200*time.Millisecond, "analysis window")
	series := fs.String("series", "", "print a series: bitrate, jitter, loss, rtt, delay")
	// Accept the log directory before or after the flags.
	var dir string
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		dir = args[0]
		args = args[1:]
	}
	fs.Parse(args)
	if dir == "" && fs.NArg() == 1 {
		dir = fs.Arg(0)
	}
	if dir == "" {
		fatal(fmt.Errorf("usage: itg decode <logdir> [-window D] [-series NAME]"))
	}
	sent, err := readLog(filepath.Join(dir, "sent.itg"))
	if err != nil {
		fatal(err)
	}
	recv, err := readLog(filepath.Join(dir, "recv.itg"))
	if err != nil {
		fatal(err)
	}
	echo, err := readLog(filepath.Join(dir, "echo.itg"))
	if err != nil {
		fatal(err)
	}
	report(itg.Decode(sent, recv, echo, *window), *series)
}
