// voipcompare reproduces the paper's §3.2.1 experiment (Figures 1-3): a
// 72 kbps VoIP-like UDP CBR flow (G.711: 100 pps x 90 B) sent for 120 s
// over the UMTS-to-Ethernet and Ethernet-to-Ethernet paths, with
// bitrate, jitter and RTT sampled over 200 ms windows.
//
//	go run ./examples/voipcompare [-dur 120s] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/onelab/umtslab/internal/testbed"
)

func main() {
	dur := flag.Duration("dur", 120*time.Second, "flow duration")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	fmt.Printf("VoIP-like flow (G.711, 72 kbps) for %v on both paths\n\n", *dur)
	type row struct {
		path testbed.Path
		res  *testbed.ExperimentResult
	}
	var rows []row
	for _, path := range []testbed.Path{testbed.PathUMTS, testbed.PathEthernet} {
		spec := &testbed.Spec{Seed: *seed, Path: path.Name(), Duration: testbed.Duration(*dur)}
		sc, err := spec.Scenario()
		if err != nil {
			log.Fatal(err)
		}
		rp, err := sc.Run()
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{path, rp.Results[0]})
	}

	fmt.Printf("%-22s %10s %8s %12s %12s %12s %12s\n",
		"path", "bitrate", "lost", "jitter avg", "jitter max", "rtt avg", "rtt max")
	for _, r := range rows {
		d := r.res.Decoded
		fmt.Printf("%-22s %7.1f kbps %8d %9.2f ms %9.2f ms %9.0f ms %9.0f ms\n",
			r.path, d.AvgBitrateKbps, d.Lost,
			d.AvgJitter.Seconds()*1000, d.MaxJitter.Seconds()*1000,
			d.AvgRTT.Seconds()*1000, d.MaxRTT.Seconds()*1000)
	}

	fmt.Println("\npaper §3.2.1 reads on these numbers:")
	u, e := rows[0].res.Decoded, rows[1].res.Decoded
	fmt.Printf("  - required 72 kbps achieved on average on both paths: %.1f / %.1f kbps\n",
		u.AvgBitrateKbps, e.AvgBitrateKbps)
	fmt.Printf("  - no packet loss on either path: %d / %d\n", u.Lost, e.Lost)
	fmt.Printf("  - UMTS jitter higher and more fluctuating (up to ~30 ms): max %.1f ms vs %.2f ms\n",
		u.MaxJitter.Seconds()*1000, e.MaxJitter.Seconds()*1000)
	fmt.Printf("  - UMTS RTT higher and more fluctuating (up to ~700 ms): max %.0f ms vs %.0f ms\n",
		u.MaxRTT.Seconds()*1000, e.MaxRTT.Seconds()*1000)
	fmt.Printf("  - a VoIP call remains satisfying over UMTS (jitter ~30 ms tolerable)\n")

	// A coarse time plot of the UMTS RTT (Figure 3's upper curve).
	fmt.Println("\nUMTS RTT vs time (1-second buckets, '*' = 100 ms):")
	rtt := rows[0].res.Decoded.RTTSeries()
	for t := time.Duration(0); t < *dur; t += 5 * time.Second {
		bucket := 0.0
		n := 0
		for _, p := range rtt {
			if p.T >= t && p.T < t+5*time.Second {
				bucket += p.V
				n++
			}
		}
		if n == 0 {
			continue
		}
		avg := bucket / float64(n)
		bar := ""
		for i := 0; i < int(avg*10); i++ {
			bar += "*"
		}
		fmt.Printf("  %4.0fs %6.0f ms %s\n", t.Seconds(), avg*1000, bar)
	}
}
