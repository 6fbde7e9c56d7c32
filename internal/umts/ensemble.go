package umts

import (
	"fmt"
	"time"

	"github.com/onelab/umtslab/internal/modem"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
)

// This file holds the differential-validation probes for the population
// model: MeasureEnsemble drives n REAL dialed terminals with the CBR
// workload a PopulationSpec describes (each terminal writes
// PacketBytes-sized chunks straight into its radio bearer, so the radio
// sees exactly RateBps per subscriber with no framing ambiguity), and
// MeasurePopulation runs the fluid model under the same spec. Both
// build a private loop/network/operator, so they are cheap, hermetic,
// and deterministic; the population tests compare their results
// within the spec's declared tolerance.

// EnsembleResult is one probe leg's measurement.
type EnsembleResult struct {
	// CarriedBytes is what the radio uplink actually transmitted over
	// the active window (plus the sub-packet drain tail).
	CarriedBytes int64
	// Utilization is CarriedBytes over the ensemble's nominal radio
	// capacity (n × uplink rate × Duration).
	Utilization float64
	// PoolOccupancy is the operator pool occupancy measured mid-window.
	PoolOccupancy int
}

// ensembleWindowCap bounds probe windows: a raw-bearer terminal never
// completes LCP, and the NAS gives up on negotiation after ~30 s
// (ppp's maxConfigure × restartInterval), tearing the session down.
// Probes keep the whole active window safely inside that budget.
const ensembleWindowCap = 25 * time.Second

func probeSpecCheck(cfg Config, spec *PopulationSpec) error {
	spec.setDefaults()
	if spec.Duration <= 0 {
		return fmt.Errorf("umts: ensemble probe needs a positive Duration")
	}
	if spec.Duration > ensembleWindowCap {
		return fmt.Errorf("umts: ensemble probe window %v exceeds the %v LCP-timeout budget", spec.Duration, ensembleWindowCap)
	}
	if spec.Start < cfg.RegistrationTime+cfg.AttachTime {
		return fmt.Errorf("umts: ensemble probe Start %v precedes registration (%v) + attach (%v)",
			spec.Start, cfg.RegistrationTime, cfg.AttachTime)
	}
	return nil
}

// MeasureEnsemble runs the real-terminal reference leg: n terminals
// register, dial, and write spec-rate CBR into their bearers over
// [Start, Start+Duration]. Use a fade-free cfg — per-session random
// fades are exactly what the fluid model does not reproduce.
func MeasureEnsemble(seed int64, cfg Config, n int, spec PopulationSpec) (EnsembleResult, error) {
	var res EnsembleResult
	if err := probeSpecCheck(cfg, &spec); err != nil {
		return res, err
	}
	loop := sim.NewLoop(seed)
	nw := netsim.NewNetwork(loop)
	op := NewOperator(loop, nw, cfg)

	// Each terminal dials so its attach completes exactly at spec.Start
	// and its CBR ticker starts straight from the dial callback — the
	// ticker's first packet leaves one interval later, mirroring the
	// fluid model's first accounted tick.
	interval := time.Duration(float64(spec.PacketBytes*8) / spec.RateBps * float64(time.Second))
	payload := make([]byte, spec.PacketBytes)
	var tickers []*sim.Ticker
	var dialErr error
	dialAt := spec.Start - cfg.AttachTime
	for i := 0; i < n; i++ {
		t := op.NewTerminalID(TerminalID{Cell: 0, Sub: int32(i + 1)})
		slot := i
		loop.At(dialAt, func() {
			t.Dial(cfg.APN, func(b modem.DataBearer, err error) {
				if err != nil {
					dialErr = fmt.Errorf("umts: ensemble terminal %d: %w", slot, err)
					return
				}
				tickers = append(tickers, loop.NewTicker(interval, func() { b.Write(payload) }))
			})
		})
	}
	loop.At(spec.Start+spec.Duration/2, func() { res.PoolOccupancy = op.PoolOccupancy() })
	loop.At(spec.Start+spec.Duration, func() {
		for _, tk := range tickers {
			tk.Stop()
		}
	})
	loop.RunUntil(spec.Start + spec.Duration + time.Second)
	if dialErr != nil {
		return res, dialErr
	}
	res.CarriedBytes = loop.Metrics().Snapshot().Counter("umts/ul/tx_bytes")
	res.Utilization = float64(res.CarriedBytes) * 8 /
		(float64(n) * cfg.Uplink.RateBps * spec.Duration.Seconds())
	return res, nil
}

// MeasurePopulation runs the model leg: one Population under the same
// spec, measured the same way.
func MeasurePopulation(seed int64, cfg Config, n int, spec PopulationSpec) (EnsembleResult, PopulationStats, error) {
	var res EnsembleResult
	if err := probeSpecCheck(cfg, &spec); err != nil {
		return res, PopulationStats{}, err
	}
	loop := sim.NewLoop(seed)
	nw := netsim.NewNetwork(loop)
	op := NewOperator(loop, nw, cfg)
	pop, err := NewPopulation(op, n, spec)
	if err != nil {
		return res, PopulationStats{}, err
	}
	loop.At(spec.Start+spec.Duration/2, func() { res.PoolOccupancy = op.PoolOccupancy() })
	loop.RunUntil(spec.Start + spec.Duration + time.Second)
	if err := pop.Err(); err != nil {
		return res, PopulationStats{}, err
	}
	st := pop.Stats()
	res.CarriedBytes = int64(st.CarriedBytes)
	res.Utilization = st.Utilization
	return res, st, nil
}
