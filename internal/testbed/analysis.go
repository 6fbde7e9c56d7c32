package testbed

import (
	"time"

	"github.com/onelab/umtslab/internal/itg"
)

// AnalysisConfig parameterizes the live analysis: every flow decodes
// live, in one pass, with one itg.StreamDecoder fed by its endpoints,
// into one report. The zero value reports exact percentiles.
type AnalysisConfig struct {
	// Sketch reports P95/P99 from a quantile sketch instead of the raw
	// delay/RTT samples (8 B each), so analysis memory stays
	// O(windows + flows) however long the flow runs. Its relative
	// error bound is stats.DefaultSketchRelErr.
	Sketch bool
	// Live, when non-nil, subscribes to every flow's QoS windows while
	// the run executes (itg.WithLiveWindows): window i is delivered as
	// soon as the flow's feeds have progressed the decoder's 10 s seal
	// lag past its end, and any remainder at Finalize. The sink may be
	// called from engine worker goroutines and must be safe for
	// concurrent use. A Scenario sets it with WithLiveWindows; it is not
	// part of the declarative Spec.
	Live func(LiveWindow)
}

// LiveWindow is one live QoS window of one flow: the flow identity
// (multi-cell runs fill Cell/Terminal, repetition sweeps fill Rep)
// plus the sealed window stats.
type LiveWindow struct {
	Cell     int             `json:"cell"`
	Terminal int             `json:"terminal"`
	Rep      int             `json:"rep"`
	FlowID   uint32          `json:"flow_id"`
	Index    int             `json:"index"`
	Stats    itg.WindowStats `json:"stats"`
}

// newDecoder builds the per-flow decoder: over the paper's sample
// window, aligned to the flow start, sized for the flow's expected
// packet count, and keeping exact samples or a sketch. id carries the
// flow's identity into the Live subscription.
func (c AnalysisConfig) newDecoder(start time.Duration, flow itg.FlowSpec, id LiveWindow) *itg.StreamDecoder {
	opts := []itg.StreamOption{itg.WithStart(start)}
	if !c.Sketch {
		opts = append(opts, itg.WithExactPercentiles())
	}
	if c.Live != nil {
		sink := c.Live
		opts = append(opts, itg.WithLiveWindows(func(i int, w itg.WindowStats) {
			ev := id
			ev.Index = i
			ev.Stats = w
			sink(ev)
		}))
	}
	d := itg.NewStreamDecoder(defaultWindow, opts...)
	d.Expect(flow.ExpectedPackets())
	return d
}
