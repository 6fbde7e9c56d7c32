package testbed

import (
	"fmt"
	"time"

	"github.com/onelab/umtslab/internal/itg"
)

// AnalysisMode selects which QoS reports a run produces. Every mode
// decodes each flow live, in one pass, with one itg.StreamDecoder fed
// by the flow's endpoints; no mode retains per-packet logs.
type AnalysisMode int

const (
	// AnalysisBatch is the reference report: an exact live decode that
	// keeps only the raw delay/RTT samples (8 B each) for exact
	// percentiles, and reproduces itg.Decode of full ITG logs field
	// for field.
	AnalysisBatch AnalysisMode = iota
	// AnalysisStream adds the sketched report: the same single feed
	// also fills a quantile sketch, so Decoded (exact) and Streamed
	// (sketched P95/P99) come from one decoder.
	AnalysisStream
	// AnalysisStreamOnly keeps only the sketch: analysis memory is
	// O(windows + flows) regardless of run horizon. Decoded aliases
	// Streamed.
	AnalysisStreamOnly
)

func (m AnalysisMode) String() string {
	switch m {
	case AnalysisBatch:
		return "batch"
	case AnalysisStream:
		return "stream"
	case AnalysisStreamOnly:
		return "stream-only"
	default:
		return fmt.Sprintf("analysis(%d)", int(m))
	}
}

// ParseAnalysisMode parses the -analysis flag values.
func ParseAnalysisMode(s string) (AnalysisMode, error) {
	switch s {
	case "", "batch":
		return AnalysisBatch, nil
	case "stream":
		return AnalysisStream, nil
	case "stream-only":
		return AnalysisStreamOnly, nil
	default:
		return 0, fmt.Errorf("testbed: unknown analysis mode %q (batch, stream, stream-only)", s)
	}
}

// AnalysisConfig parameterizes the live analysis. The zero value is
// the exact reference report.
type AnalysisConfig struct {
	Mode AnalysisMode
	// SketchRelErr is the quantile sketch's relative error bound for
	// P95/P99 (<= 0: stats.DefaultSketchRelErr). Ignored with Exact.
	SketchRelErr float64
	// Exact makes the streaming modes report exact percentiles too:
	// Streamed then equals Decoded (stream), or Decoded is exact
	// (stream-only, at 8 B per delay/RTT sample).
	Exact bool
	// Live, when non-nil, subscribes to every flow's QoS windows while
	// the run executes (itg.WithLiveWindows): window i is delivered as
	// soon as the flow's feeds have progressed the decoder's 10 s seal
	// lag past its end, and any remainder at Finalize. Requires a
	// streaming Mode; the sink may be called from engine worker
	// goroutines and must be safe for concurrent use. A Scenario sets it
	// with WithLiveWindows; it is not part of the declarative Spec.
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

// newDecoder builds the per-flow decoder: window-aligned to the flow
// start, sized for the flow's expected packet count, and keeping exact
// samples, a sketch, or both as the mode needs. id carries the flow's
// identity into the Live subscription, which only the streaming modes
// serve.
func (c AnalysisConfig) newDecoder(window, start time.Duration, flow itg.FlowSpec, id LiveWindow) *itg.StreamDecoder {
	opts := []itg.StreamOption{itg.WithStart(start)}
	if c.Exact || c.Mode != AnalysisStreamOnly {
		opts = append(opts, itg.WithExactPercentiles())
	}
	if c.Mode == AnalysisStream && !c.Exact {
		opts = append(opts, itg.WithSketch())
	}
	if c.SketchRelErr > 0 {
		opts = append(opts, itg.WithSketchRelErr(c.SketchRelErr))
	}
	if c.Live != nil && c.Mode != AnalysisBatch {
		sink := c.Live
		opts = append(opts, itg.WithLiveWindows(0, func(i int, w itg.WindowStats) {
			ev := id
			ev.Index = i
			ev.Stats = w
			sink(ev)
		}))
	}
	d := itg.NewStreamDecoder(window, opts...)
	d.Expect(flow.ExpectedPackets())
	return d
}

// finalize folds a finished flow's decoder into its reports: Decoded,
// and Streamed in the streaming modes (nil in batch; an alias of
// Decoded in stream-only).
func (c AnalysisConfig) finalize(d *itg.StreamDecoder) (decoded, streamed *itg.Result) {
	switch c.Mode {
	case AnalysisBatch:
		return d.Finalize(), nil
	case AnalysisStreamOnly:
		decoded = d.Finalize()
		return decoded, decoded
	}
	if c.Exact {
		decoded = d.Finalize()
		return decoded, decoded.Clone()
	}
	return d.FinalizeBoth()
}
