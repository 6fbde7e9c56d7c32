package control

import (
	"bytes"
	"encoding/json"
	"time"

	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/itg"
	"github.com/onelab/umtslab/internal/testbed"
	"github.com/onelab/umtslab/internal/umts"
)

// Result is the wire form of a finished job's report: everything a
// run asserts about QoS, in a stable JSON encoding. The one-shot CLI
// (-spec) emits the same encoding, which is what makes "submitted over
// HTTP" and "run from the shell" byte-comparable.
type Result struct {
	// Results holds one entry per repetition of a single-cell run.
	Results []RepResult `json:"results,omitempty"`
	// MultiCell is the shard-engine counterpart (mutually exclusive
	// with Results).
	MultiCell *MultiCellResult `json:"multi_cell,omitempty"`
	// Outages lists the scheduled fault windows, if any.
	Outages []fault.Window `json:"outages,omitempty"`
}

// RepResult is one repetition's QoS outcome.
type RepResult struct {
	Decoded *itg.Result `json:"decoded"`
	// Streamed is the sketched report (nil in batch mode; in
	// stream-only mode Decoded aliases it and it is elided here to
	// keep the encoding canonical).
	Streamed     *itg.Result   `json:"streamed,omitempty"`
	SetupTime    time.Duration `json:"setup_time_ns,omitempty"`
	BearerEvents []string      `json:"bearer_events,omitempty"`
	SenderErrors uint64        `json:"sender_errors,omitempty"`
}

// MultiCellResult is the wire form of a shard-engine run.
type MultiCellResult struct {
	Flows []FlowResult `json:"flows"`
	// Counters is the placement-independent merged counter view —
	// byte-identical across shard counts and policies.
	Counters      map[string]int64       `json:"counters"`
	IdleTerminals int                    `json:"idle_terminals,omitempty"`
	Populations   []umts.PopulationStats `json:"populations,omitempty"`
}

// FlowResult is one terminal's flow outcome.
type FlowResult struct {
	Cell         int           `json:"cell"`
	Terminal     int           `json:"terminal"`
	FlowID       uint32        `json:"flow_id"`
	SetupTime    time.Duration `json:"setup_time_ns"`
	Decoded      *itg.Result   `json:"decoded"`
	Streamed     *itg.Result   `json:"streamed,omitempty"`
	BearerEvents []string      `json:"bearer_events,omitempty"`
	SendErrors   uint64        `json:"send_errors,omitempty"`
}

// EncodeReport renders a testbed report in the canonical wire
// encoding. encoding/json sorts map keys, so equal reports always
// yield equal bytes.
func EncodeReport(rep *testbed.Report) ([]byte, error) {
	out := Result{Outages: rep.Outages}
	if mc := rep.MultiCell; mc != nil {
		w := &MultiCellResult{
			Counters:      mc.Counters,
			IdleTerminals: mc.IdleTerminals,
			Populations:   mc.Populations,
			Flows:         make([]FlowResult, len(mc.Flows)),
		}
		for i, f := range mc.Flows {
			w.Flows[i] = FlowResult{
				Cell: f.Cell, Terminal: f.Terminal, FlowID: f.FlowID,
				SetupTime: f.SetupTime, Decoded: f.Decoded,
				Streamed:     dedupeStream(f.Decoded, f.Streamed),
				BearerEvents: f.BearerEvents, SendErrors: f.SendErrors,
			}
		}
		out.MultiCell = w
	} else {
		out.Results = make([]RepResult, len(rep.Results))
		for i, r := range rep.Results {
			out.Results[i] = RepResult{
				Decoded:      r.Decoded,
				Streamed:     dedupeStream(r.Decoded, r.Streamed),
				SetupTime:    r.SetupTime,
				BearerEvents: r.BearerEvents,
				SenderErrors: r.SenderErrors,
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// dedupeStream elides the streamed result when it aliases the decoded
// one (stream-only mode), so the encoding doesn't double-carry it.
func dedupeStream(decoded, streamed *itg.Result) *itg.Result {
	if streamed == decoded {
		return nil
	}
	return streamed
}
