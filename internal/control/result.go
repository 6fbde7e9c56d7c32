package control

import (
	"bytes"
	"encoding/json"
	"io"
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
	// SetupTime is how long the paper cell's dial-up (`umts start`)
	// took; zero, and omitted, on the Ethernet path. Not comparable with
	// FlowResult.SetupTime, which also counts the destination
	// registration.
	SetupTime    time.Duration `json:"setup_time_ns,omitempty"`
	BearerEvents []string      `json:"bearer_events,omitempty"`
	SenderErrors uint64        `json:"sender_errors,omitempty"`
}

// MultiCellResult is the wire form of a shard-engine run.
type MultiCellResult struct {
	Flows []FlowResult `json:"flows"`
	// Counters is the placement-independent merged counter view —
	// byte-identical across shard counts.
	Counters      map[string]int64       `json:"counters"`
	IdleTerminals int                    `json:"idle_terminals,omitempty"`
	Populations   []umts.PopulationStats `json:"populations,omitempty"`
}

// FlowResult is one terminal's flow outcome.
type FlowResult struct {
	Cell     int    `json:"cell"`
	Terminal int    `json:"terminal"`
	FlowID   uint32 `json:"flow_id"`
	// SetupTime runs from virtual time 0, when every terminal starts
	// dialing, to the end of the terminal's destination registration
	// (`umts add`). Not comparable with RepResult.SetupTime, which counts
	// the dial-up alone.
	SetupTime    time.Duration `json:"setup_time_ns"`
	Decoded      *itg.Result   `json:"decoded"`
	BearerEvents []string      `json:"bearer_events,omitempty"`
	SendErrors   uint64        `json:"send_errors,omitempty"`
}

// EncodeReport renders a testbed report in the canonical wire
// encoding. encoding/json sorts map keys, so equal reports always
// yield equal bytes.
//
// The bytes are those of one json.Encoder.Encode of the Result, but
// they are written one repetition or flow at a time (see
// Result.encode), once to size the output and once to fill it, so that
// EncodeReport allocates the report's size whenever it runs.
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
				BearerEvents: f.BearerEvents, SendErrors: f.SendErrors,
			}
		}
		out.MultiCell = w
	} else {
		out.Results = make([]RepResult, len(rep.Results))
		for i, r := range rep.Results {
			out.Results[i] = RepResult{
				Decoded:      r.Decoded,
				SetupTime:    r.SetupTime,
				BearerEvents: r.BearerEvents,
				SenderErrors: r.SendErrors,
			}
		}
	}
	var size byteCount
	if err := out.encode(&size); err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if err := out.encode(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encode writes r to w exactly as json.Encoder (HTML escaping off)
// would, but encodes each repetition and each flow on its own.
// encoding/json builds every value in a pooled buffer that a garbage
// collection may or may not have freed since its last use; a report of
// several megabytes encoded whole would allocate that buffer again, or
// not at all, depending on when the collector last ran. Encoded piece
// by piece, the pooled buffer stays the size of one repetition.
func (r *Result) encode(w io.Writer) error {
	p := newPieceWriter(w)
	p.begin()
	if len(r.Results) > 0 {
		p.key("results")
		list(p, r.Results)
	}
	if mc := r.MultiCell; mc != nil {
		p.key("multi_cell")
		p.begin()
		p.key("flows")
		list(p, mc.Flows)
		p.key("counters")
		p.value(mc.Counters)
		if mc.IdleTerminals != 0 {
			p.key("idle_terminals")
			p.value(mc.IdleTerminals)
		}
		if len(mc.Populations) > 0 {
			p.key("populations")
			p.value(mc.Populations)
		}
		p.end()
	}
	if len(r.Outages) > 0 {
		p.key("outages")
		p.value(r.Outages)
	}
	p.end()
	p.raw("\n")
	return p.err
}

// pieceWriter writes one JSON document to w from hand-written
// punctuation and json-encoded values. The first error sticks.
type pieceWriter struct {
	w     io.Writer
	enc   *json.Encoder
	first []bool // per open object: no key written yet
	err   error
}

func newPieceWriter(w io.Writer) *pieceWriter {
	enc := json.NewEncoder(trimNewline{w})
	enc.SetEscapeHTML(false)
	return &pieceWriter{w: w, enc: enc}
}

func (p *pieceWriter) raw(s string) {
	if p.err == nil {
		_, p.err = io.WriteString(p.w, s)
	}
}

func (p *pieceWriter) value(v any) {
	if p.err == nil {
		p.err = p.enc.Encode(v)
	}
}

// begin opens an object and end closes the innermost one.
func (p *pieceWriter) begin() {
	p.raw("{")
	p.first = append(p.first, true)
}

func (p *pieceWriter) end() {
	p.raw("}")
	p.first = p.first[:len(p.first)-1]
}

// key writes a member name of the innermost object, after a comma
// unless it is the object's first.
func (p *pieceWriter) key(name string) {
	if top := len(p.first) - 1; p.first[top] {
		p.first[top] = false
	} else {
		p.raw(",")
	}
	p.raw(`"` + name + `":`)
}

// list writes s as a JSON array, one element per Encode. Elements are
// passed by address, as encoding/json reaches them inside a slice.
func list[T any](p *pieceWriter, s []T) {
	if s == nil {
		p.raw("null")
		return
	}
	p.raw("[")
	for i := range s {
		if i > 0 {
			p.raw(",")
		}
		p.value(&s[i])
	}
	p.raw("]")
}

// trimNewline drops the newline json.Encoder appends to each value; it
// writes each value in a single Write.
type trimNewline struct{ w io.Writer }

func (t trimNewline) Write(b []byte) (int, error) {
	if _, err := t.w.Write(bytes.TrimSuffix(b, []byte("\n"))); err != nil {
		return 0, err
	}
	return len(b), nil
}

// byteCount is a writer that only counts.
type byteCount int

func (c *byteCount) Write(b []byte) (int, error) {
	*c += byteCount(len(b))
	return len(b), nil
}
