package control

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/fault"
	"github.com/onelab/umtslab/internal/itg"
	"github.com/onelab/umtslab/internal/testbed"
	"github.com/onelab/umtslab/internal/umts"
)

// qos returns a decoded report with n windows.
func qos(n int) *itg.Result {
	r := &itg.Result{Window: 100 * time.Millisecond, Sent: 10 * n, Received: 9 * n, Lost: n, AvgBitrateKbps: 72.5}
	for i := range n {
		r.Windows = append(r.Windows, itg.WindowStats{T: time.Duration(i) * r.Window, Packets: 9, Bytes: 810, BitrateKbps: 71.3 + float64(i%7), Delay: 41 * time.Millisecond})
	}
	return r
}

// TestResultEncodeMatchesEncoder checks that the piecewise encoding is
// byte for byte that of one json.Encoder call, on a Result whose every
// field is set (a field added later must be set here too) and on the
// empty and nil cases the wire structs allow.
func TestResultEncodeMatchesEncoder(t *testing.T) {
	events := []string{"attach <FACH>", "upgrade & DCH"}
	full := &Result{
		Results: []RepResult{
			{Decoded: qos(3), SetupTime: time.Second, BearerEvents: events, SenderErrors: 2},
			{Decoded: qos(1)},
		},
		MultiCell: &MultiCellResult{
			Flows: []FlowResult{
				{Cell: 1, Terminal: 2, FlowID: 3, SetupTime: time.Second, Decoded: qos(2), BearerEvents: events, SendErrors: 4},
				{Decoded: qos(1)},
			},
			Counters:      map[string]int64{"b": 2, "a": 1},
			IdleTerminals: 5,
			Populations:   []umts.PopulationStats{{Subscribers: 7, Attached: true, Utilization: 0.25}},
		},
		Outages: []fault.Window{{Kind: fault.KindCarrierDrop, Start: time.Second, End: 2 * time.Second}},
	}
	for _, v := range []any{*full, *full.MultiCell, full.Results[0], full.MultiCell.Flows[0]} {
		rv := reflect.ValueOf(v)
		for i := range rv.NumField() {
			if rv.Field(i).IsZero() {
				t.Fatalf("%T.%s is not set in the test value", v, rv.Type().Field(i).Name)
			}
		}
	}
	for name, r := range map[string]*Result{
		"full":          full,
		"empty":         {},
		"results":       {Results: full.Results},
		"nil flows":     {MultiCell: &MultiCellResult{}},
		"no idle, pops": {MultiCell: &MultiCellResult{Flows: []FlowResult{}, Counters: map[string]int64{}}, Outages: full.Outages},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := r.encode(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s:\n got %s\nwant %s", name, got.Bytes(), want.Bytes())
		}
	}
}

// TestEncodeReportAllocationIgnoresGC encodes one large report right
// after another encode and right after two collections, which free
// encoding/json's pooled buffers. Both must allocate about the report's
// size: a whole-report encode would allocate its buffer afresh, several
// times the report's size, only in the second case.
func TestEncodeReportAllocationIgnoresGC(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random, so no encode is warm")
	}
	rep := &testbed.Report{}
	for range 20 {
		r := &testbed.ExperimentResult{}
		r.Decoded = qos(1200)
		rep.Results = append(rep.Results, r)
	}
	allocated := func(gc bool) (uint64, int) {
		if gc {
			runtime.GC()
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		enc, err := EncodeReport(rep)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, len(enc)
	}
	allocated(false)
	warm, size := allocated(false)
	cold, _ := allocated(true)
	t.Logf("report %d B; allocated %d B warm, %d B after GC", size, warm, cold)
	if cold > warm+uint64(size)/2 {
		t.Errorf("encoding after GC allocated %d B, %d B more than right after another encode (report %d B)", cold, cold-warm, size)
	}
}
