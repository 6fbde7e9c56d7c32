package control

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/testbed"
)

// testDur keeps jobs fast: 12 virtual seconds run in a few ms.
const testDur = "12s"

func newTestService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, specJSON string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}
	return body
}

// TestJobByteIdenticalToDirectRun is the service's core correctness
// claim: a Spec submitted over HTTP produces exactly the bytes the
// same Spec produces when built and run directly (the one-shot CLI
// path), on a single cell and on a multi-shard placement.
func TestJobByteIdenticalToDirectRun(t *testing.T) {
	_, ts := newTestService(t, Config{})
	cases := []string{
		`{"seed":11,"duration":"` + testDur + `"}`,
		`{"seed":5,"cells":3,"terminals":1,"shards":2,"shard_policy":"dynamic","duration":"` + testDur + `"}`,
	}
	for _, specJSON := range cases {
		id := submit(t, ts, specJSON)
		if st := waitState(t, ts, id); st.State != StateDone {
			t.Fatalf("%s: job %s ended %s (%s)", specJSON, id, st.State, st.Error)
		}
		viaHTTP := getResult(t, ts, id)

		spec, err := testbed.ParseSpec([]byte(specJSON))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		direct, err := EncodeReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaHTTP, direct) {
			t.Errorf("%s: HTTP result differs from direct run (%d vs %d bytes)",
				specJSON, len(viaHTTP), len(direct))
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	return events
}

// TestStreamMatchesFinalReport subscribes to a job with the sketched
// analysis ("stream-only") and checks the live windows against the
// end-of-run report: every streamed window must equal the final
// decoder output, and every window of the run must have been delivered.
func TestStreamMatchesFinalReport(t *testing.T) {
	checkLiveWindows(t, `{"seed":3,"duration":"`+testDur+`","analysis":{"mode":"stream-only"}}`)
}

// TestDefaultJobStreamsLiveWindows: a spec with no analysis section
// (exact percentiles) streams its windows too, and they equal its final
// decoded.windows.
func TestDefaultJobStreamsLiveWindows(t *testing.T) {
	checkLiveWindows(t, `{"seed":3,"duration":"`+testDur+`"}`)
}

// checkLiveWindows submits spec, follows its SSE stream to the result
// event, and requires the live windows to be exactly the windows of the
// job's final report, each once.
func checkLiveWindows(t *testing.T, spec string) {
	t.Helper()
	_, ts := newTestService(t, Config{})
	id := submit(t, ts, spec)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	events := readSSE(t, resp.Body)
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	last := events[len(events)-1]
	if last.name != "result" {
		t.Fatalf("stream did not end with a result event (got %q)", last.name)
	}
	var final finalEvent
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}

	var res Result
	if err := json.Unmarshal(getResult(t, ts, id), &res); err != nil {
		t.Fatal(err)
	}
	want := res.Results[0].Decoded
	windows := events[:len(events)-1]
	if len(windows) == 0 || len(windows) != len(want.Windows) {
		t.Fatalf("streamed %d windows, final report has %d", len(windows), len(want.Windows))
	}
	seen := make([]bool, len(want.Windows))
	for _, ev := range windows {
		if ev.name != "window" {
			t.Fatalf("unexpected event %q", ev.name)
		}
		var lw testbed.LiveWindow
		if err := json.Unmarshal([]byte(ev.data), &lw); err != nil {
			t.Fatal(err)
		}
		if lw.Index < 0 || lw.Index >= len(want.Windows) || seen[lw.Index] {
			t.Fatalf("window index %d out of range or repeated", lw.Index)
		}
		seen[lw.Index] = true
		if !reflect.DeepEqual(lw.Stats, want.Windows[lw.Index]) {
			t.Errorf("window %d: streamed %+v != final %+v", lw.Index, lw.Stats, want.Windows[lw.Index])
		}
	}
}

// TestQueueFullRejects: with workers gated, the bounded queue must
// refuse the overflow submission with 503 instead of buffering it.
func TestQueueFullRejects(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestService(t, Config{Queue: 2, Workers: 1, startGate: gate})
	defer close(gate)
	// One job occupies the worker (blocked on the gate after dequeue
	// is NOT guaranteed — it may still sit queued — so fill to
	// capacity and overflow regardless).
	ids := []string{}
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"seed":1,"duration":"`+testDur+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			var st JobStatus
			json.Unmarshal(body, &st)
			ids = append(ids, st.ID)
		}
	}
	// The queue holds 2; the worker may have dequeued at most 1 (then
	// parked on the gate), so at least 3 submissions fit only if a
	// dequeue happened — the 4th must always bounce.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"seed":1,"duration":"`+testDur+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit got %d %s, want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("overflow error %s does not mention the queue", body)
	}
	// Unblock and let everything drain so Cleanup's Shutdown is clean.
	for range ids {
		select {
		case gate <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatal("worker never picked up a queued job")
		}
	}
	for _, id := range ids {
		waitState(t, ts, id)
	}
	_ = s
}

// TestCancelQueuedAndRunning exercises both cancellation paths: a
// gated (still-pending) job dies instantly, a running one is
// interrupted mid-simulation and lands canceled without a result.
func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newTestService(t, Config{Workers: 1, startGate: gate})
	first := submit(t, ts, `{"seed":1,"duration":"`+testDur+`"}`)
	// A long job we cancel while it runs: 1h of virtual VoIP takes
	// long enough in real time for the DELETE to land mid-run.
	second := submit(t, ts, `{"seed":2,"duration":"1h"}`)
	third := submit(t, ts, `{"seed":3,"duration":"`+testDur+`"}`)

	// Cancel the third while it can only be queued (worker 1 is gated).
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+third, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: %d", resp.StatusCode)
	}
	if st := getStatus(t, ts, third); st.State != StateCanceled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}

	gate <- struct{}{} // release the first job
	if st := waitState(t, ts, first); st.State != StateDone {
		t.Fatalf("first job: %s (%s)", st.State, st.Error)
	}
	gate <- struct{}{} // release the second (long) job
	// Wait for it to be running, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, second).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("second job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+second, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitState(t, ts, second); st.State != StateCanceled {
		t.Fatalf("running job after cancel: %s (%s)", st.State, st.Error)
	}
	// The gated third job: its result endpoint must refuse.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + second + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("canceled job's result: %d, want 409", resp.StatusCode)
	}
}

// TestShutdownDrainsQueue: Shutdown must finish queued work before
// returning, and refuse new submissions while draining.
func TestShutdownDrainsQueue(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, submit(t, ts,
			fmt.Sprintf(`{"seed":%d,"duration":"%s"}`, i+1, testDur)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for _, id := range ids {
		if st := getStatus(t, ts, id); st.State != StateDone {
			t.Errorf("job %s after drain: %s (%s)", id, st.State, st.Error)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"seed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: %d, want 503", resp.StatusCode)
	}
}

// TestConcurrentJobLoad hammers the service with parallel submitters
// and status pollers — the -race guard for the job table, hubs, and
// the shared metrics registry.
func TestConcurrentJobLoad(t *testing.T) {
	_, ts := newTestService(t, Config{Queue: 32, Workers: 4})
	var wg sync.WaitGroup
	ids := make([]string, 8)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submit(t, ts,
				fmt.Sprintf(`{"seed":%d,"duration":"%s","analysis":{"mode":"stream-only"}}`, i, testDur))
			// Poll status and metrics while jobs churn.
			for j := 0; j < 5; j++ {
				getStatus(t, ts, ids[i])
				resp, err := http.Get(ts.URL + "/v1/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if st := waitState(t, ts, id); st.State != StateDone {
			t.Errorf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	// Same seed+spec submitted twice must produce identical bytes.
	dup := submit(t, ts, fmt.Sprintf(`{"seed":0,"duration":"%s","analysis":{"mode":"stream-only"}}`, testDur))
	waitState(t, ts, dup)
	if !bytes.Equal(getResult(t, ts, ids[0]), getResult(t, ts, dup)) {
		t.Error("identical specs produced different result bytes under load")
	}
}

// TestMetricsScrape checks the service-level instruments and the
// per-job simulation snapshots appear in one scrape.
func TestMetricsScrape(t *testing.T) {
	_, ts := newTestService(t, Config{})
	id := submit(t, ts, `{"seed":4,"duration":"`+testDur+`"}`)
	waitState(t, ts, id)
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var scrape struct {
		Service struct {
			Counters   map[string]int64          `json:"counters"`
			Gauges     map[string]map[string]any `json:"gauges"`
			Histograms map[string]struct {
				Count int64 `json:"count"`
			} `json:"histograms"`
		} `json:"service"`
		Jobs map[string]struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scrape); err != nil {
		t.Fatal(err)
	}
	if got := scrape.Service.Counters["control/jobs_queued"]; got != 1 {
		t.Errorf("jobs_queued = %d, want 1", got)
	}
	if got := scrape.Service.Counters["control/jobs_done"]; got != 1 {
		t.Errorf("jobs_done = %d, want 1", got)
	}
	if got := scrape.Service.Histograms["control/job_latency_ms"].Count; got != 1 {
		t.Errorf("job_latency observations = %d, want 1", got)
	}
	snap, ok := scrape.Jobs[id]
	if !ok {
		t.Fatalf("no per-job snapshot for %s", id)
	}
	if snap.Counters["sim/events_fired"] == 0 {
		t.Error("per-job snapshot missing simulation counters")
	}
}

// TestMetricsScrapeShardCounters: a multi-cell sharded job's merged
// snapshot must surface the coordinator's window counter
// through /v1/metrics, not just the sim/netsim counters. The -metrics
// CLI dump always carried the raw per-shard snapshots; this pins the
// serve-mode path to the same merged view.
func TestMetricsScrapeShardCounters(t *testing.T) {
	_, ts := newTestService(t, Config{})
	id := submit(t, ts, `{"seed":4,"cells":2,"terminals":1,"shards":3,`+
		`"shard_policy":"dynamic","flow_start":"8s","duration":"`+testDur+`"}`)
	if st := waitState(t, ts, id); st.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var scrape struct {
		Jobs map[string]struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scrape); err != nil {
		t.Fatal(err)
	}
	snap, ok := scrape.Jobs[id]
	if !ok {
		t.Fatalf("no per-job snapshot for %s", id)
	}
	if got := snap.Counters["shard/windows"]; got == 0 {
		t.Error("merged snapshot missing shard/windows")
	}
}

// TestSubmitRejectsBadSpecs: malformed JSON, unknown fields, and
// invalid field values all come back 400 with the field path.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestService(t, Config{})
	for body, wantFrag := range map[string]string{
		`{not json`:                 "spec",
		`{"sheduler":"heap"}`:       "sheduler",
		`{"scheduler":"heap"}`:      `unknown field \"scheduler\"`,
		`{"shard_policy":"bogus"}`:  "spec.shard_policy",
		`{"cells":2,"path":"umts"}`: "spec.path",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit(%s): %d, want 400", body, resp.StatusCode)
		}
		if !strings.Contains(string(got), wantFrag) {
			t.Errorf("submit(%s) error %s does not mention %q", body, got, wantFrag)
		}
	}
}

// TestSubmitRejectsRunLimits: a spec past a multi-cell run's build
// limits is refused by Submit itself, not queued to fail at run time.
func TestSubmitRejectsRunLimits(t *testing.T) {
	s, _ := newTestService(t, Config{})
	for _, spec := range []testbed.Spec{
		{Cells: 57, Duration: testbed.Duration(time.Second)},
		{Cells: 2, Terminals: 40000, IdleTerminals: 1},
		{Cells: 1, Terminals: 255},
	} {
		if id, err := s.Submit(&spec); err == nil {
			t.Errorf("Submit(%+v) queued %s, want it refused", spec, id)
		}
	}
}

// TestSubmitRejectsPanickingSpecs: a quantile sketch error bound
// outside (0, 1) and a shrinking redial backoff, values that would
// panic deep in a run, can no longer be stated: a spec naming their
// fields is refused at submission with 400 naming the field, and the
// server goes on to complete a valid job.
func TestSubmitRejectsPanickingSpecs(t *testing.T) {
	_, ts := newTestService(t, Config{})
	for body, wantFrag := range map[string]string{
		`{"duration":"2s","analysis":{"mode":"stream","sketch_rel_err":1.5}}`: "sketch_rel_err",
		`{"duration":"2s","self_heal":true,"heal_policy":{"multiplier":0.5}}`: "heal_policy",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit(%s): %d, want 400", body, resp.StatusCode)
		}
		if !strings.Contains(string(got), wantFrag) {
			t.Errorf("submit(%s) error %s does not mention %q", body, got, wantFrag)
		}
	}
	id := submit(t, ts, `{"seed":3,"duration":"`+testDur+`"}`)
	if st := waitState(t, ts, id); st.State != StateDone {
		t.Fatalf("valid job after rejected specs ended %s (%s)", st.State, st.Error)
	}
	if len(getResult(t, ts, id)) == 0 {
		t.Fatal("valid job after rejected specs returned an empty result")
	}
}

// TestJobHistoryEvictsOldestFinished reaches the finished-job cap (2
// here, 1024 by default): the oldest finished job is evicted and its ID
// answers 410, an ID never issued still answers 404, and queued and
// running jobs are never evicted however many there are.
func TestJobHistoryEvictsOldestFinished(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestService(t, Config{Workers: 1, startGate: gate, maxFinished: 2})
	code := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	spec := `{"seed":1,"duration":"` + testDur + `"}`
	var ids []string
	for i := 0; i < 2; i++ {
		ids = append(ids, submit(t, ts, spec))
		gate <- struct{}{}
		waitState(t, ts, ids[i])
	}
	// A running job (held at the gate) and a queued one: four jobs
	// against a cap of two, and nothing is evicted.
	running, queued := submit(t, ts, spec), submit(t, ts, spec)
	for getStatus(t, ts, running).State != StateRunning {
		time.Sleep(2 * time.Millisecond)
	}
	for _, id := range []string{ids[0], ids[1], running, queued} {
		if c := code("/v1/jobs/" + id); c != http.StatusOK {
			t.Fatalf("%s: status %d before the cap was exceeded", id, c)
		}
	}
	// Canceling the queued job finishes it: the oldest finished job goes.
	if err := s.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if c := code("/v1/jobs/" + ids[0]); c != http.StatusGone {
		t.Errorf("evicted %s: status %d, want 410", ids[0], c)
	}
	if st := getStatus(t, ts, running); st.State != StateRunning {
		t.Errorf("running job is %s after an eviction", st.State)
	}
	gate <- struct{}{}
	if st := waitState(t, ts, running); st.State != StateDone {
		t.Fatalf("running job ended %s (%s)", st.State, st.Error)
	}
	for _, path := range []string{"/v1/jobs/" + ids[1], "/v1/jobs/" + ids[1] + "/result", "/v1/jobs/" + ids[1] + "/stream"} {
		if c := code(path); c != http.StatusGone {
			t.Errorf("%s: status %d, want 410", path, c)
		}
	}
	for _, id := range []string{"job-99", "job-01", "job-0", "nope"} {
		if c := code("/v1/jobs/" + id); c != http.StatusNotFound {
			t.Errorf("never-issued %s: status %d, want 404", id, c)
		}
	}
	getResult(t, ts, running)

	s.mu.Lock()
	defer s.mu.Unlock()
	if got, want := s.order, []string{running, queued}; !reflect.DeepEqual(got, want) {
		t.Errorf("job list %v, want %v", got, want)
	}
	if len(s.jobs) != 2 || len(s.snaps) != 1 {
		t.Errorf("holding %d jobs and %d snapshots, want 2 and 1", len(s.jobs), len(s.snaps))
	}
	if got := s.reg.Counter("control/jobs_evicted").Value(); got != 2 {
		t.Errorf("control/jobs_evicted = %d, want 2", got)
	}
}

// TestJobHistoryEvictionUnderLoad churns the capped history from
// several clients at once — submits, status polls, list and metrics
// scrapes racing with evictions — the -race guard for the eviction
// path.
func TestJobHistoryEvictionUnderLoad(t *testing.T) {
	const clients, perClient, keep = 4, 3, 3
	s, ts := newTestService(t, Config{Queue: clients * perClient, Workers: 2, maxFinished: keep})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				id := submit(t, ts, fmt.Sprintf(`{"seed":%d,"duration":"%s"}`, c*perClient+k+1, testDur))
				for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs", "/v1/metrics"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGone {
						t.Errorf("%s: status %d", path, resp.StatusCode)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.mu.Lock()
		done := s.reg.Counter("control/jobs_done").Value()
		s.mu.Unlock()
		if done == clients*perClient {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs done", done, clients*perClient)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != keep || len(s.order) != keep || len(s.snaps) != keep {
		t.Errorf("holding %d jobs, %d listed, %d snapshots; want %d each", len(s.jobs), len(s.order), len(s.snaps), keep)
	}
	if got := s.reg.Counter("control/jobs_evicted").Value(); got != clients*perClient-keep {
		t.Errorf("control/jobs_evicted = %d, want %d", got, clients*perClient-keep)
	}
}
