package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/control"
	"github.com/onelab/umtslab/internal/testbed"
)

// TestServeClosesStalledHeader: a client that sends half a request
// line and then stalls must be disconnected once the header timeout
// passes, instead of holding the connection and its goroutine forever.
func TestServeClosesStalledHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServeServer(http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/jobs HT")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	limit := serveReadHeaderTimeout + 2*time.Second
	if err := conn.SetReadDeadline(start.Add(limit)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for {
		_, err := conn.Read(buf)
		if err == nil {
			continue // any error response the server writes before closing
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("server still holds a stalled half-header connection after %v", limit)
		}
		break // EOF or reset: the server closed the connection
	}
	if took := time.Since(start); took < serveReadHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the %v header timeout could apply", took, serveReadHeaderTimeout)
	}
}

// TestServeSmoke is the `make serve-smoke` gate: an in-process end-to-end
// exercise of the service mode. It submits two specs concurrently,
// streams one job's live windows to completion over SSE, proves the
// HTTP result byte-identical to a direct run of the same spec, scrapes
// the metrics endpoint, and checks graceful shutdown drains a queued
// job instead of dropping it.
func TestServeSmoke(t *testing.T) {
	ctl := control.NewServer(control.Config{Workers: 2})
	ts := httptest.NewServer(ctl.Handler())
	defer ts.Close()

	streamSpec := `{"seed":3,"duration":"12s"}`
	multiSpec := `{"seed":5,"cells":2,"terminals":1,"duration":"12s"}`

	// Submit both concurrently.
	ids := make([]string, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, spec := range []string{streamSpec, multiSpec} {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			ids[i], errs[i] = smokeSubmit(ts.URL, spec)
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	// Stream the first job to completion.
	windows, final, err := smokeStream(ts.URL, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("streamed job ended %s (%s)", final.State, final.Error)
	}
	if windows == 0 {
		t.Fatal("streaming job delivered no live windows")
	}
	t.Logf("job %s streamed %d live windows and finished %s", ids[0], windows, final.State)

	// The HTTP result must be byte-identical to the direct run.
	got, err := smokeResult(ts.URL, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	spec, err := testbed.ParseSpec([]byte(streamSpec))
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
	want, err := control.EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP result differs from direct run (%d vs %d bytes)", len(got), len(want))
	}
	t.Logf("job %s result byte-identical to the one-shot run (%d bytes)", ids[0], len(got))

	// Wait out the second job, then scrape the metrics endpoint.
	if err := smokeWait(ts.URL, ids[1]); err != nil {
		t.Fatal(err)
	}
	var scrape struct {
		Service struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"service"`
		Jobs map[string]json.RawMessage `json:"jobs"`
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&scrape)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := scrape.Service.Counters["control/jobs_done"]; got != 2 {
		t.Fatalf("metrics scrape: jobs_done = %d, want 2", got)
	}
	if len(scrape.Jobs) != 2 {
		t.Fatalf("metrics scrape: %d per-job snapshots, want 2", len(scrape.Jobs))
	}
	t.Logf("metrics scrape shows %d done jobs and %d per-job snapshots",
		scrape.Service.Counters["control/jobs_done"], len(scrape.Jobs))

	// Queue one more job and immediately drain: graceful shutdown must
	// finish it, and post-shutdown submissions must bounce.
	lastID, err := smokeSubmit(ts.URL, `{"seed":7,"duration":"12s"}`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := ctl.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	st, err := smokeStatus(ts.URL, lastID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job %s after drain: %s (%s), want done", lastID, st.State, st.Error)
	}
	if _, err := smokeSubmit(ts.URL, `{"seed":9}`); err == nil {
		t.Fatal("submission accepted after shutdown")
	}
	t.Logf("graceful shutdown drained %s; post-shutdown submit refused", lastID)
}

// TestServePrintsBoundAddress: -serve 127.0.0.1:0 binds before it
// prints, and prints the address it bound, so the line names a port
// that answers GET /v1/jobs; SIGTERM then drains and exits 0. -workers,
// which the service reads, is accepted beside -serve.
func TestServePrintsBoundAddress(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-serve", "127.0.0.1:0", "-workers", "1")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	out := bufio.NewScanner(stdout)
	if !out.Scan() {
		t.Fatalf("no startup line: %v", out.Err())
	}
	line := out.Text()
	addr, _, ok := strings.Cut(strings.TrimPrefix(line, "experiments: control plane listening on "), " ")
	if !ok || strings.HasSuffix(addr, ":0") {
		t.Fatalf("startup line %q does not name the bound address", line)
	}
	resp, err := http.Get("http://" + addr + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs at the printed address %s: %v", addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs at %s: status %d, want 200", addr, resp.StatusCode)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("after SIGTERM: %v", err)
	}
}

func smokeSubmit(base, spec string) (string, error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %d %s", resp.StatusCode, body)
	}
	var st control.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

func smokeStatus(base, id string) (control.JobStatus, error) {
	var st control.JobStatus
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func smokeWait(base, id string) error {
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, err := smokeStatus(base, id)
		if err != nil {
			return err
		}
		switch st.State {
		case "done":
			return nil
		case "failed", "canceled":
			return fmt.Errorf("job %s ended %s (%s)", id, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("job %s did not finish", id)
}

func smokeResult(base, id string) ([]byte, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: %d %s", resp.StatusCode, body)
	}
	return body, nil
}

// smokeStream follows a job's SSE stream to the terminal result event,
// returning the live-window count and the final state.
func smokeStream(base, id string) (int, control.JobStatus, error) {
	var final control.JobStatus
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return 0, final, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return 0, final, fmt.Errorf("stream content type %q", ct)
	}
	windows := 0
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "window":
				windows++
			case "result":
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					return windows, final, err
				}
			}
		}
	}
	if final.State == "" {
		return windows, final, fmt.Errorf("stream closed without a result event")
	}
	return windows, final, sc.Err()
}
