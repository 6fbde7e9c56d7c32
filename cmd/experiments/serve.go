package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/onelab/umtslab/internal/control"
	"github.com/onelab/umtslab/internal/testbed"
)

// loadSpec reads one declarative spec document ("-" for stdin) and
// builds its scenario; an error means the document was unreadable or
// refused, before anything ran.
func loadSpec(path string) (*testbed.Scenario, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	spec, err := testbed.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return spec.Scenario()
}

// runSpec runs a scenario built by loadSpec and writes the canonical
// result encoding to stdout. This is the one-shot twin of the control
// plane's job runner: the same spec submitted to -serve produces
// byte-identical output at /v1/jobs/{id}/result.
func runSpec(sc *testbed.Scenario) error {
	rep, err := sc.Run()
	if err != nil {
		return err
	}
	out, err := control.EncodeReport(rep)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(out)
	return err
}

// Connection-time bounds of the serve-mode HTTP server. A client must
// finish its request headers within serveReadHeaderTimeout, and a
// keep-alive connection with no request in flight is closed after
// serveIdleTimeout, so neither a half-sent header nor an idle client
// can hold a connection and its goroutine forever. Job bodies are
// small and results are read from memory, so neither bound limits a
// well-behaved client; long-lived SSE streams are unaffected because
// both apply only while no request is being served.
const (
	serveReadHeaderTimeout = 5 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// newServeServer returns the serve-mode HTTP server for h on addr.
func newServeServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
}

// runServe hosts the control plane on addr until SIGINT/SIGTERM, then
// drains: the HTTP listener closes first (no new submissions), queued
// jobs run to completion, and only then does the process exit.
func runServe(addr string, workers int) error {
	ctl := control.NewServer(control.Config{Workers: workers})
	srv := newServeServer(addr, ctl.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("experiments: control plane listening on %s (POST /v1/jobs)\n", addr)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("experiments: %v — draining job queue\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := ctl.Shutdown(ctx); err != nil {
			return err
		}
		fmt.Println("experiments: drained, bye")
		return nil
	}
}

// serveSmoke is the `make serve-smoke` gate: an in-process end-to-end
// exercise of the service mode. It submits two specs concurrently,
// streams one job's live windows to completion over SSE, proves the
// HTTP result byte-identical to a direct run of the same spec, scrapes
// the metrics endpoint, and checks graceful shutdown drains a queued
// job instead of dropping it.
func serveSmoke() error {
	ctl := control.NewServer(control.Config{Workers: 2})
	ts := httptest.NewServer(ctl.Handler())
	defer ts.Close()

	streamSpec := `{"seed":3,"duration":"12s","analysis":{"mode":"stream","exact":true}}`
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
			return fmt.Errorf("submit %d: %w", i, err)
		}
	}

	// Stream the first job to completion.
	windows, final, err := smokeStream(ts.URL, ids[0])
	if err != nil {
		return err
	}
	if final.State != "done" {
		return fmt.Errorf("streamed job ended %s (%s)", final.State, final.Error)
	}
	if windows == 0 {
		return fmt.Errorf("streaming job delivered no live windows")
	}
	fmt.Printf("serve-smoke: job %s streamed %d live windows and finished %s\n",
		ids[0], windows, final.State)

	// The HTTP result must be byte-identical to the direct run.
	got, err := smokeResult(ts.URL, ids[0])
	if err != nil {
		return err
	}
	spec, err := testbed.ParseSpec([]byte(streamSpec))
	if err != nil {
		return err
	}
	sc, err := spec.Scenario()
	if err != nil {
		return err
	}
	rep, err := sc.Run()
	if err != nil {
		return err
	}
	want, err := control.EncodeReport(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("HTTP result differs from direct run (%d vs %d bytes)", len(got), len(want))
	}
	fmt.Printf("serve-smoke: job %s result byte-identical to the one-shot run (%d bytes)\n",
		ids[0], len(got))

	// Wait out the second job, then scrape the metrics endpoint.
	if err := smokeWait(ts.URL, ids[1]); err != nil {
		return err
	}
	var scrape struct {
		Service struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"service"`
		Jobs map[string]json.RawMessage `json:"jobs"`
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&scrape)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if got := scrape.Service.Counters["control/jobs_done"]; got != 2 {
		return fmt.Errorf("metrics scrape: jobs_done = %d, want 2", got)
	}
	if len(scrape.Jobs) != 2 {
		return fmt.Errorf("metrics scrape: %d per-job snapshots, want 2", len(scrape.Jobs))
	}
	fmt.Printf("serve-smoke: metrics scrape shows %d done jobs and %d per-job snapshots\n",
		scrape.Service.Counters["control/jobs_done"], len(scrape.Jobs))

	// Queue one more job and immediately drain: graceful shutdown must
	// finish it, and post-shutdown submissions must bounce.
	lastID, err := smokeSubmit(ts.URL, `{"seed":7,"duration":"12s"}`)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := ctl.Shutdown(ctx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	st, err := smokeStatus(ts.URL, lastID)
	if err != nil {
		return err
	}
	if st.State != "done" {
		return fmt.Errorf("job %s after drain: %s (%s), want done", lastID, st.State, st.Error)
	}
	if _, err := smokeSubmit(ts.URL, `{"seed":9}`); err == nil {
		return fmt.Errorf("submission accepted after shutdown")
	}
	fmt.Printf("serve-smoke: graceful shutdown drained %s; post-shutdown submit refused\n", lastID)
	fmt.Println("serve-smoke: PASS")
	return nil
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
