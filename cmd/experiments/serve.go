package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
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

// newServeServer returns the serve-mode HTTP server for h.
func newServeServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
}

// runServe hosts the control plane on addr until SIGINT/SIGTERM, then
// drains: the HTTP listener closes first (no new submissions), queued
// jobs run to completion, and only then does the process exit. It
// prints the bound address once the listener is up, so a caller that
// asked for port 0 learns the port and can connect at once.
func runServe(addr string, workers int) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctl := control.NewServer(control.Config{Workers: workers})
	srv := newServeServer(ctl.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("experiments: control plane listening on %s (POST /v1/jobs)\n", ln.Addr())
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
