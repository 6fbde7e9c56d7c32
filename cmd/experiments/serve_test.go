package main

import (
	"errors"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestServeClosesStalledHeader: a client that sends half a request
// line and then stalls must be disconnected once the header timeout
// passes, instead of holding the connection and its goroutine forever.
func TestServeClosesStalledHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServeServer(ln.Addr().String(), http.NotFoundHandler())
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
