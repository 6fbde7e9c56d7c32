package dialer

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/sim"
)

// fakePort is a scriptable serial.Port: Write captures what the chat
// engine sent, and the test pushes modem output through the receiver in
// whatever chunking it wants to exercise.
type fakePort struct {
	sent strings.Builder
	recv func([]byte)
}

func (p *fakePort) Write(b []byte) int          { p.sent.Write(b); return len(b) }
func (p *fakePort) SetReceiver(fn func([]byte)) { p.recv = fn }

// push feeds modem output to the chat engine in the given chunks.
func (p *fakePort) push(chunks ...string) {
	for _, c := range chunks {
		p.recv([]byte(c))
	}
}

func newChatRig() (*sim.Loop, *fakePort, *chat) {
	loop := sim.NewLoop(1)
	port := &fakePort{}
	c := newChat(loop, port, nil)
	return loop, port, c
}

func TestChatAbortMatch(t *testing.T) {
	loop, port, c := newChatRig()
	var gotErr error
	done := false
	c.sendExpect("ATD*99***1#", []string{"CONNECT"}, []string{"NO CARRIER", "ERROR", "BUSY"},
		time.Minute, func(_ string, err error) { done, gotErr = true, err })
	port.push("\r\nNO CARRIER\r\n")
	if !done {
		t.Fatal("abort token did not complete the exchange")
	}
	if !errors.Is(gotErr, ErrChatAbort) {
		t.Errorf("err = %v, want ErrChatAbort", gotErr)
	}
	if !errors.Is(gotErr, ErrNoCarrier) {
		t.Errorf("err = %v, want ErrNoCarrier (typed abort)", gotErr)
	}
	// The abort must have cancelled the timeout: nothing else fires.
	loop.Run()
	if !strings.Contains(port.sent.String(), "ATD*99***1#\r") {
		t.Errorf("command not sent: %q", port.sent.String())
	}
}

func TestChatBusyAbortIsTyped(t *testing.T) {
	_, port, c := newChatRig()
	var gotErr error
	c.sendExpect("ATDT555", []string{"CONNECT"}, []string{"BUSY"}, time.Minute,
		func(_ string, err error) { gotErr = err })
	port.push("\r\nBUSY\r\n")
	if !errors.Is(gotErr, ErrLineBusy) || !errors.Is(gotErr, ErrChatAbort) {
		t.Fatalf("err = %v, want ErrChatAbort wrapping ErrLineBusy", gotErr)
	}
}

func TestChatExpectTimeout(t *testing.T) {
	loop, port, c := newChatRig()
	var gotErr error
	done := false
	c.sendExpect("AT+CREG?", []string{"OK"}, []string{"ERROR"}, 5*time.Second,
		func(_ string, err error) { done, gotErr = true, err })
	// The modem answers, but never with a terminal result code.
	port.push("\r\n+CREG: 0,2\r\n")
	loop.RunUntil(time.Minute)
	if !done {
		t.Fatal("timeout did not fire")
	}
	if !errors.Is(gotErr, ErrChatTimeout) {
		t.Fatalf("err = %v, want ErrChatTimeout", gotErr)
	}
	if !strings.Contains(gotErr.Error(), "+CREG: 0,2") {
		t.Errorf("timeout error does not carry the tail of what was seen: %v", gotErr)
	}
}

// TestChatGarbageAroundOK: line noise interleaved with the response,
// with the expect token split across receive chunks, must still match.
func TestChatGarbageAroundOK(t *testing.T) {
	_, port, c := newChatRig()
	var matched string
	var gotErr error
	c.sendExpect("ATZ", []string{"OK"}, []string{"ERROR"}, time.Minute,
		func(m string, err error) { matched, gotErr = m, err })
	port.push("\x00\xff~garbage~\r\n", "O", "K\r\n")
	if gotErr != nil {
		t.Fatalf("err = %v", gotErr)
	}
	if matched != "OK" {
		t.Fatalf("matched %q, want OK", matched)
	}
}

// TestChatAbortBeatsExpect: when one burst carries both an abort and an
// expect token, the abort wins — the modem reported a failure even if a
// stale OK is sitting in the buffer.
func TestChatAbortBeatsExpect(t *testing.T) {
	_, port, c := newChatRig()
	var gotErr error
	c.sendExpect("ATD*99***1#", []string{"CONNECT"}, []string{"NO CARRIER"}, time.Minute,
		func(_ string, err error) { gotErr = err })
	port.push("\r\nCONNECT\r\nNO CARRIER\r\n")
	if !errors.Is(gotErr, ErrNoCarrier) {
		t.Fatalf("err = %v, want the abort to take priority", gotErr)
	}
}

func TestChatBusyExchange(t *testing.T) {
	_, port, c := newChatRig()
	c.sendExpect("AT", []string{"OK"}, nil, time.Minute, func(string, error) {})
	var gotErr error
	c.sendExpect("ATZ", []string{"OK"}, nil, time.Minute,
		func(_ string, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy while an exchange is in flight", gotErr)
	}
	// The first exchange is unharmed.
	finished := false
	c.callback = func(string, error) { finished = true }
	port.push("\r\nOK\r\n")
	if !finished {
		t.Fatal("first exchange lost its completion")
	}
}

// TestChatTimeoutTailTruncation: the timeout error quotes at most the
// last 80 bytes of modem output, not an unbounded transcript.
func TestChatTimeoutTailTruncation(t *testing.T) {
	loop, port, c := newChatRig()
	var gotErr error
	c.sendExpect("AT", []string{"OK"}, nil, time.Second,
		func(_ string, err error) { gotErr = err })
	port.push(strings.Repeat("x", 500))
	loop.RunUntil(time.Minute)
	if !errors.Is(gotErr, ErrChatTimeout) {
		t.Fatalf("err = %v, want ErrChatTimeout", gotErr)
	}
	if len(gotErr.Error()) > 200 {
		t.Errorf("timeout error not truncated: %d bytes", len(gotErr.Error()))
	}
}

// FuzzChat feeds arbitrary modem output, cut into arbitrary chunks,
// into one ATD exchange (the dialer's tokens). The callback must fire
// exactly once, with the outcome of the first chunk after which the
// output holds a token: an abort token wins over an expect token, in
// the order check tries them, and output holding no token times out.
func FuzzChat(f *testing.F) {
	f.Add([]byte("\r\nCONNECT 3600000\r\n"), []byte{3})
	f.Add([]byte("\r\nNO CARRIER\r\n"), []byte{1})
	f.Add([]byte("CONNECT ERROR"), []byte{0})
	f.Add([]byte("CONNECT\r\nERROR\r\n"), []byte{15})
	f.Add([]byte("BUSY\r\nNO CARRIER"), []byte{4, 9})
	f.Add([]byte("BUSY\r\nNO CARRIER\r\n"), []byte{15})
	f.Add([]byte("\r\nOK\r\n"), []byte{})
	expect := []string{"CONNECT"}
	abort := []string{"NO CARRIER", "ERROR", "BUSY"}
	f.Fuzz(func(t *testing.T, out, cuts []byte) {
		loop, port, c := newChatRig()
		calls := 0
		var matched string
		var gotErr error
		c.sendExpect("ATD*99***1#", expect, abort, time.Minute, func(m string, err error) {
			calls++
			matched, gotErr = m, err
		})

		// The reference outcome: scan the output prefix at each chunk
		// end, as the engine sees it.
		var wantMatch, wantAbort string
		decided := false
		decide := func(seen string) {
			for _, a := range abort {
				if strings.Contains(seen, a) {
					wantAbort, decided = a, true
					return
				}
			}
			for _, e := range expect {
				if strings.Contains(seen, e) {
					wantMatch, decided = e, true
					return
				}
			}
		}
		for i, end := 0, 0; end < len(out); i++ {
			n := 1
			if len(cuts) > 0 {
				n += int(cuts[i%len(cuts)]) % 16
			}
			start := end
			end = min(end+n, len(out))
			port.push(string(out[start:end]))
			if !decided {
				decide(string(out[:end]))
			}
		}
		loop.Run()

		if calls != 1 {
			t.Fatalf("callback fired %d times, want once", calls)
		}
		switch {
		case wantAbort != "":
			if matched != "" || !errors.Is(gotErr, ErrChatAbort) || gotErr.Error() != abortError(wantAbort).Error() {
				t.Fatalf("got (%q, %v), want the %q abort", matched, gotErr, wantAbort)
			}
		case wantMatch != "":
			if matched != wantMatch || gotErr != nil {
				t.Fatalf("got (%q, %v), want a %q match", matched, gotErr, wantMatch)
			}
		default:
			if !errors.Is(gotErr, ErrChatTimeout) {
				t.Fatalf("got (%q, %v), want a timeout", matched, gotErr)
			}
		}
	})
}
