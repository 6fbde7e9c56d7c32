package serial

import (
	"bytes"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/sim"
)

func TestDeliveryBothDirections(t *testing.T) {
	loop := sim.NewLoop(1)
	l := NewLine(loop, "ttyUSB0", 0)
	var atModem, atHost []byte
	l.ModemEnd().SetReceiver(func(p []byte) { atModem = append(atModem, p...) })
	l.HostEnd().SetReceiver(func(p []byte) { atHost = append(atHost, p...) })
	l.HostEnd().Write([]byte("ATZ\r"))
	l.ModemEnd().Write([]byte("OK\r\n"))
	loop.Run()
	if !bytes.Equal(atModem, []byte("ATZ\r")) {
		t.Fatalf("modem got %q", atModem)
	}
	if !bytes.Equal(atHost, []byte("OK\r\n")) {
		t.Fatalf("host got %q", atHost)
	}
}

func TestBaudPacing(t *testing.T) {
	loop := sim.NewLoop(1)
	// 1000 baud, 8N1: 100 bytes/s. 50 bytes should take 500ms.
	l := NewLine(loop, "tty", 1000)
	var doneAt time.Duration
	l.ModemEnd().SetReceiver(func(p []byte) { doneAt = loop.Now() })
	l.HostEnd().Write(make([]byte, 50))
	loop.Run()
	if doneAt != 500*time.Millisecond {
		t.Fatalf("delivered at %v, want 500ms", doneAt)
	}
}

func TestFIFOOrderAcrossWrites(t *testing.T) {
	loop := sim.NewLoop(1)
	l := NewLine(loop, "tty", 9600)
	var got []byte
	l.ModemEnd().SetReceiver(func(p []byte) { got = append(got, p...) })
	l.HostEnd().Write([]byte("AT+"))
	l.HostEnd().Write([]byte("CREG"))
	l.HostEnd().Write([]byte("?\r"))
	loop.Run()
	if string(got) != "AT+CREG?\r" {
		t.Fatalf("got %q", got)
	}
}

func TestWriteCopiesData(t *testing.T) {
	loop := sim.NewLoop(1)
	l := NewLine(loop, "tty", 9600)
	var got []byte
	l.ModemEnd().SetReceiver(func(p []byte) { got = append(got, p...) })
	buf := []byte("hello")
	l.HostEnd().Write(buf)
	buf[0] = 'X' // mutate after write; the line must have copied
	loop.Run()
	if string(got) != "hello" {
		t.Fatalf("got %q, line did not copy the buffer", got)
	}
}

func TestNilReceiverDiscards(t *testing.T) {
	loop := sim.NewLoop(1)
	l := NewLine(loop, "tty", 0)
	l.HostEnd().Write([]byte("dropped"))
	loop.Run() // must not panic
}

func TestZeroLengthWrite(t *testing.T) {
	loop := sim.NewLoop(1)
	l := NewLine(loop, "tty", 9600)
	if n := l.HostEnd().Write(nil); n != 0 {
		t.Fatalf("Write(nil) = %d", n)
	}
	loop.Run()
}

func TestIndependentDirections(t *testing.T) {
	loop := sim.NewLoop(1)
	l := NewLine(loop, "tty", 1000) // 100 B/s each way
	var hostAt, modemAt time.Duration
	l.ModemEnd().SetReceiver(func(p []byte) { modemAt = loop.Now() })
	l.HostEnd().SetReceiver(func(p []byte) { hostAt = loop.Now() })
	l.HostEnd().Write(make([]byte, 100))  // 1s
	l.ModemEnd().Write(make([]byte, 100)) // 1s, concurrent
	loop.Run()
	if hostAt != time.Second || modemAt != time.Second {
		t.Fatalf("directions not independent: host %v modem %v", hostAt, modemAt)
	}
}

func TestByteErrorInjection(t *testing.T) {
	loop := sim.NewLoop(1)
	l := NewLine(loop, "noisy", 0)
	l.SetByteErrorRate(0.5)
	var got []byte
	l.ModemEnd().SetReceiver(func(p []byte) { got = append(got, p...) })
	sent := bytes.Repeat([]byte{0xAA}, 4000)
	l.HostEnd().Write(sent)
	loop.Run()
	if len(got) != len(sent) {
		t.Fatalf("length changed: %d", len(got))
	}
	corrupted := 0
	for i := range got {
		if got[i] != sent[i] {
			corrupted++
		}
	}
	if corrupted < 1500 || corrupted > 2500 {
		t.Fatalf("corrupted %d of %d at p=0.5", corrupted, len(sent))
	}
}

func TestZeroErrorRateIsClean(t *testing.T) {
	loop := sim.NewLoop(1)
	l := NewLine(loop, "clean", 0)
	var got []byte
	l.ModemEnd().SetReceiver(func(p []byte) { got = append(got, p...) })
	sent := bytes.Repeat([]byte{0x5A}, 1000)
	l.HostEnd().Write(sent)
	loop.Run()
	if !bytes.Equal(got, sent) {
		t.Fatal("clean line corrupted data")
	}
}
