// Package serial models a full-duplex asynchronous serial line (a TTY
// character device) between a host and a modem: byte-paced at a
// configurable line rate with 8N1 framing (10 line bits per data byte),
// FIFO buffered per direction.
//
// The PPP client (wvdial analog) talks AT commands and later HDLC frames
// through a Port; the modem owns the other end.
package serial

import (
	"math/rand"
	"time"

	"github.com/onelab/umtslab/internal/sim"
)

// bitsPerByte is the 8N1 line overhead: start bit + 8 data + stop bit.
const bitsPerByte = 10

// Port is one end of a serial line.
type Port interface {
	// Write queues data for transmission; the line paces it. Write never
	// blocks (the FIFO is unbounded, like a tty write with flow control
	// disabled) and returns len(p).
	Write(p []byte) int
	// SetReceiver installs the function invoked with each delivered
	// chunk. Only one receiver is active at a time; installing replaces
	// the previous one. A nil receiver discards incoming bytes.
	SetReceiver(fn func(p []byte))
}

// Line is a serial line with two ports. Direction A->B and B->A are
// independent.
type Line struct {
	Name  string
	a, b  *port
	dcd   bool
	onDCD func(bool)
}

// NewLine creates a line pacing both directions at baud bits per second.
// baud <= 0 means an infinitely fast line (useful in unit tests).
func NewLine(loop *sim.Loop, name string, baud int) *Line {
	l := &Line{Name: name}
	rng := loop.RNG("serial/" + name)
	l.a = &port{loop: loop, baud: baud, rng: rng}
	l.b = &port{loop: loop, baud: baud, rng: rng}
	l.a.peer = l.b
	l.b.peer = l.a
	l.a.tx.Init(loop, l.a.txTime, l.a.txDone)
	l.b.tx.Init(loop, l.b.txTime, l.b.txDone)
	return l
}

// SetByteErrorRate enables fault injection: each delivered byte is
// independently corrupted (one random bit flipped) with probability p.
// Corruption surfaces as HDLC FCS errors in the PPP layer, which must
// drop the frame and stay up — the behaviour of a marginal radio link or
// a noisy UART.
func (l *Line) SetByteErrorRate(p float64) {
	l.a.errRate = p
	l.b.errRate = p
}

// HostEnd returns the port the host (PPP client, dialer) uses.
func (l *Line) HostEnd() Port { return l.a }

// ModemEnd returns the port the modem uses.
func (l *Line) ModemEnd() Port { return l.b }

type port struct {
	loop    *sim.Loop
	baud    int
	rng     *rand.Rand
	errRate float64
	peer    *port
	recv    func([]byte)
	tx      sim.Pacer[[]byte] // paces chunks onto the line
}

func (p *port) Write(data []byte) int {
	if len(data) == 0 {
		return 0
	}
	// The caller keeps ownership of data; copy into a recycled chunk
	// that travels the line and returns to the pool after delivery.
	cp := p.loop.Buffers().Get(len(data))
	copy(cp, data)
	p.tx.Push(cp, len(cp))
	return len(cp)
}

func (p *port) txTime(data []byte) time.Duration {
	if p.baud > 0 {
		return time.Duration(float64(len(data)*bitsPerByte) / float64(p.baud) * float64(time.Second))
	}
	return 0
}

// txDone runs when a chunk finishes serializing: deliver it to the peer.
// Receivers consume delivered chunks synchronously (deframer, modem
// parser), so the chunk can be recycled right after.
func (p *port) txDone(data []byte) {
	p.peer.deliver(data)
	p.loop.Buffers().Put(data)
}

func (p *port) deliver(data []byte) {
	if p.errRate > 0 {
		for i := range data {
			if p.rng.Float64() < p.errRate {
				data[i] ^= 1 << p.rng.Intn(8)
			}
		}
	}
	if p.recv != nil {
		p.recv(data)
	}
}

func (p *port) SetReceiver(fn func([]byte)) { p.recv = fn }

// SetDCD changes the line's data-carrier-detect state (driven by the
// modem firmware: asserted on CONNECT, dropped on carrier loss). The
// host-side handler registered with OnDCD is notified of changes on the
// next event-loop tick, like a tty hangup signal.
func (l *Line) SetDCD(up bool) {
	if l.dcd == up {
		return
	}
	l.dcd = up
	if l.onDCD != nil {
		fn := l.onDCD
		l.a.loop.Post(func() { fn(up) })
	}
}

// DCD reports the current carrier state.
func (l *Line) DCD() bool { return l.dcd }

// OnDCD registers the host-side carrier-change handler (at most one;
// registering replaces the previous handler).
func (l *Line) OnDCD(fn func(up bool)) { l.onDCD = fn }
