package sim

import "time"

// Pacer is a rate-paced FIFO server, the one serialization discipline
// of every paced hop in the model: the wired and cross-shard links, the
// radio bearer and the serial line. One item is in service at a time;
// items pushed meanwhile wait in arrival order.
//
// The owner supplies two functions. txTime gives an item's service time
// and is evaluated when the item starts, so a rate change applies to
// the queued items and never to the one in flight. done runs when an
// item's service ends, while the pacer is still busy: a Push made
// inside done is queued, and only after done returns does the pacer
// start the oldest waiting item (unless paused). So whatever done
// schedules, such as a delivery, precedes the next item's completion
// event in the loop's order.
//
// Admission is the owner's: Busy, Len and Bytes tell a drop-tail check
// what a Push would join. The pacer schedules one stored callback per
// item, bound once by Init, so steady-state service does not allocate.
// A Pacer must not be copied after Init.
type Pacer[T any] struct {
	loop   *Loop
	txTime func(T) time.Duration
	done   func(T)

	queue    FIFO[paced[T]] // items waiting to start
	bytes    int            // sum of the waiting items' sizes
	busy     bool           // an item is in service
	paused   bool
	inflight T
	txDoneFn func()
}

// paced is a waiting item and the size it was pushed with.
type paced[T any] struct {
	v T
	n int
}

// Init binds the pacer to loop and to the owner's two functions.
func (p *Pacer[T]) Init(loop *Loop, txTime func(T) time.Duration, done func(T)) {
	p.loop, p.txTime, p.done = loop, txTime, done
	p.txDoneFn = p.txDone
}

// Busy reports whether a Push would wait: an item is in service or the
// pacer is paused.
func (p *Pacer[T]) Busy() bool { return p.busy || p.paused }

// Paused reports whether the pacer is paused.
func (p *Pacer[T]) Paused() bool { return p.paused }

// Len returns the number of waiting items, not counting the one in
// service.
func (p *Pacer[T]) Len() int { return p.queue.Len() }

// Bytes returns the summed sizes of the waiting items.
func (p *Pacer[T]) Bytes() int { return p.bytes }

// Push offers v, of n bytes. It starts v at once if the pacer is idle
// and not paused, and otherwise queues it; it reports whether v was
// queued.
func (p *Pacer[T]) Push(v T, n int) bool {
	if p.Busy() {
		p.queue.Push(paced[T]{v, n})
		p.bytes += n
		return true
	}
	p.start(v)
	return false
}

// Pause stops the pacer from starting items; the one in service
// finishes.
func (p *Pacer[T]) Pause() { p.paused = true }

// Resume lifts a Pause and, if no item is in service, starts the oldest
// waiting one.
func (p *Pacer[T]) Resume() {
	if !p.paused {
		return
	}
	p.paused = false
	if !p.busy {
		p.next()
	}
}

// Drain removes every waiting item, handing each to discard in order.
// The item in service still finishes.
func (p *Pacer[T]) Drain(discard func(T)) {
	for p.queue.Len() > 0 {
		discard(p.queue.Pop().v)
	}
	p.bytes = 0
}

func (p *Pacer[T]) start(v T) {
	p.busy = true
	p.inflight = v
	p.loop.After(p.txTime(v), p.txDoneFn)
}

// txDone fires when the item in service finishes: hand it to done, then
// start the next one.
func (p *Pacer[T]) txDone() {
	v := p.inflight
	var zero T
	p.inflight = zero
	p.done(v)
	p.next()
}

func (p *Pacer[T]) next() {
	if p.paused || p.queue.Len() == 0 {
		p.busy = false
		return
	}
	w := p.queue.Pop()
	p.bytes -= w.n
	p.start(w.v)
}
