// Package sim provides a deterministic discrete-event simulation kernel.
//
// All model code in this repository (links, modems, PPP state machines,
// traffic generators) runs inside a single Loop. Time is virtual: the loop
// holds a queue of timed events and advances its clock to the timestamp of
// each event as it fires. Within a single timestamp, events fire in
// scheduling order, which makes every run bit-for-bit reproducible for a
// given seed.
//
// The queue is one binary min-heap of inline (at, pri, seq) keys with
// lazy cancellation (see keyHeap). seq is the global scheduling counter,
// so (at, pri, seq) is a total order and the firing order is fully
// determined by the order in which events were scheduled.
//
// The kernel is intentionally single-threaded: model code never needs
// locks, and an entire 120-second paper experiment executes in a few
// milliseconds of real time.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/onelab/umtslab/internal/bufpool"
	"github.com/onelab/umtslab/internal/metrics"
)

// Loop is a discrete-event scheduler with a virtual clock.
//
// The zero value is not usable; construct with NewLoop.
type Loop struct {
	now     time.Duration
	seq     uint64
	q       eventQueue
	slab    eventSlab // every event of this loop, with its freelist
	seed    int64
	rngs    map[string]*rand.Rand
	stopped bool
	idleFns []func()

	intr        func() bool
	intrCount   int
	interrupted bool

	reg          *metrics.Registry
	buffers      *bufpool.Pool
	mFired       *metrics.Counter
	mCancelled   *metrics.Counter
	mCompactions *metrics.Counter
	mDepthPeak   *metrics.Gauge
}

// NewLoop returns a Loop whose clock starts at zero and whose named RNG
// streams are derived from seed.
func NewLoop(seed int64) *Loop {
	reg := metrics.NewRegistry()
	l := &Loop{
		seed:         seed,
		rngs:         make(map[string]*rand.Rand),
		reg:          reg,
		buffers:      bufpool.New(reg),
		mFired:       reg.Counter("sim/events_fired"),
		mCancelled:   reg.Counter("sim/events_cancelled"),
		mCompactions: reg.Counter("sim/heap_compactions"),
		mDepthPeak:   reg.Gauge("sim/heap_depth"),
	}
	l.q = &keyHeap{loop: l}
	return l
}

// Metrics returns the loop's metrics registry. Every model component
// running on this loop registers its instruments here, so one snapshot
// covers the whole simulation.
func (l *Loop) Metrics() *metrics.Registry { return l.reg }

// Buffers returns the loop's packet-buffer pool, shared by the model
// components on the hot path (HDLC framing, link and radio chunks, ITG
// payloads).
func (l *Loop) Buffers() *bufpool.Pool { return l.buffers }

// Now returns the current virtual time, measured from the start of the
// simulation.
func (l *Loop) Now() time.Duration { return l.now }

// Seed returns the seed the loop was created with.
func (l *Loop) Seed() int64 { return l.seed }

// RNG returns the deterministic random stream with the given name,
// creating it on first use. Distinct names yield independent streams, so a
// model component can own a stream without perturbing others when the
// topology changes.
func (l *Loop) RNG(name string) *rand.Rand {
	if r, ok := l.rngs[name]; ok {
		return r
	}
	r := rand.New(rand.NewSource(l.seed ^ int64(hashName(name))))
	l.rngs[name] = r
	return r
}

// hashName is FNV-1a over name — bit-identical to hash/fnv's New64a +
// Write, without allocating the hasher or converting the string.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// allocEvent takes an entry from the slab and stamps it with the next
// sequence number.
func (l *Loop) allocEvent(at time.Duration, fn func()) *event {
	ev := l.slab.alloc()
	ev.at = at
	ev.seq = l.seq
	ev.fn = fn
	ev.pri = priNormal
	l.seq++
	return ev
}

// freeEvent recycles an event no longer owned by the queue. The gen
// bump invalidates any Timer still holding the entry.
func (l *Loop) freeEvent(ev *event) {
	ev.fn = nil
	ev.gen++
	l.slab.release(ev)
}

// Timer is a handle to a scheduled event. It may be cancelled before it
// fires; cancelling an already-fired or already-cancelled timer is a no-op.
//
// Timer is a small value, not a pointer: At/After/Post hand one back
// without allocating, and the zero Timer is an inert handle on which
// Cancel and Pending are safe no-ops. Copies of a Timer all name the
// same event — the (event, generation) pair inside detects staleness, so
// cancelling through any copy after the event fired does nothing.
type Timer struct {
	loop *Loop
	ev   *event
	gen  uint32 // matches ev.gen while the handle is current
}

// Cancel prevents the timer's function from running if it has not fired.
//
// Cancellation is lazy and O(1) amortized: the event is marked dead and
// leaves the queue when it reaches the head or when the queue compacts,
// once dead entries outnumber live ones.
func (t Timer) Cancel() {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.fn == nil {
		return
	}
	l := t.loop
	if l == nil {
		return
	}
	l.mCancelled.Inc()
	l.q.cancel(ev)
}

// Pending reports whether the timer has been scheduled and not yet fired
// or cancelled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.fn != nil
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (before Now) is an error in the model; the event fires immediately
// at the current time instead, preserving clock monotonicity.
func (l *Loop) At(at time.Duration, fn func()) Timer {
	if at < l.now {
		at = l.now
	}
	ev := l.allocEvent(at, fn)
	l.q.push(ev)
	if d := float64(l.q.len()); d > l.mDepthPeak.Max() {
		l.mDepthPeak.Set(d)
	}
	return Timer{loop: l, ev: ev, gen: ev.gen}
}

// AtHead schedules fn at absolute virtual time at, in the head priority
// band: among events sharing the same instant, every head-band event
// fires before every normally scheduled one, regardless of insertion
// order (head-band events order among themselves by insertion, like At).
// The sharded engine uses it for cross-shard deliveries, so whether a
// delivery was flushed into the loop before or during the window that
// contains its timestamp cannot change the execution order.
func (l *Loop) AtHead(at time.Duration, fn func()) Timer {
	if at < l.now {
		at = l.now
	}
	ev := l.allocEvent(at, fn)
	ev.pri = priHead
	l.q.push(ev)
	if d := float64(l.q.len()); d > l.mDepthPeak.Max() {
		l.mDepthPeak.Set(d)
	}
	return Timer{loop: l, ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current virtual time.
func (l *Loop) After(d time.Duration, fn func()) Timer {
	return l.At(l.now+d, fn)
}

// Post schedules fn to run at the current virtual time, after all events
// already scheduled for this instant.
func (l *Loop) Post(fn func()) Timer { return l.At(l.now, fn) }

// OnIdle registers fn to be consulted when the event queue drains during
// Run. This is used by sources that generate work lazily.
func (l *Loop) OnIdle(fn func()) { l.idleFns = append(l.idleFns, fn) }

// Stop makes the currently executing Run/RunUntil return after the current
// event completes.
func (l *Loop) Stop() { l.stopped = true }

// interruptEvery bounds how many events may fire between polls of the
// interrupt hook. The hook may be an arbitrary (cheap, goroutine-safe)
// predicate such as a context check, so it is not consulted per event.
const interruptEvery = 4096

// SetInterrupt installs a cooperative cancellation hook: every Run
// variant polls fn about once per 4096 executed events, and once fn
// returns true the loop latches Interrupted and every subsequent Run
// call returns immediately. The hook must not touch loop state — it is
// a pure external signal (typically a context-cancellation check), so
// installing one cannot perturb an uninterrupted run. A run that was
// interrupted is abandoned mid-simulation: its clock, queue, and
// metrics are partial and its results must be discarded.
func (l *Loop) SetInterrupt(fn func() bool) { l.intr = fn }

// Interrupted reports whether an interrupt hook has fired on this loop.
func (l *Loop) Interrupted() bool { return l.interrupted }

// interruptDue polls the interrupt hook on its sampling grid and
// reports whether the loop should abandon the current run.
func (l *Loop) interruptDue() bool {
	if l.interrupted {
		return true
	}
	if l.intr == nil {
		return false
	}
	l.intrCount++
	if l.intrCount < interruptEvery {
		return false
	}
	l.intrCount = 0
	if l.intr() {
		l.interrupted = true
	}
	return l.interrupted
}

// Run executes events until the queue is empty or Stop is called. It
// returns the virtual time of the last event executed.
func (l *Loop) Run() time.Duration {
	l.stopped = false
	for !l.stopped && !l.interruptDue() {
		if l.q.peek() == nil {
			for _, fn := range l.idleFns {
				fn()
			}
			if l.q.peek() == nil {
				break
			}
		}
		l.step()
	}
	return l.now
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t. Events scheduled for later remain queued.
//
// Like Run, RunUntil consults the OnIdle callbacks whenever no event at
// or before t remains, so lazy sources registered with OnIdle keep
// producing work up to the horizon instead of starving.
func (l *Loop) RunUntil(t time.Duration) {
	l.stopped = false
	for !l.stopped && !l.interruptDue() {
		ev := l.q.peek()
		if ev == nil || ev.at > t {
			for _, fn := range l.idleFns {
				fn()
			}
			ev = l.q.peek()
			if ev == nil || ev.at > t {
				break
			}
			continue
		}
		l.step()
	}
	if l.now < t {
		l.now = t
	}
}

// RunBefore executes events with timestamps strictly before t, then
// advances the clock to exactly t. Events scheduled at or after t remain
// queued.
//
// This is the window primitive of the sharded engine
// (internal/sim/shard): a shard executes [window start, window end) with
// RunBefore(end), leaving events at exactly the barrier time for the
// next window, so a message injected at the barrier with At == end is
// never outrun by local events at the same timestamp.
func (l *Loop) RunBefore(t time.Duration) {
	l.stopped = false
	for !l.stopped && !l.interruptDue() {
		ev := l.q.peek()
		if ev == nil || ev.at >= t {
			for _, fn := range l.idleFns {
				fn()
			}
			ev = l.q.peek()
			if ev == nil || ev.at >= t {
				break
			}
			continue
		}
		l.step()
	}
	if l.now < t {
		l.now = t
	}
}

// RunWhile executes events until cond returns false or the queue drains.
// cond is evaluated before each event.
func (l *Loop) RunWhile(cond func() bool) {
	l.stopped = false
	for !l.stopped && !l.interruptDue() && l.q.peek() != nil && cond() {
		l.step()
	}
}

func (l *Loop) step() {
	ev := l.q.pop()
	if ev == nil {
		return
	}
	l.mFired.Inc()
	if ev.at > l.now {
		l.now = ev.at
	}
	fn := ev.fn
	l.freeEvent(ev)
	fn()
}

// Len returns the number of pending events: queued and neither fired
// nor cancelled. Useful in tests.
func (l *Loop) Len() int { return l.q.len() }

// Ticker invokes a function at a fixed virtual-time period until stopped.
type Ticker struct {
	loop   *Loop
	period time.Duration
	fn     func()
	tickFn func() // t.tick, bound once so rescheduling does not allocate
	timer  Timer
	active bool
}

// NewTicker schedules fn every period, with the first invocation one
// period from now. period must be positive.
func (l *Loop) NewTicker(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	t := &Ticker{loop: l, period: period, fn: fn, active: true}
	t.tickFn = t.tick
	t.timer = l.After(period, t.tickFn)
	return t
}

func (t *Ticker) tick() {
	if !t.active {
		return
	}
	t.fn()
	if t.active {
		t.timer = t.loop.After(t.period, t.tickFn)
	}
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.active = false
	t.timer.Cancel()
}
