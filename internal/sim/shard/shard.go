// Package shard is a conservative-lookahead parallel discrete-event
// engine: it partitions one scenario into N shards, each owning a
// private sim.Loop (scheduler, RNG streams, buffer pool, metrics
// registry), and advances all shards in bounded virtual-time windows.
//
// Shards interact only through Edges — directed cross-shard channels
// with a declared minimum propagation delay. The smallest edge delay is
// the engine's lookahead: all shards advance in lockstep windows of that
// size and exchange messages at each barrier, where no message sent
// during the window can be due before the next one ends.
//
// Message hand-off is batched and allocation-free on the hot path.
// Send appends to the edge's outbox, owned by the source shard while
// its window runs. When the shard completes a window the coordinator
// moves the outbox into the edge's mailbox (a swap when possible — the
// arenas are reused across barriers). At the next barrier the due
// mailbox messages drain into the destination shard's inbox, are sorted
// once by the (At, edge, seq) key precomputed at Send, and arm one
// pre-bound trigger event per message on the destination loop — no
// per-message closure is ever allocated.
//
// Determinism. A run is bit-identical for a given seed regardless of
// how partitions are mapped onto shards (including all-on-one-shard):
//
//   - Every shard loop is created with the same seed, so a named RNG
//     stream ("link/x", "serial/y", ...) yields the same sequence on
//     whichever loop hosts it. Model code must keep stream names
//     globally unique, which the repository already guarantees.
//   - Partitions placed on the same loop share nothing but the loop
//     itself; interleaved foreign events cannot change a partition's
//     own timestamps or draws.
//   - Released messages are sorted by (At, edge, seq) before being
//     scheduled, where edges are globally numbered in creation order
//     and seq counts messages per edge. Both components are properties
//     of the scenario, not of the placement, so the delivery order —
//     even between messages that collide on the same nanosecond — is
//     identical for every shard count. (This strengthens the obvious
//     (At, source shard, seq) order, which would depend on how sources
//     are grouped into shards.)
//   - Deliveries are armed in the loop's head priority band
//     (sim.Loop.AtHead): at a shared nanosecond a delivery always runs
//     before locally scheduled events, whether the message crossed
//     shards or stayed on one loop. Two same-At messages for one shard
//     always travel in the same flush (a message not yet flushed is due
//     at or beyond the barrier), so the sorted batch fixes their order.
//
// Each shard's registry carries the engine's instruments: counters
// shard/windows, shard/msgs_in, shard/msgs_out, the wall-clock
// shard/stall_wall_ns (time spent waiting for the slowest shard at
// barriers — placement-dependent by nature, so excluded from
// differential comparisons), and the gauge shard/mailbox_backlog
// (messages held in the shard's outgoing mailboxes, with its peak).
package shard

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/sim"
)

// Message is one cross-shard delivery: a payload that becomes visible
// to the destination shard at virtual time At. Edge and Seq identify
// its provenance and fully determine ordering among same-instant
// arrivals — the struct is its own sort key, filled in at Send.
type Message struct {
	At      time.Duration
	Edge    int    // creation index of the carrying Edge
	Seq     uint64 // per-edge send sequence
	Payload any
}

// byKey sorts messages by the delivery-order contract (At, edge, seq).
type byKey []Message

func (b byKey) Len() int      { return len(b) }
func (b byKey) Swap(i, j int) { b[i], b[j] = b[j], b[i] }
func (b byKey) Less(i, j int) bool {
	if b[i].At != b[j].At {
		return b[i].At < b[j].At
	}
	if b[i].Edge != b[j].Edge {
		return b[i].Edge < b[j].Edge
	}
	return b[i].Seq < b[j].Seq
}

// Shard is one partition of the scenario: a private sim.Loop plus the
// engine bookkeeping around it.
type Shard struct {
	id   int
	eng  *Engine
	loop *sim.Loop

	mWindows *metrics.Counter
	mMsgsIn  *metrics.Counter
	mMsgsOut *metrics.Counter
	mStall   *metrics.Counter
	gBacklog *metrics.Gauge

	runCh chan windowReq

	inEdges  []*Edge
	outEdges []*Edge

	// inbox is the sorted arena of released-but-not-yet-executed
	// deliveries. One pre-bound trigger (deliverFn) is armed per entry in
	// the loop's head band; triggers fire in the same order the sorted
	// entries were armed, so deliverNext just pops sequentially.
	inbox     []Message
	inboxHead int
	deliverFn func()
}

// ID returns the shard's index in the engine.
func (s *Shard) ID() int { return s.id }

// Loop returns the shard's private simulation loop. Model components of
// this partition are built on it exactly as on a standalone loop.
func (s *Shard) Loop() *sim.Loop { return s.loop }

// deliverNext executes the next released delivery. It runs on the
// shard's loop, in the head priority band at the message's At; the
// arming order matches the inbox sort order, so sequential pops track
// the firing order exactly.
func (s *Shard) deliverNext() {
	m := s.inbox[s.inboxHead]
	s.inbox[s.inboxHead] = Message{}
	s.inboxHead++
	if s.inboxHead == len(s.inbox) {
		s.inbox = s.inbox[:0]
		s.inboxHead = 0
	}
	s.mMsgsIn.Inc()
	s.eng.edges[m.Edge].deliver(m)
}

// Edge is a directed cross-shard channel with a minimum propagation
// delay. The source shard's model code calls Send during its window;
// the engine releases the accumulated messages at window barriers.
type Edge struct {
	id       int
	src, dst *Shard
	minDelay time.Duration
	deliver  func(Message)
	seq      uint64

	// outbox collects sends during the source shard's window; only the
	// source touches it while the shard runs. When the window completes,
	// the coordinator moves it into mailbox (swapping arenas when it
	// can), which only the coordinator ever touches — so releasing a
	// destination never races with a still-running source.
	outbox  []Message
	mailbox []Message
}

// MinDelay returns the edge's declared minimum propagation delay.
func (ed *Edge) MinDelay() time.Duration { return ed.minDelay }

// Send enqueues payload for delivery at absolute virtual time at. It
// must be called from the source shard (its loop's event context) and
// at must honor the declared lookahead: at >= src.Now() + MinDelay.
func (ed *Edge) Send(at time.Duration, payload any) {
	if now := ed.src.loop.Now(); at < now+ed.minDelay {
		panic(fmt.Sprintf("shard: edge %d lookahead violation: send at %v from now %v with min delay %v",
			ed.id, at, now, ed.minDelay))
	}
	ed.seq++
	ed.outbox = append(ed.outbox, Message{At: at, Edge: ed.id, Seq: ed.seq, Payload: payload})
	ed.src.mMsgsOut.Inc()
}

// Engine coordinates the shards.
type Engine struct {
	seed   int64
	shards []*Shard
	edges  []*Edge
	now    time.Duration

	// inclusiveDone records that the horizon at now was executed
	// inclusively, making a repeated Run(now) a no-op.
	inclusiveDone bool

	doneCh chan windowDone
	walls  []time.Duration
	wg     sync.WaitGroup
}

type windowReq struct {
	target    time.Duration
	inclusive bool
}

type windowDone struct {
	id   int
	wall time.Duration
}

// NewEngine creates n shards whose loops all share the given seed.
func NewEngine(seed int64, n int) *Engine {
	if n < 1 {
		panic(fmt.Sprintf("shard: engine needs at least one shard, got %d", n))
	}
	e := &Engine{seed: seed, walls: make([]time.Duration, n)}
	for i := 0; i < n; i++ {
		loop := sim.NewLoop(seed)
		reg := loop.Metrics()
		s := &Shard{
			id:       i,
			eng:      e,
			loop:     loop,
			mWindows: reg.Counter("shard/windows"),
			mMsgsIn:  reg.Counter("shard/msgs_in"),
			mMsgsOut: reg.Counter("shard/msgs_out"),
			mStall:   reg.Counter("shard/stall_wall_ns"),
			gBacklog: reg.Gauge("shard/mailbox_backlog"),
		}
		s.deliverFn = s.deliverNext
		e.shards = append(e.shards, s)
	}
	return e
}

// Seed returns the seed every shard loop was created with.
func (e *Engine) Seed() int64 { return e.seed }

// N returns the number of shards.
func (e *Engine) N() int { return len(e.shards) }

// Shard returns shard i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// Shards returns all shards in index order.
func (e *Engine) Shards() []*Shard { return e.shards }

// Now returns the engine's virtual time (the horizon of the last Run).
func (e *Engine) Now() time.Duration { return e.now }

// NewEdge declares a directed cross-shard channel. minDelay must be
// positive — it is the time a message spends in flight at minimum, and
// the smallest minDelay over all edges becomes the engine's lookahead.
// deliver runs on the destination shard's loop when a message becomes
// due. Edges must be created before Run; creation order is part of the
// scenario (it breaks same-instant delivery ties), so builders must
// create edges in a placement-independent order.
func (e *Engine) NewEdge(src, dst *Shard, minDelay time.Duration, deliver func(Message)) *Edge {
	if minDelay <= 0 {
		panic(fmt.Sprintf("shard: edge needs a positive min delay (lookahead), got %v", minDelay))
	}
	if src.eng != e || dst.eng != e {
		panic("shard: edge endpoints belong to a different engine")
	}
	ed := &Edge{id: len(e.edges), src: src, dst: dst, minDelay: minDelay, deliver: deliver}
	e.edges = append(e.edges, ed)
	src.outEdges = append(src.outEdges, ed)
	dst.inEdges = append(dst.inEdges, ed)
	return ed
}

// Lookahead returns the global synchronization window: the minimum
// MinDelay over all edges, or 0 if the engine has no edges (shards are
// then fully independent and run the whole span as one window).
func (e *Engine) Lookahead() time.Duration {
	var w time.Duration
	for _, ed := range e.edges {
		if w == 0 || ed.minDelay < w {
			w = ed.minDelay
		}
	}
	return w
}

// Run advances every shard to virtual time until (inclusive, like
// sim.Loop.RunUntil) in lockstep windows of Lookahead, exchanging
// cross-shard messages at each barrier. Calling Run again with the same
// horizon is a no-op; a later horizon resumes from the current one.
//
// When Run returns, every mailbox and outbox is empty of messages with
// At <= until: after the inclusive horizon window the engine keeps
// draining (a delivery at the horizon may itself Send), and only
// messages provably beyond the horizon stay held for the next Run.
func (e *Engine) Run(until time.Duration) {
	if until < e.now || (until == e.now && e.inclusiveDone) {
		return
	}
	e.startWorkers()
	w := e.Lookahead()
	for t := e.now; w > 0 && t+w < until; t += w {
		end := t + w
		e.flushAll(end)
		e.window(end, false)
		e.now = end
	}
	// Final, inclusive window: release messages due at exactly until and
	// execute events at the horizon itself. A delivery at the horizon
	// may Send a message due at the horizon of a later Run but never at
	// this one (At >= until + minDelay), yet a send from an ordinary
	// last-window event CAN land exactly at until — hence the drain
	// loop, which repeats the flush-and-run step until no mailbox holds
	// a due message. Each pass only executes at time until, so every
	// send it provokes lands strictly later and the loop terminates.
	for {
		e.flushAll(until + 1)
		e.window(until, true)
		if !e.anyDue(until) {
			break
		}
	}
	e.stopWorkers()
	e.now = until
	e.inclusiveDone = true
}

// complete retires s's finished window: outboxes hand off to the
// coordinator-owned mailboxes and the backlog gauge is refreshed (safe —
// the worker is idle again, and the doneCh receive ordered its writes
// before ours).
func (s *Shard) complete() {
	s.mWindows.Inc()
	for _, ed := range s.outEdges {
		ed.handoff()
	}
	s.updateBacklog()
}

// anyDue reports whether any mailbox holds a message due at or before
// until.
func (e *Engine) anyDue(until time.Duration) bool {
	for _, ed := range e.edges {
		for _, m := range ed.mailbox {
			if m.At <= until {
				return true
			}
		}
	}
	return false
}

// handoff moves the edge's outbox into its coordinator-owned mailbox.
// The common case (empty mailbox) is a pure arena swap.
func (ed *Edge) handoff() {
	if len(ed.outbox) == 0 {
		return
	}
	if len(ed.mailbox) == 0 {
		ed.mailbox, ed.outbox = ed.outbox, ed.mailbox[:0]
		return
	}
	ed.mailbox = append(ed.mailbox, ed.outbox...)
	for i := range ed.outbox {
		ed.outbox[i] = Message{}
	}
	ed.outbox = ed.outbox[:0]
}

// flush drains every mailbox into shard s of messages due before
// horizon, sorts s's inbox by (At, edge, seq), and arms one head-band
// trigger per message on s's loop. Messages due later (sent near the
// end of a window across a long edge) stay in the mailbox for a later
// barrier. Must be called while s is idle with its inbox fully
// consumed.
func (s *Shard) flush(horizon time.Duration) {
	for _, ed := range s.inEdges {
		kept := ed.mailbox[:0]
		for _, m := range ed.mailbox {
			if m.At < horizon {
				s.inbox = append(s.inbox, m)
			} else {
				kept = append(kept, m)
			}
		}
		tail := ed.mailbox[len(kept):]
		for i := range tail {
			tail[i] = Message{}
		}
		ed.mailbox = kept
	}
	if len(s.inbox) == 0 {
		return
	}
	sort.Sort(byKey(s.inbox))
	for _, m := range s.inbox {
		s.loop.AtHead(m.At, s.deliverFn)
	}
}

// updateBacklog refreshes s's mailbox-backlog gauge. It runs only
// while s is idle: its registry belongs to the worker while a window
// runs.
func (s *Shard) updateBacklog() {
	n := 0
	for _, ed := range s.outEdges {
		n += len(ed.mailbox)
	}
	s.gBacklog.Set(float64(n))
}

// runWindow executes one window on the shard's loop (on the worker
// goroutine, or inline for single-shard engines).
func (s *Shard) runWindow(req windowReq) {
	if req.inclusive {
		s.loop.RunUntil(req.target)
	} else {
		s.loop.RunBefore(req.target)
	}
}

// startWorkers launches one persistent goroutine per shard (none for a
// single shard — that case runs inline, keeping the 1-shard baseline
// free of synchronization overhead).
func (e *Engine) startWorkers() {
	if len(e.shards) == 1 {
		return
	}
	e.doneCh = make(chan windowDone)
	for _, s := range e.shards {
		s.runCh = make(chan windowReq)
		e.wg.Add(1)
		go func(s *Shard) {
			defer e.wg.Done()
			for req := range s.runCh {
				t0 := time.Now()
				s.runWindow(req)
				e.doneCh <- windowDone{s.id, time.Since(t0)}
			}
		}(s)
	}
}

func (e *Engine) stopWorkers() {
	if len(e.shards) == 1 {
		return
	}
	for _, s := range e.shards {
		close(s.runCh)
		s.runCh = nil
	}
	e.wg.Wait()
	e.doneCh = nil
}

// flushAll releases due messages into every shard: all shards are
// idle at a barrier, so every mailbox may drain at once.
func (e *Engine) flushAll(horizon time.Duration) {
	for _, s := range e.shards {
		s.flush(horizon)
	}
	for _, s := range e.shards {
		s.updateBacklog()
	}
}

// window executes one window on every shard and waits for all of them
// (the barrier). The channel handshake also publishes each worker's
// writes (outbox appends, loop state) to the coordinator and the
// coordinator's flush writes back to the workers.
func (e *Engine) window(target time.Duration, inclusive bool) {
	req := windowReq{target: target, inclusive: inclusive}
	if e.doneCh == nil {
		s := e.shards[0]
		s.runWindow(req)
		s.complete()
		return
	}
	for _, s := range e.shards {
		s.runCh <- req
	}
	var maxWall time.Duration
	for range e.shards {
		d := <-e.doneCh
		e.walls[d.id] = d.wall
		if d.wall > maxWall {
			maxWall = d.wall
		}
	}
	for _, s := range e.shards {
		s.complete()
		s.mStall.Add(int64(maxWall - e.walls[s.id]))
	}
}
