package shard

import "time"

// This file is the PolicyDynamic coordinator: per-shard horizons, each
// the later of two sound bounds.
//
//   - The distance bound (computeDist, horizonFor): h(i) = min over live
//     shards j of (barrier(j) + dist(j, i)), where dist is the all-pairs
//     shortest path over edge min-delays. A shard with long or no
//     incoming paths runs far ahead; a short edge throttles only its
//     own destination. It assumes every predecessor is about to emit.
//   - Demand-driven earliest-output-time (EOT) promises (computeEOT,
//     promiseFor), in the tradition of Chandy–Misra–Bryant null
//     messages, computed centrally by the coordinator instead of
//     flooding per-edge null traffic. On idle-heavy scenarios the
//     distance bound is wildly pessimistic: a cell shard whose next
//     local event is a population tick 100 ms out provably cannot hand
//     the core shard anything earlier than tick + uplink delay.
//     computeEOT turns that observation into a sound per-edge promise.
//
// runPerShard takes max(distance bound, promise), so a wrong intuition
// in the promises could only ever be caught (and is, by the byte-
// identity differential tests against PolicyGlobal), never masked by
// the distance bound.

// runPerShard is the dynamic coordinator loop. Each pass first drains
// every outstanding window, then computes the EOT fixpoint and releases
// every shard whose horizon moved past its barrier; all released shards
// run concurrently. A completed (inclusive) shard is reopened when a
// later handoff parks a due message in one of its mailboxes — that
// replaces the global drain loop.
//
// Draining to quiescence before each pass makes every promise anchor a
// pure function of simulation state (queue heads and mailboxes) rather
// than of which workers happened to have finished — so the window
// schedule, and with it the windows/windows_released counters and the
// stride histogram, is deterministic and CPU-count-independent (the
// property the bench artifact gates lean on).
//
// Promises only ever extend horizons — the horizon is max(distance
// bound, promise) — so stall freedom follows from the distance bound
// alone: among live shards, the one with the minimum barrier b has
// horizon >= b + (smallest positive distance) > b, so at least one
// shard is always releasable until all are done.
func (e *Engine) runPerShard(until time.Duration) {
	e.computeDist()
	for {
		for e.anyRunning() {
			e.awaitOne()
		}
		e.computeEOT()
		progressed := false
		for _, s := range e.shards {
			if s.done {
				if !e.dueInbound(s, until) {
					continue
				}
				s.done = false
			}
			h := e.horizonFor(s)
			if p := e.promiseFor(s); p > h {
				h = p
			}
			switch {
			case h > until:
				e.release(s, until+1, until, true)
			case h > s.barrier:
				e.release(s, h, h, false)
			default:
				continue // a predecessor must advance first
			}
			progressed = true
		}
		if !progressed {
			break
		}
	}
	for _, s := range e.shards {
		if !s.done || e.dueInbound(s, until) {
			panic("shard: per-shard coordinator stalled with undelivered messages")
		}
	}
}

// computeDist fills e.dist with all-pairs shortest path delays over the
// edge graph (Floyd–Warshall; n is small — one entry per shard). The
// diagonal is NOT seeded with zero: dist[i][i] ends up as the shortest
// cycle through i, which is exactly the bound a self-edge or loop puts
// on how far i may run ahead of its own unflushed output.
func (e *Engine) computeDist() {
	n := len(e.shards)
	if e.dist == nil {
		e.dist = make([][]time.Duration, n)
		for i := range e.dist {
			e.dist[i] = make([]time.Duration, n)
		}
	}
	for i := range e.dist {
		for j := range e.dist[i] {
			e.dist[i][j] = noPath
		}
	}
	for _, ed := range e.edges {
		if ed.minDelay < e.dist[ed.src.id][ed.dst.id] {
			e.dist[ed.src.id][ed.dst.id] = ed.minDelay
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := e.dist[i][k]
			if dik == noPath {
				continue
			}
			for j := 0; j < n; j++ {
				if dkj := e.dist[k][j]; dkj != noPath && dik+dkj < e.dist[i][j] {
					e.dist[i][j] = dik + dkj
				}
			}
		}
	}
}

// horizonFor returns how far shard s may safely advance: the earliest
// time a message from any still-live shard could reach it. Live shard j
// executing its window from barrier b can only emit messages with
// At >= b + direct edge delay >= b + dist(j, s), so everything before
// the returned horizon is already in a mailbox (or will never exist).
// Shards that are done contribute nothing; noPath means unconstrained.
func (e *Engine) horizonFor(s *Shard) time.Duration {
	h := noPath
	for j, src := range e.shards {
		if src.done {
			continue
		}
		d := e.dist[j][s.id]
		if d == noPath {
			continue
		}
		if b := src.barrier + d; b < h {
			h = b
		}
	}
	return h
}

// computeEOT refreshes e.eot and e.nextT from the current simulation
// state.
//
// Soundness. Define eot(e) as a lower bound on the At of any message
// that can still be appended to or remain in e's mailbox during this
// Run. Every future emission traces back, through a chain of positive-
// delay edges, to an anchor that the coordinator can see right now:
//
//   - a real event queued on a shard's loop (PeekNext), or the shard's
//     barrier when the loop owns OnIdle lazy sources that could
//     synthesize earlier work;
//   - a message already parked in some mailbox, which on delivery may
//     cascade further sends (each at least one edge delay later).
//
// Done shards contribute no anchor of their own — their queue holds
// only events beyond until, which cannot fire this Run — but they are
// NOT inert: a message due <= until reopens a done shard, and the
// reopened window's cascade sends can land back inside the Run span.
// The relaxation therefore still folds inbound eots into a done
// shard's nextT, so promises propagate THROUGH it; only its queued
// events are excluded. The fixpoint below starts every value at +inf
// (noPath) and only lowers it toward the anchors, so on convergence
// each eot(e) is the minimum over all anchor-rooted causal chains
// reaching e — i.e. exactly the promise we may rely on.
//
// Termination. A relaxation only ever lowers a value, and every
// lowered value is of the form anchor + (sum of edge delays along a
// path). Delays are strictly positive, so a value propagated around a
// cycle comes back strictly larger and never relaxes its own source:
// only simple paths matter, the candidate set is finite, and the sweep
// count is bounded by the propagation diameter of the edge graph.
//
// Determinism. runPerShard drains every outstanding window before
// calling computeEOT, so no shard is running here and each anchor is a
// pure function of simulation state — queue heads and mailbox contents
// — never of worker completion timing.
//
// Snapshot validity. The promises are computed once per coordinator
// pass and consumed while releases mutate the very state they were
// derived from. A release moves mailbox messages into the shard and
// starts its window, but the window's earliest action — first queued
// event or first flushed delivery — is still >= nextT(s) from the
// snapshot, because the fixpoint folded the inbound-edge eots (which
// bound every flushable message) into nextT alongside PeekNext. Every
// send the window makes is at least one edge delay later than the
// action that caused it, so promises granted from the snapshot stay
// sound for the rest of the pass.
func (e *Engine) computeEOT() {
	if len(e.eot) != len(e.edges) {
		e.eot = make([]time.Duration, len(e.edges))
	}
	if len(e.nextT) != len(e.shards) {
		e.nextT = make([]time.Duration, len(e.shards))
	}
	for i, s := range e.shards {
		switch {
		case s.done:
			// No own anchor (remaining queued events are beyond until and
			// cannot fire this Run), but the relaxation below still routes
			// inbound promises through, covering reopened-window cascades.
			e.nextT[i] = noPath
		case s.loop.HasIdleSources():
			// Lazy sources may synthesize events at any time >= now, so
			// the queue head is not a promise about the future.
			e.nextT[i] = s.barrier
		default:
			if t, ok := s.loop.PeekNext(); ok {
				e.nextT[i] = t
			} else {
				e.nextT[i] = noPath
			}
		}
	}
	// Seed each edge with its pending-mailbox minimum: a parked message
	// is itself a future arrival, and its delivery may cascade sends —
	// which the relaxation below covers by feeding eot back into nextT.
	// Outboxes are empty here: every window completion hands them off.
	for i, ed := range e.edges {
		e.eot[i] = noPath
		for _, m := range ed.mailbox {
			if m.At < e.eot[i] {
				e.eot[i] = m.At
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i, ed := range e.edges {
			if t := e.nextT[ed.src.id]; t != noPath {
				if v := t + ed.minDelay; v < e.eot[i] {
					e.eot[i] = v
					changed = true
				}
			}
		}
		for i, s := range e.shards {
			for _, ed := range s.inEdges {
				if v := e.eot[ed.id]; v < e.nextT[i] {
					e.nextT[i] = v
					changed = true
				}
			}
		}
	}
}

// promiseFor returns the EOT-promise horizon for shard s: the earliest
// time any inbound edge can still produce an arrival (noPath when none
// can — the idle-shard fast-forward case, which runPerShard turns into
// a single inclusive window to the Run horizon).
func (e *Engine) promiseFor(s *Shard) time.Duration {
	h := noPath
	for _, ed := range s.inEdges {
		if v := e.eot[ed.id]; v < h {
			h = v
		}
	}
	return h
}
