package sim

import (
	"math/bits"
	"time"
)

// event is a queue entry. seq breaks ties between events scheduled for
// the same instant, guaranteeing FIFO order and determinism.
//
// Events live in the loop's slab (eventSlab) and are recycled through
// its freelist; gen is bumped on every free so stale Timer handles can
// detect reuse. The queue refers to events by slab id, not by pointer:
// fn is the only Go pointer an event holds.
type event struct {
	at   time.Duration
	seq  uint64
	fn   func() // nil once fired, freed or cancelled
	gen  uint32
	id   int32 // this entry's slab id; fixed when the slot is created
	next int32 // freelist link while free
	pri  int8  // priority band at the same instant: priHead before priNormal
}

// Event slab geometry. Ids are 1-based (0 means "no event") and encode
// their position: id-1 = chunk<<slabChunkShift | offset. Chunk 0 holds
// slabFirstChunk entries and each later chunk doubles up to
// slabMaxChunk, so a short run touches a few KB while a long one pays
// one allocation per 512 concurrently pending events.
const (
	slabFirstChunk = 64
	slabChunkShift = 9
	slabMaxChunk   = 1 << slabChunkShift
)

// eventSlab owns every event of one loop. A chunk never moves once
// allocated, so *event pointers handed out by at — held by Timer
// handles — stay valid for the loop's lifetime; the queue's own links
// are int32 ids, whose stores pay no GC write barrier.
type eventSlab struct {
	chunks [][]event
	used   int   // slots handed out from the newest chunk
	free   int32 // freelist head id; 0 = empty
}

// at returns the event with the given (non-zero) id.
func (s *eventSlab) at(id int32) *event {
	i := id - 1
	return &s.chunks[i>>slabChunkShift][i&(slabMaxChunk-1)]
}

// alloc takes an entry off the freelist, or a fresh slot from the
// newest chunk, growing the slab by one chunk when it is exhausted.
func (s *eventSlab) alloc() *event {
	if id := s.free; id != 0 {
		ev := s.at(id)
		s.free = ev.next
		ev.next = 0
		return ev
	}
	n := len(s.chunks)
	if n == 0 || s.used == len(s.chunks[n-1]) {
		size := slabFirstChunk
		if n > 0 {
			size = min(2*len(s.chunks[n-1]), slabMaxChunk)
		}
		s.chunks = append(s.chunks, make([]event, size))
		s.used = 0
		n++
	}
	ev := &s.chunks[n-1][s.used]
	ev.id = int32((n-1)<<slabChunkShift|s.used) + 1
	s.used++
	return ev
}

// release pushes ev onto the freelist.
func (s *eventSlab) release(ev *event) {
	ev.next = s.free
	s.free = ev.id
}

// Priority bands. Within one instant, head-band events (Loop.AtHead)
// fire before every normal-band event no matter which was inserted
// first; within a band, insertion order (seq) still breaks ties. The
// sharded engine schedules cross-shard deliveries in the head band so
// the delivery-vs-local interleaving at a shared nanosecond does not
// depend on when the coordinator flushed.
const (
	priHead   int8 = -1
	priNormal int8 = 0
)

// eventQueue is the event-queue contract. pop and peek return the next
// live event in (at, pri, seq) order; implementations discard (and
// free) cancelled entries internally, so callers never see dead
// events. keyHeap is the only production implementation; the seam lets
// the differential tests substitute an independent reference queue.
type eventQueue interface {
	push(ev *event)
	// pop removes and returns the next live event, or nil when empty.
	pop() *event
	// peek returns the next live event without removing it, or nil.
	peek() *event
	// cancel kills a live queued event. The entry may stay queued,
	// dead, until it reaches the head or the queue compacts.
	cancel(ev *event)
	// len reports queued live events.
	len() int
}

// compactMinLen is the queue size below which compaction is not worth
// the rebuild; small queues self-clean as dead entries reach the head.
const compactMinLen = 64

// heapKey is one keyHeap entry: the event's sort key stored inline, so
// sifting compares and moves plain integers and never dereferences the
// event. at is the event time, never negative because At clamps to Now.
// ord packs the priority band above the sequence number,
// (pri-priHead)<<63 | seq, so (at, ord) orders exactly like
// (at, pri, seq).
type heapKey struct {
	at  uint64
	ord uint64
	id  int32
}

// before reports whether a orders before b, as 1 or 0: the borrow out
// of the 128-bit subtraction (a.at, a.ord) - (b.at, b.ord). A pop
// picks between two children by adding it to an index rather than
// branching on a comparison the branch predictor cannot learn; on
// BenchmarkPending400 that cuts a schedule-and-fire from about 105 to
// 71 ns (2-vCPU VM, go1.24).
func (a heapKey) before(b heapKey) uint64 {
	_, borrow := bits.Sub64(a.ord, b.ord, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return borrow
}

// keyHeap is the loop's event queue: a binary min-heap of heapKeys.
// The slice holds no pointers, so the GC neither scans it nor charges a
// write barrier for its stores.
//
// Cancellation is lazy. Cancel clears the event's fn and counts the
// dead entry, which stays in the heap until it surfaces at the head
// (peek and pop free it there) or the heap compacts. Compaction — one
// rebuild — runs once dead entries exceed half the heap, so it costs a
// cancel no more than a push, amortized, and the heap stays within 2x
// the live events.
// Cancels are rare on the packet paths (a few hundred per million
// events), so the heap does not pay to track each entry's position for
// an eager removal.
type keyHeap struct {
	loop *Loop
	h    []heapKey
	dead int // cancelled entries still in h
}

func (q *keyHeap) push(ev *event) {
	k := heapKey{at: uint64(ev.at), ord: uint64(ev.pri-priHead)<<63 | ev.seq, id: ev.id}
	q.h = append(q.h, k)
	q.up(len(q.h)-1, k)
}

func (q *keyHeap) peek() *event {
	for len(q.h) > 0 {
		ev := q.loop.slab.at(q.h[0].id)
		if ev.fn != nil {
			return ev
		}
		q.removeHead()
		q.dead--
		q.loop.freeEvent(ev)
	}
	return nil
}

func (q *keyHeap) pop() *event {
	ev := q.peek()
	if ev != nil {
		q.removeHead()
	}
	return ev
}

func (q *keyHeap) cancel(ev *event) {
	ev.fn = nil
	q.dead++
	if q.dead > len(q.h)/2 && len(q.h) >= compactMinLen {
		q.compact()
	}
}

func (q *keyHeap) len() int { return len(q.h) - q.dead }

// compact drops every dead entry, frees its event, and rebuilds the
// heap from the survivors.
func (q *keyHeap) compact() {
	live := q.h[:0]
	for _, k := range q.h {
		if ev := q.loop.slab.at(k.id); ev.fn != nil {
			live = append(live, k)
		} else {
			q.loop.freeEvent(ev)
		}
	}
	q.h = live
	for i := 1; i < len(live); i++ {
		q.up(i, live[i])
	}
	q.dead = 0
	q.loop.mCompactions.Inc()
}

// removeHead deletes the minimum entry. The heap must be non-empty. The
// hole at the root walks down to a leaf along the earlier child, and
// the last entry refills it from there.
func (q *keyHeap) removeHead() {
	h := q.h
	n := len(h) - 1
	last := h[n]
	q.h = h[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += int(h[c+1].before(h[c]))
		}
		h[i] = h[c]
		i = c
	}
	q.up(i, last)
}

// up sifts k, destined for position j, toward the root.
func (q *keyHeap) up(j int, k heapKey) {
	h := q.h
	for j > 0 {
		p := (j - 1) / 2
		pk := h[p]
		if k.before(pk) == 0 {
			break
		}
		h[j] = pk
		j = p
	}
	h[j] = k
}
