package sim

import (
	"container/heap"
	"time"
)

// event is a queue entry. seq breaks ties between events scheduled for
// the same instant, guaranteeing FIFO order and determinism regardless
// of which scheduler backs the loop.
//
// Events live in the loop's slab (eventSlab) and are recycled through
// its freelist; gen is bumped on every free so stale Timer handles can
// detect reuse. Links between events are slab ids, not pointers: fn is
// the only Go pointer an event holds.
type event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	tick uint64 // wheel tick (at >> tickShift); valid while on a wheel level
	gen  uint32
	// index is the position within a heap-ordered container.
	index int32
	id    int32 // this entry's slab id; fixed when the slot is created
	prev  int32 // slot-list links (slab ids, 0 = none) while on a wheel level
	next  int32 // slot-list link, or freelist link while free
	pri   int8  // priority band at the same instant: priHead before priNormal
	// where records which container currently holds the event: a wheel
	// level (0..numLevels-1) or one of the ev* sentinels below.
	where int8
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
// handles — stay valid for the loop's lifetime; the queue's own links are int32 ids, whose stores pay no GC
// write barrier.
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
	ev.prev = 0
	ev.next = s.free
	s.free = ev.id
}

const (
	evReady    int8 = -1 // wheelQueue's due heap
	evOverflow int8 = -2 // wheelQueue's far-future heap
	evHeap     int8 = -3 // heapQueue's binary heap
	evFree     int8 = -4 // on the loop freelist
)

// Priority bands. Within one instant, head-band events (Loop.AtHead)
// fire before every normal-band event no matter which was inserted
// first; within a band, insertion order (seq) still breaks ties. The
// sharded engine schedules cross-shard deliveries in the head band so
// the delivery-vs-local interleaving at a shared nanosecond does not
// depend on when the coordinator flushed — a prerequisite for window
// policies with different flush points to stay byte-identical.
const (
	priHead   int8 = -1
	priNormal int8 = 0
)

// eventQueue is the scheduler backend contract. pop and peek return the
// next live event in (at, pri, seq) order; implementations discard (and
// free) cancelled entries internally, so callers never see dead events.
type eventQueue interface {
	push(ev *event)
	// pop removes and returns the next live event, or nil when empty.
	pop() *event
	// peek returns the next live event without removing it, or nil.
	peek() *event
	// cancel removes ev from the queue. The heap backend does this
	// lazily (the entry stays until popped or compacted); the wheel
	// unlinks and frees immediately.
	cancel(ev *event)
	// len reports queued entries. For the heap backend this includes
	// entries cancelled but not yet compacted away.
	len() int
}

// eventHeap is the reference scheduler's binary min-heap over
// (at, pri, seq), driven by container/heap. It is deliberately a
// separate implementation from the wheel's keyHeap, so the differential
// tests compare two independent orderings.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].pri != h[j].pri {
		return h[i].pri < h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = int32(len(*h))
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// heapQueue is the original binary-heap scheduler, kept as the
// reference implementation the timer wheel is differentially tested
// against (SchedulerHeap selects it).
//
// Cancellation is lazy: the entry stays in the heap (removing from the
// middle is O(log n) per removal and most timers never get cancelled),
// but the queue tracks how many dead entries it holds and rebuilds the
// heap once they outnumber the live ones — so workloads that cancel
// timers en masse (TCP RTOs, LCP keepalives) cannot grow the heap
// without bound.
type heapQueue struct {
	loop      *Loop
	h         eventHeap
	cancelled int // cancelled events still sitting in h
}

// compactMinLen is the heap size below which compaction is not worth
// the rebuild; small heaps self-clean as events pop.
const compactMinLen = 64

func (q *heapQueue) push(ev *event) {
	ev.where = evHeap
	heap.Push(&q.h, ev)
}

func (q *heapQueue) pop() *event {
	for q.h.Len() > 0 {
		ev := heap.Pop(&q.h).(*event)
		if ev.fn == nil { // cancelled
			if q.cancelled > 0 {
				q.cancelled--
			}
			q.loop.freeEvent(ev)
			continue
		}
		return ev
	}
	return nil
}

func (q *heapQueue) peek() *event {
	for q.h.Len() > 0 {
		ev := q.h[0]
		if ev.fn == nil { // cancelled; discard so peek sees a live head
			heap.Pop(&q.h)
			if q.cancelled > 0 {
				q.cancelled--
			}
			q.loop.freeEvent(ev)
			continue
		}
		return ev
	}
	return nil
}

func (q *heapQueue) cancel(ev *event) {
	ev.fn = nil
	q.cancelled++
	if q.cancelled > q.h.Len()/2 && q.h.Len() >= compactMinLen {
		q.compact()
	}
}

func (q *heapQueue) len() int { return q.h.Len() }

// compact rebuilds the event heap keeping only live events. O(n), run
// only when cancelled entries exceed half the queue, so the amortized
// cost per cancellation is O(1) and heap length stays within 2x the
// live event count.
func (q *heapQueue) compact() {
	live := q.h[:0]
	for _, ev := range q.h {
		if ev.fn != nil {
			live = append(live, ev)
		} else {
			q.loop.freeEvent(ev)
		}
	}
	// Zero the tail so dropped events are collectable.
	for i := len(live); i < len(q.h); i++ {
		q.h[i] = nil
	}
	q.h = live
	for i, ev := range q.h {
		ev.index = int32(i)
	}
	heap.Init(&q.h)
	q.cancelled = 0
	q.loop.mCompactions.Inc()
}
