package sim

import "container/heap"

// newOracleLoop returns a Loop whose event queue is the reference
// heapQueue instead of the production keyHeap. The differential tests
// drive it in lockstep with a NewLoop twin.
func newOracleLoop(seed int64) *Loop {
	l := NewLoop(seed)
	l.q = &heapQueue{loop: l}
	return l
}

// eventHeap is the reference queue's binary min-heap over
// (at, pri, seq), driven by container/heap. It is deliberately a
// separate implementation from the production keyHeap, so the
// differential tests compare two independent orderings.
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
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// heapQueue is the reference event queue the production keyHeap is
// differentially tested against.
//
// Cancellation is lazy: the entry stays in the heap, but the queue
// tracks how many dead entries it holds and rebuilds the heap once they
// outnumber the live ones.
type heapQueue struct {
	loop      *Loop
	h         eventHeap
	cancelled int // cancelled events still sitting in h
}

func (q *heapQueue) push(ev *event) {
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

// compact rebuilds the event heap keeping only live events.
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
	heap.Init(&q.h)
	q.cancelled = 0
	q.loop.mCompactions.Inc()
}
