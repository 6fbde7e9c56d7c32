package sim

// FIFO is a growable ring-buffer queue, the companion of the
// bound-callback pattern: a component that schedules one stored func()
// per item (instead of a per-item closure) parks the items here, and
// since the loop fires its events in scheduling order whenever their
// delays are monotone, each firing pops exactly the item it was
// scheduled for.
//
// The ring reuses its slots in steady state: capacity only grows when
// every slot is occupied, so it stays within twice the peak occupancy
// however long the run (a slice re-sliced from the front and rewound
// only when drained would instead keep a slot for every item of a run
// that never drains). The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest item
	n    int
}

// fifoMinCap is the capacity of a FIFO's first ring.
const fifoMinCap = 8

// Len returns the number of queued items.
func (f *FIFO[T]) Len() int { return f.n }

// Cap returns the ring's capacity.
func (f *FIFO[T]) Cap() int { return len(f.buf) }

// Push appends v at the tail.
func (f *FIFO[T]) Push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// Pop removes and returns the oldest item. The queue must not be
// empty. The vacated slot is zeroed so it pins nothing for the GC.
func (f *FIFO[T]) Pop() T {
	if f.n == 0 {
		panic("sim: Pop on empty FIFO")
	}
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

func (f *FIFO[T]) grow() {
	c := 2 * len(f.buf)
	if c == 0 {
		c = fifoMinCap
	}
	buf := make([]T, c)
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}
