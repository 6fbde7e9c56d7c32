// Package bufpool provides size-classed byte-buffer free lists, plus one
// object free list, for the simulation's packet hot path.
//
// Pools are per-loop and therefore need no synchronization: the sim
// kernel is single-threaded, so Get/Put always run on the loop's
// goroutine. Buffers handed out by Get carry whatever bytes the
// previous user left behind — callers that depend on zeroed memory
// (padding, checksum fields) must clear it themselves. The same holds
// for objects from GetObj.
package bufpool

import (
	"fmt"
	"math/bits"

	"github.com/onelab/umtslab/internal/metrics"
)

const (
	minShift   = 6  // smallest class: 64 B
	maxShift   = 16 // largest class: 64 KiB
	numClasses = maxShift - minShift + 1
)

// MaxIdle caps every free list a Pool keeps: each byte class and the
// object list. A Put onto a full list leaves the item to the garbage
// collector. The cap matters where items migrate between loops: a
// packet and its payload that cross shards by pointer are freed into
// the destination loop's pool, so a loop that only receives one-way
// traffic would otherwise keep every buffer its peers ever sent.
const MaxIdle = 1024

// Pool recycles byte slices in power-of-two size classes from 64 B to
// 64 KiB, and objects of one type (GetObj). Byte requests outside that
// range fall through to the allocator and are never retained.
type Pool struct {
	free [numClasses][][]byte
	objs any // *objects[T] of the pool's one object type; see GetObj

	gets   *metrics.Counter
	puts   *metrics.Counter
	misses *metrics.Counter

	objGets   *metrics.Counter
	objMisses *metrics.Counter
}

// New returns an empty pool whose gets/puts/misses counters live in reg
// under bufpool/*, and whose object list counts into
// bufpool/object_{gets,misses}.
func New(reg *metrics.Registry) *Pool {
	return &Pool{
		gets:      reg.Counter("bufpool/gets"),
		puts:      reg.Counter("bufpool/puts"),
		misses:    reg.Counter("bufpool/misses"),
		objGets:   reg.Counter("bufpool/object_gets"),
		objMisses: reg.Counter("bufpool/object_misses"),
	}
}

// classFor returns the class index whose capacity (64<<c) fits n, or -1
// when n is too large to pool.
func classFor(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	if n > 1<<maxShift {
		return -1
	}
	return bits.Len(uint(n-1)) - minShift
}

// Get returns a slice of length n. Its contents are unspecified.
func (p *Pool) Get(n int) []byte {
	p.gets.Inc()
	if disabled {
		p.misses.Inc()
		return make([]byte, n)
	}
	c := classFor(n)
	if c < 0 {
		p.misses.Inc()
		return make([]byte, n)
	}
	if s := p.free[c]; len(s) > 0 {
		b := s[len(s)-1]
		s[len(s)-1] = nil
		p.free[c] = s[:len(s)-1]
		return b[:n]
	}
	p.misses.Inc()
	return make([]byte, n, 1<<(minShift+uint(c)))
}

// Put returns b to its size class for reuse. Only buffers whose
// capacity is exactly a pool class (i.e., ones that came from Get) are
// kept; anything else is left to the garbage collector, so it is always
// safe to Put a buffer of unknown origin. Put(nil) is a no-op. The
// caller must not touch b after Put.
func (p *Pool) Put(b []byte) {
	if b == nil || disabled {
		return
	}
	if debugDoublePut {
		for cls := range p.free {
			for _, f := range p.free[cls] {
				if cap(f) > 0 && cap(b) > 0 && &f[:1][0] == &b[:1][0] {
					panic("bufpool: double Put")
				}
			}
		}
	}
	c := cap(b)
	if c < 1<<minShift || c > 1<<maxShift || c&(c-1) != 0 {
		return
	}
	cls := bits.Len(uint(c)) - 1 - minShift
	if len(p.free[cls]) >= MaxIdle {
		return
	}
	p.puts.Inc()
	p.free[cls] = append(p.free[cls], b[:0])
}

// objects is the free list behind GetObj and PutObj.
type objects[T any] struct{ free []*T }

// list returns p's object list for T, creating it on first use. A pool
// carries one object type; asking for a second one is a programming
// error.
func list[T any](p *Pool) *objects[T] {
	if l, ok := p.objs.(*objects[T]); ok {
		return l
	}
	if p.objs != nil {
		panic(fmt.Sprintf("bufpool: pool recycles %T, not %T", p.objs, (*objects[T])(nil)))
	}
	l := &objects[T]{}
	p.objs = l
	return l
}

// GetObj returns a *T from p's object list, or a new zero one when the
// list is empty or pooling is disabled. A recycled object holds whatever
// its last user left in it: the caller must reset every field.
func GetObj[T any](p *Pool) *T {
	p.objGets.Inc()
	if !disabled {
		l := list[T](p)
		if n := len(l.free); n > 0 {
			x := l.free[n-1]
			l.free[n-1] = nil
			l.free = l.free[:n-1]
			return x
		}
	}
	p.objMisses.Inc()
	return new(T)
}

// PutObj returns x to p's object list, which keeps at most MaxIdle
// objects. The caller must not touch x afterwards. PutObj(p, nil) is a
// no-op.
func PutObj[T any](p *Pool, x *T) {
	if x == nil || disabled {
		return
	}
	l := list[T](p)
	if debugDoublePut {
		for _, f := range l.free {
			if f == x {
				panic("bufpool: double PutObj")
			}
		}
	}
	if len(l.free) < MaxIdle {
		l.free = append(l.free, x)
	}
}

// debugDoublePut enables an O(n) scan on every Put and PutObj that
// panics when an item already sitting in the pool is put again.
// Test-only diagnostics.
var debugDoublePut = false

// SetDebugDoublePut toggles the double-Put detector.
func SetDebugDoublePut(on bool) { debugDoublePut = on }

// disabled makes every Get and GetObj a fresh allocation and every Put
// and PutObj a no-op.
// Simulation results must be bit-identical either way (recycling is an
// optimization, never semantics), which makes the switch doubly useful:
// benchmarks use it to measure the allocating baseline, and anyone
// chasing a suspected recycling bug can flip it to rule the pool out.
var disabled = false

// SetDisabled toggles pooling globally. Not safe to flip while loops are
// running on other goroutines; intended for process-wide benchmark or
// debug configuration.
func SetDisabled(on bool) { disabled = on }
