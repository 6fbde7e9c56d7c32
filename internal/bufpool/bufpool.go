// Package bufpool provides size-classed byte-buffer free lists for the
// simulation's packet hot path.
//
// Pools are per-loop and therefore need no synchronization: the sim
// kernel is single-threaded, so Get/Put always run on the loop's
// goroutine. Buffers handed out by Get carry whatever bytes the
// previous user left behind — callers that depend on zeroed memory
// (padding, checksum fields) must clear it themselves.
package bufpool

import (
	"math/bits"

	"github.com/onelab/umtslab/internal/metrics"
)

const (
	minShift   = 6  // smallest class: 64 B
	maxShift   = 16 // largest class: 64 KiB
	numClasses = maxShift - minShift + 1
)

// Pool recycles byte slices in power-of-two size classes from 64 B to
// 64 KiB. Requests outside that range fall through to the allocator and
// are never retained.
type Pool struct {
	free [numClasses][][]byte

	gets   *metrics.Counter
	puts   *metrics.Counter
	misses *metrics.Counter
}

// New returns an empty pool whose gets/puts/misses counters live in reg
// under bufpool/*.
func New(reg *metrics.Registry) *Pool {
	return &Pool{
		gets:   reg.Counter("bufpool/gets"),
		puts:   reg.Counter("bufpool/puts"),
		misses: reg.Counter("bufpool/misses"),
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
	p.puts.Inc()
	cls := bits.Len(uint(c)) - 1 - minShift
	p.free[cls] = append(p.free[cls], b[:0])
}

// debugDoublePut enables an O(n) scan on every Put that panics when a
// buffer already sitting in the pool is Put again. Test-only diagnostics.
var debugDoublePut = false

// SetDebugDoublePut toggles the double-Put detector.
func SetDebugDoublePut(on bool) { debugDoublePut = on }

// disabled makes every Get a fresh allocation and every Put a no-op.
// Simulation results must be bit-identical either way (recycling is an
// optimization, never semantics), which makes the switch doubly useful:
// benchmarks use it to measure the allocating baseline, and anyone
// chasing a suspected recycling bug can flip it to rule the pool out.
var disabled = false

// SetDisabled toggles pooling globally. Not safe to flip while loops are
// running on other goroutines; intended for process-wide benchmark or
// debug configuration.
func SetDisabled(on bool) { disabled = on }
