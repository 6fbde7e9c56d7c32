package bufpool

import (
	"testing"

	"github.com/onelab/umtslab/internal/metrics"
)

func TestClassSizing(t *testing.T) {
	p := New(metrics.NewRegistry())
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1500, 4096, 65536} {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) len = %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 || c < 64 || c < n {
			t.Fatalf("Get(%d) cap = %d, want pool class >= n", n, c)
		}
		p.Put(b)
	}
	// Oversized requests fall through and are not retained.
	big := p.Get(1 << 20)
	if len(big) != 1<<20 {
		t.Fatalf("oversized Get len = %d", len(big))
	}
	p.Put(big)
}

func TestReuse(t *testing.T) {
	reg := metrics.NewRegistry()
	p := New(reg)
	a := p.Get(1500)
	a[0] = 0xab
	p.Put(a)
	b := p.Get(2000) // same 2048-byte class
	if &a[:1][0] != &b[:1][0] {
		t.Fatal("expected Get after Put to reuse the buffer")
	}
	snap := reg.Snapshot()
	if snap.Counter("bufpool/gets") != 2 || snap.Counter("bufpool/puts") != 1 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	if snap.Counter("bufpool/misses") != 1 {
		t.Fatalf("misses = %d, want 1 (first Get only)", snap.Counter("bufpool/misses"))
	}
}

func TestPutForeignBuffer(t *testing.T) {
	p := New(metrics.NewRegistry())
	p.Put(nil)
	p.Put(make([]byte, 100)) // cap 100: not a class, must be ignored
	b := p.Get(100)
	if cap(b) != 128 {
		t.Fatalf("foreign buffer entered the pool: cap = %d", cap(b))
	}
}

func BenchmarkGetPut(b *testing.B) {
	p := New(metrics.NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := p.Get(1500)
		p.Put(buf)
	}
}

// The mode toggles below mutate package globals, so these tests must
// not run in parallel with anything in this package; each restores the
// previous setting before returning.

func TestSetDisabled(t *testing.T) {
	SetDisabled(true)
	defer SetDisabled(false)

	reg := metrics.NewRegistry()
	p := New(reg)
	a := p.Get(1500)
	a[0] = 0xab
	p.Put(a)
	b := p.Get(1500)
	if &a[:1][0] == &b[:1][0] {
		t.Fatal("disabled pool recycled a buffer")
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("disabled pool returned dirty memory at %d", i)
		}
	}
	snap := reg.Snapshot()
	if snap.Counter("bufpool/misses") != 2 {
		t.Fatalf("misses = %d, want every Get to miss", snap.Counter("bufpool/misses"))
	}
	if snap.Counter("bufpool/puts") != 0 {
		t.Fatalf("puts = %d, want Put to be a no-op", snap.Counter("bufpool/puts"))
	}

	// Buffers parked before the switch stay parked while disabled.
	SetDisabled(false)
	parked := p.Get(1500)
	p.Put(parked)
	SetDisabled(true)
	if c := p.Get(1500); &c[:1][0] == &parked[:1][0] {
		t.Fatal("disabled pool handed out a parked buffer")
	}
}

func TestDebugDoublePutPanics(t *testing.T) {
	SetDebugDoublePut(true)
	defer SetDebugDoublePut(false)

	p := New(metrics.NewRegistry())
	a := p.Get(1500)
	p.Put(a)

	// A distinct buffer of the same class is fine.
	p.Put(make([]byte, 2048))

	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same buffer did not panic")
		}
	}()
	p.Put(a)
}

func TestDebugDoublePutOffByDefault(t *testing.T) {
	p := New(metrics.NewRegistry())
	a := p.Get(64)
	p.Put(a)
	p.Put(a) // corrupts the free list, but must not panic without the detector
}

type obj struct {
	n   int
	buf []byte
}

func TestObjectReuse(t *testing.T) {
	reg := metrics.NewRegistry()
	p := New(reg)
	a := GetObj[obj](p)
	a.n = 7
	PutObj(p, a)
	PutObj[obj](p, nil)
	if b := GetObj[obj](p); b != a || b.n != 7 {
		t.Fatalf("GetObj after PutObj = %p (n=%d), want the recycled %p as its user left it", b, b.n, a)
	}
	if c := GetObj[obj](p); c == a || c.n != 0 {
		t.Fatal("empty object list must hand out a new zero object")
	}
	snap := reg.Snapshot()
	if snap.Counter("bufpool/object_gets") != 3 || snap.Counter("bufpool/object_misses") != 2 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

func TestObjectListHoldsOneType(t *testing.T) {
	p := New(metrics.NewRegistry())
	PutObj(p, &obj{})
	defer func() {
		if recover() == nil {
			t.Fatal("a second object type on one pool did not panic")
		}
	}()
	GetObj[int](p)
}

// TestOneWayTrafficStaysWithinCap moves packet-like objects and their
// buffers one way between two loops' pools, as a cross-shard link does
// for a one-way flow: the sending pool always misses, the receiving
// pool is freed into and never drawn from. Both must stay within
// MaxIdle however long the traffic runs.
func TestOneWayTrafficStaysWithinCap(t *testing.T) {
	src, dst := New(metrics.NewRegistry()), New(metrics.NewRegistry())
	for i := 0; i < 3*MaxIdle; i++ {
		x := GetObj[obj](src)
		x.buf = src.Get(65 + i%64) // class 1 (128 B)
		dst.Put(x.buf)
		x.buf = nil
		PutObj(dst, x)
	}
	for _, p := range []*Pool{src, dst} {
		for c := range p.free {
			if n := len(p.free[c]); n > MaxIdle {
				t.Errorf("class %d holds %d idle buffers, cap %d", c, n, MaxIdle)
			}
		}
		if n := len(list[obj](p).free); n > MaxIdle {
			t.Errorf("object list holds %d idle objects, cap %d", n, MaxIdle)
		}
	}
	if n := len(dst.free[1]); n != MaxIdle {
		t.Errorf("receiving class 1 holds %d, want it full at %d", n, MaxIdle)
	}
	if n := len(list[obj](dst).free); n != MaxIdle {
		t.Errorf("receiving object list holds %d, want it full at %d", n, MaxIdle)
	}
}

func TestObjectsFollowSetDisabled(t *testing.T) {
	p := New(metrics.NewRegistry())
	parked := GetObj[obj](p)
	PutObj(p, parked)
	SetDisabled(true)
	defer SetDisabled(false)
	if x := GetObj[obj](p); x == parked {
		t.Fatal("disabled pool handed out a parked object")
	}
	PutObj(p, &obj{})
	SetDisabled(false)
	if x := GetObj[obj](p); x != parked {
		t.Fatal("PutObj while disabled entered the list")
	}
}

func TestDebugDoublePutObjPanics(t *testing.T) {
	SetDebugDoublePut(true)
	defer SetDebugDoublePut(false)

	p := New(metrics.NewRegistry())
	a := GetObj[obj](p)
	PutObj(p, a)
	defer func() {
		if recover() == nil {
			t.Fatal("second PutObj of the same object did not panic")
		}
	}()
	PutObj(p, a)
}
