package sim

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// fuzzDelay maps a band selector and a raw value onto a delay inside
// one band: zero, under 1 µs, then spans of 2^18, 2^26, 2^34 and 2^42
// ns (about 262 µs, 67 ms, 17 s and 73 min), and 73 to 366 minutes out.
func fuzzDelay(sel byte, v uint32) time.Duration {
	lo, span := uint64(0), uint64(0)
	switch sel % 7 {
	case 0:
		return 0
	case 1:
		span = 1 << 10
	case 2:
		span = 1 << 18
	case 3:
		span = 1 << 26
	case 4:
		span = 1 << 34
	case 5:
		span = 1 << 42
	default:
		lo, span = 1<<42, 1<<44
	}
	hi, _ := bits.Mul64(uint64(v)<<32, span)
	return time.Duration(lo + hi)
}

// fuzzLoop is one side of the differential: a loop plus everything the
// operation stream observed on it.
type fuzzLoop struct {
	l      *Loop
	timers []Timer
	fired  []fuzzFiring
	nextID int
	fnByID func(id int) func()
}

type fuzzFiring struct {
	id int
	at time.Duration
}

func newFuzzLoop(l *Loop) *fuzzLoop {
	f := &fuzzLoop{l: l}
	f.fnByID = func(id int) func() {
		return func() {
			f.fired = append(f.fired, fuzzFiring{id, f.l.Now()})
			// Every id derives the same follow-up on both loops: a third
			// chain a child (some in the head band, at delays across all
			// bands), and every fifth cancels an earlier handle — possibly
			// a stale one.
			h := uint32(id) * 2654435761
			if id%3 == 1 && id < 1<<20 {
				d := fuzzDelay(byte(h>>8), h)
				f.schedule(h&1 == 0, f.l.Now()+d)
			}
			if id%5 == 2 && len(f.timers) > 0 {
				f.timers[int(h>>4)%len(f.timers)].Cancel()
			}
		}
	}
	return f
}

// schedule registers the next id at absolute time at.
func (f *fuzzLoop) schedule(head bool, at time.Duration) {
	id := f.nextID
	f.nextID++
	if head {
		f.timers = append(f.timers, f.l.AtHead(at, f.fnByID(id)))
	} else {
		f.timers = append(f.timers, f.l.At(at, f.fnByID(id)))
	}
}

// runFuzzOps decodes data into a stream of scheduler operations,
// applies it to a production loop and an oracle loop in lockstep, and
// fails on the first observable difference: firing order and
// timestamps, clocks and every handle's Pending state. It also checks
// that the production Len, which counts live events only, equals the
// number of pending handles.
func runFuzzOps(t *testing.T, data []byte) {
	p, o := newFuzzLoop(NewLoop(1)), newFuzzLoop(newOracleLoop(1))
	both := func(fn func(f *fuzzLoop)) { fn(p); fn(o) }
	checked := 0 // firings already compared
	check := func(op int) {
		t.Helper()
		if p.l.Now() != o.l.Now() {
			t.Fatalf("op %d: clocks diverged: loop %v oracle %v", op, p.l.Now(), o.l.Now())
		}
		if len(p.fired) != len(o.fired) {
			t.Fatalf("op %d: fired %d events on loop, %d on oracle", op, len(p.fired), len(o.fired))
		}
		for i := checked; i < len(p.fired); i++ {
			if p.fired[i] != o.fired[i] {
				t.Fatalf("op %d: firing %d diverged: loop %+v oracle %+v", op, i, p.fired[i], o.fired[i])
			}
		}
		checked = len(p.fired)
		if len(p.timers) != len(o.timers) {
			t.Fatalf("op %d: %d handles on loop, %d on oracle", op, len(p.timers), len(o.timers))
		}
		if op%64 != 63 && op >= 0 {
			return // Pending of every handle: sampled, and after the final Run
		}
		pending := 0
		for i := range p.timers {
			if p.timers[i].Pending() != o.timers[i].Pending() {
				t.Fatalf("op %d: handle %d Pending: loop %v oracle %v", op, i, p.timers[i].Pending(), o.timers[i].Pending())
			}
			if p.timers[i].Pending() {
				pending++
			}
		}
		if p.l.Len() != pending {
			t.Fatalf("op %d: Len = %d, want %d pending handles", op, p.l.Len(), pending)
		}
	}
	for op := 0; len(data) >= 6 && op < 4096; op++ {
		code, sel, v := data[0], data[1], binary.LittleEndian.Uint32(data[2:6])
		data = data[6:]
		d := fuzzDelay(sel, v)
		switch code % 8 {
		case 0, 1, 2:
			both(func(f *fuzzLoop) { f.schedule(false, f.l.Now()+d) })
		case 3:
			both(func(f *fuzzLoop) { f.schedule(true, f.l.Now()+d) })
		case 4:
			both(func(f *fuzzLoop) {
				if len(f.timers) > 0 {
					f.timers[int(v)%len(f.timers)].Cancel()
				}
			})
		case 5:
			both(func(f *fuzzLoop) { f.l.RunUntil(f.l.Now() + d/16) })
		case 6:
			both(func(f *fuzzLoop) { f.l.RunBefore(f.l.Now() + d/16) })
		case 7:
			// Scheduling into the past clamps to Now on both queues.
			both(func(f *fuzzLoop) { f.schedule(sel&1 == 0, f.l.Now()-d) })
		}
		check(op)
	}
	both(func(f *fuzzLoop) { f.l.Run() })
	check(-1)
	if p.l.Len() != 0 {
		t.Fatalf("loop holds %d events after Run", p.l.Len())
	}
}

// diffShapeSeed encodes the operation mix of TestDifferentialHeapVsOracle
// (55% schedule, 20% cancel, 25% advance) as a fuzz input.
func diffShapeSeed(seed int64, ops int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b []byte
	for i := 0; i < ops; i++ {
		var code byte
		switch r := rng.Float64(); {
		case r < 0.45:
			code = 0
		case r < 0.55:
			code = 3
		case r < 0.75:
			code = 4
		case r < 0.88:
			code = 5
		default:
			code = 6
		}
		b = append(b, code, byte(rng.Intn(7)))
		b = binary.LittleEndian.AppendUint32(b, rng.Uint32())
	}
	return b
}

// FuzzSchedulerDifferential drives the production queue and the
// reference heap with a fuzz-chosen operation stream — At/AtHead from
// zero delay to hours out, cancels through live and stale
// handles, chained scheduling and cancelling from inside callbacks,
// RunUntil/RunBefore — and requires identical observations.
func FuzzSchedulerDifferential(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(diffShapeSeed(seed, 400))
	}
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 0, 0, 0, 0, 2, 1, 0, 0, 0, 5, 2, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(runFuzzOps)
}

// randomDelay spreads delays from zero to three hours: sub-microsecond,
// µs..ms, s..min, and hours out.
func randomDelay(rng *rand.Rand) time.Duration {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return time.Duration(rng.Intn(1024))
	case 2:
		return time.Duration(rng.Intn(int(time.Millisecond)))
	case 3:
		return time.Duration(rng.Intn(int(time.Second)))
	case 4:
		return time.Duration(rng.Intn(int(10 * time.Minute)))
	default:
		return time.Duration(rng.Intn(int(3 * time.Hour)))
	}
}

// TestDifferentialHeapVsOracle drives the production queue and the
// reference heap with an identical randomized stream of 100k
// schedule/cancel/advance operations (including chained events
// scheduled from inside callbacks) and requires the exact same firing
// order and timestamps from both.
func TestDifferentialHeapVsOracle(t *testing.T) {
	const ops = 100000
	type firing struct {
		id int
		at time.Duration
	}
	prod := NewLoop(1)
	ref := newOracleLoop(1)
	var pOrder, rOrder []firing
	var pTimers, rTimers []Timer

	// schedule registers event id on one loop; a tenth of the events
	// chain a follow-up from inside the callback, with a delay derived
	// from the id so both loops chain identically.
	schedule := func(l *Loop, order *[]firing, id int, delay time.Duration) Timer {
		var fn func(id int) func()
		fn = func(id int) func() {
			return func() {
				*order = append(*order, firing{id, l.Now()})
				if id%10 == 3 && id < 1000000 {
					chained := id + 1000000
					d := time.Duration(uint64(id)*2654435761%uint64(2*time.Second)) + 1
					l.After(d, fn(chained))
				}
			}
		}
		return l.At(l.Now()+delay, fn(id))
	}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < ops; i++ {
		switch r := rng.Float64(); {
		case r < 0.55:
			d := randomDelay(rng)
			pTimers = append(pTimers, schedule(prod, &pOrder, i, d))
			rTimers = append(rTimers, schedule(ref, &rOrder, i, d))
		case r < 0.75:
			if len(pTimers) > 0 {
				j := rng.Intn(len(pTimers))
				pTimers[j].Cancel()
				rTimers[j].Cancel()
			}
		default:
			d := randomDelay(rng) / 16
			prod.RunUntil(prod.Now() + d)
			ref.RunUntil(ref.Now() + d)
			if prod.Now() != ref.Now() {
				t.Fatalf("clocks diverged after op %d: loop %v oracle %v", i, prod.Now(), ref.Now())
			}
		}
	}
	prod.Run()
	ref.Run()
	if prod.Now() != ref.Now() {
		t.Fatalf("final clocks diverged: loop %v oracle %v", prod.Now(), ref.Now())
	}
	if len(pOrder) != len(rOrder) {
		t.Fatalf("fired %d events on loop, %d on oracle", len(pOrder), len(rOrder))
	}
	for i := range pOrder {
		if pOrder[i] != rOrder[i] {
			t.Fatalf("firing %d diverged: loop %+v oracle %+v", i, pOrder[i], rOrder[i])
		}
	}
	if len(pOrder) == 0 {
		t.Fatal("no events fired; workload generator broken")
	}
}
