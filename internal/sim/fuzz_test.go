package sim

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// fuzzDelay maps a level selector and a raw value onto a delay inside
// one band of the wheel: zero, sub-tick, each of the four levels, and
// past the overflow epoch (the wheel addresses 2^42 ns, ~73 minutes).
func fuzzDelay(sel byte, v uint32) time.Duration {
	lo, span := uint64(0), uint64(0)
	switch sel % 7 {
	case 0:
		return 0
	case 1:
		span = 1 << tickShift
	case 2:
		span = 1 << (tickShift + levelBits)
	case 3:
		span = 1 << (tickShift + 2*levelBits)
	case 4:
		span = 1 << (tickShift + 3*levelBits)
	case 5:
		span = 1 << (tickShift + wheelBits)
	default:
		lo, span = 1<<(tickShift+wheelBits), 1<<(tickShift+wheelBits+2)
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

func newFuzzLoop(s Scheduler) *fuzzLoop {
	f := &fuzzLoop{l: NewLoopScheduler(1, s)}
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
// applies it to a wheel loop and a heap loop in lockstep, and fails on
// the first observable difference: firing order and timestamps, clocks,
// PeekNext answers and every handle's Pending state.
func runFuzzOps(t *testing.T, data []byte) {
	w, h := newFuzzLoop(SchedulerWheel), newFuzzLoop(SchedulerHeap)
	both := func(fn func(f *fuzzLoop)) { fn(w); fn(h) }
	checked := 0 // firings already compared
	check := func(op int) {
		t.Helper()
		if w.l.Now() != h.l.Now() {
			t.Fatalf("op %d: clocks diverged: wheel %v heap %v", op, w.l.Now(), h.l.Now())
		}
		if len(w.fired) != len(h.fired) {
			t.Fatalf("op %d: fired %d events on wheel, %d on heap", op, len(w.fired), len(h.fired))
		}
		for i := checked; i < len(w.fired); i++ {
			if w.fired[i] != h.fired[i] {
				t.Fatalf("op %d: firing %d diverged: wheel %+v heap %+v", op, i, w.fired[i], h.fired[i])
			}
		}
		checked = len(w.fired)
		wt, wok := w.l.PeekNext()
		ht, hok := h.l.PeekNext()
		if wt != ht || wok != hok {
			t.Fatalf("op %d: PeekNext diverged: wheel (%v, %v) heap (%v, %v)", op, wt, wok, ht, hok)
		}
		if len(w.timers) != len(h.timers) {
			t.Fatalf("op %d: %d handles on wheel, %d on heap", op, len(w.timers), len(h.timers))
		}
		if op%64 != 63 && op >= 0 {
			return // Pending of every handle: sampled, and after the final Run
		}
		for i := range w.timers {
			if w.timers[i].Pending() != h.timers[i].Pending() {
				t.Fatalf("op %d: handle %d Pending: wheel %v heap %v", op, i, w.timers[i].Pending(), h.timers[i].Pending())
			}
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
			// Scheduling into the past clamps to Now on both backends.
			both(func(f *fuzzLoop) { f.schedule(sel&1 == 0, f.l.Now()-d) })
		}
		check(op)
	}
	both(func(f *fuzzLoop) { f.l.Run() })
	check(-1)
	if w.l.Len() != 0 {
		t.Fatalf("wheel holds %d events after Run", w.l.Len())
	}
}

// diffShapeSeed encodes the operation mix of TestDifferentialWheelVsHeap
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

// FuzzSchedulerDifferential drives the wheel and the reference heap
// with a fuzz-chosen operation stream — At/AtHead across every wheel
// level and past the overflow epoch, cancels through live and stale
// handles, chained scheduling and cancelling from inside callbacks,
// RunUntil/RunBefore/PeekNext — and requires identical observations.
func FuzzSchedulerDifferential(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(diffShapeSeed(seed, 400))
	}
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 0, 0, 0, 0, 2, 1, 0, 0, 0, 5, 2, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(runFuzzOps)
}
