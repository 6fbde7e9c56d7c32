package sim

import (
	"hash/fnv"
	"testing"
	"testing/quick"
	"time"
)

// loopQueues lists the loop constructors that contract tests run on
// both queues: the production keyHeap and the reference oracle.
var loopQueues = []struct {
	name string
	fn   func(seed int64) *Loop
}{{"keyHeap", NewLoop}, {"oracle", newOracleLoop}}

func TestEventOrdering(t *testing.T) {
	l := NewLoop(1)
	var got []int
	l.After(30*time.Millisecond, func() { got = append(got, 3) })
	l.After(10*time.Millisecond, func() { got = append(got, 1) })
	l.After(20*time.Millisecond, func() { got = append(got, 2) })
	l.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if l.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", l.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	l := NewLoop(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.After(5*time.Millisecond, func() { got = append(got, i) })
	}
	l.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("FIFO violated at %d: %v", i, got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	l := NewLoop(1)
	fired := 0
	l.After(time.Second, func() {
		l.After(time.Second, func() { fired++ })
	})
	l.Run()
	if fired != 1 {
		t.Fatalf("nested event fired %d times, want 1", fired)
	}
	if l.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", l.Now())
	}
}

func TestCancel(t *testing.T) {
	l := NewLoop(1)
	fired := false
	tm := l.After(time.Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	tm.Cancel()
	if tm.Pending() {
		t.Fatal("cancelled timer should not be pending")
	}
	l.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	tm.Cancel() // idempotent
}

func TestCancelZero(t *testing.T) {
	var tm Timer
	tm.Cancel() // the zero handle is inert: must not panic
	if tm.Pending() {
		t.Fatal("zero timer pending")
	}
}

func TestRunUntil(t *testing.T) {
	l := NewLoop(1)
	var got []int
	l.After(10*time.Millisecond, func() { got = append(got, 1) })
	l.After(30*time.Millisecond, func() { got = append(got, 2) })
	l.RunUntil(20 * time.Millisecond)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	if l.Now() != 20*time.Millisecond {
		t.Fatalf("Now = %v, want 20ms", l.Now())
	}
	l.Run()
	if len(got) != 2 {
		t.Fatalf("got %v, want both events", got)
	}
}

func TestRunWhile(t *testing.T) {
	l := NewLoop(1)
	n := 0
	for i := 0; i < 100; i++ {
		l.After(time.Duration(i)*time.Millisecond, func() { n++ })
	}
	l.RunWhile(func() bool { return n < 10 })
	if n != 10 {
		t.Fatalf("n = %d, want 10", n)
	}
}

func TestStop(t *testing.T) {
	l := NewLoop(1)
	n := 0
	for i := 1; i <= 5; i++ {
		l.After(time.Duration(i)*time.Second, func() {
			n++
			if n == 2 {
				l.Stop()
			}
		})
	}
	l.Run()
	if n != 2 {
		t.Fatalf("executed %d events after Stop, want 2", n)
	}
	// Run again resumes.
	l.Run()
	if n != 5 {
		t.Fatalf("executed %d events total, want 5", n)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	l := NewLoop(1)
	l.After(time.Second, func() {
		l.At(0, func() {
			if l.Now() != time.Second {
				t.Errorf("clock went backwards: %v", l.Now())
			}
		})
	})
	l.Run()
}

func TestPost(t *testing.T) {
	l := NewLoop(1)
	var got []int
	l.After(time.Second, func() {
		got = append(got, 1)
		l.Post(func() { got = append(got, 3) })
		got = append(got, 2)
	})
	l.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTicker(t *testing.T) {
	l := NewLoop(1)
	n := 0
	var tk *Ticker
	tk = l.NewTicker(100*time.Millisecond, func() {
		n++
		if n == 5 {
			tk.Stop()
		}
	})
	l.Run()
	if n != 5 {
		t.Fatalf("ticker fired %d times, want 5", n)
	}
	if l.Now() != 500*time.Millisecond {
		t.Fatalf("Now = %v, want 500ms", l.Now())
	}
}

func TestTickerBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive period")
		}
	}()
	NewLoop(1).NewTicker(0, func() {})
}

func TestRNGDeterminism(t *testing.T) {
	a := NewLoop(42)
	b := NewLoop(42)
	for i := 0; i < 100; i++ {
		if a.RNG("x").Int63() != b.RNG("x").Int63() {
			t.Fatal("same seed + name should give identical streams")
		}
	}
	if a.RNG("x") != a.RNG("x") {
		t.Fatal("RNG should be cached per name")
	}
}

func TestRNGIndependentStreams(t *testing.T) {
	l := NewLoop(42)
	a := l.RNG("a").Int63()
	b := l.RNG("b").Int63()
	if a == b {
		t.Fatal("distinct names should give distinct streams")
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	if NewLoop(1).RNG("x").Int63() == NewLoop(2).RNG("x").Int63() {
		t.Fatal("different seeds should give different streams")
	}
}

func TestOnIdle(t *testing.T) {
	l := NewLoop(1)
	phase := 0
	l.OnIdle(func() {
		if phase == 1 {
			phase = 2
			l.After(time.Second, func() { phase = 3 })
		}
	})
	l.After(time.Second, func() { phase = 1 })
	l.Run()
	if phase != 3 {
		t.Fatalf("phase = %d, want 3", phase)
	}
	if l.Now() != 2*time.Second {
		t.Fatalf("Now = %v", l.Now())
	}
}

// Property: for any set of non-negative delays, Run executes all events in
// non-decreasing time order and finishes at the max delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		l := NewLoop(7)
		var fired []time.Duration
		var maxD time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Millisecond
			if at > maxD {
				maxD = at
			}
			l.After(at, func() { fired = append(fired, l.Now()) })
		}
		l.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return l.Now() == maxD
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCancelCompactionSoak cancels 100k timers and checks the heap,
// dead entries included, never grows beyond 2x the live event count
// (the lazy-compaction bound), and that dead events go back to the
// slab instead of growing it.
func TestCancelCompactionSoak(t *testing.T) {
	l := NewLoop(1)
	q := l.q.(*keyHeap)
	const live = 100
	for i := 0; i < live; i++ {
		l.After(time.Duration(i+1)*time.Hour, func() {})
	}
	for i := 0; i < 100000; i++ {
		tm := l.After(time.Duration(i+1)*time.Millisecond, func() {})
		tm.Cancel()
		if len(q.h) > 2*(live+1) {
			t.Fatalf("heap grew to %d with %d live events after %d cancellations",
				len(q.h), live, i+1)
		}
	}
	snap := l.Metrics().Snapshot()
	if got := snap.Counter("sim/events_cancelled"); got != 100000 {
		t.Fatalf("events_cancelled = %d, want 100000", got)
	}
	if snap.Counter("sim/heap_compactions") == 0 {
		t.Fatal("expected at least one heap compaction")
	}
	slots := 0
	for _, c := range l.slab.chunks {
		slots += len(c)
	}
	if slots > 1024 {
		t.Fatalf("slab grew to %d slots for %d live events", slots, live)
	}
	fired := 0
	// The live events must all still fire, in order, despite compactions.
	prev := time.Duration(-1)
	l.OnIdle(func() {})
	for l.Len() > 0 {
		l.RunUntil(l.Now() + time.Hour)
		if l.Now() <= prev {
			t.Fatal("clock went backwards")
		}
		prev = l.Now()
		fired++
		if fired > live+1 {
			break
		}
	}
	if got := l.Metrics().Snapshot().Counter("sim/events_fired"); got != live {
		t.Fatalf("events_fired = %d, want %d", got, live)
	}
}

// TestCancelAfterCompaction checks that a Timer handle stays valid (and
// Cancel remains a no-op or effective as appropriate) across a heap
// rebuild that moved its event, and that the rebuilt heap still fires
// the surviving events in time order.
func TestCancelAfterCompaction(t *testing.T) {
	l := NewLoop(1)
	fired := false
	keep := l.After(time.Hour, func() { fired = true })
	var doomed []Timer
	var order []time.Duration
	for i := 0; i < 200; i++ {
		// Doomed and surviving events at scrambled, interleaved times,
		// so dropping the doomed leaves the survivors out of heap order.
		d := time.Duration(i*7919%200+1) * time.Millisecond
		doomed = append(doomed, l.After(d, func() { t.Fatal("cancelled timer fired") }))
		if i%4 == 0 {
			l.After(d+time.Duration(i*31%200)*time.Millisecond, func() { order = append(order, l.Now()) })
		}
	}
	for _, tm := range doomed {
		tm.Cancel()
	}
	if l.Metrics().Snapshot().Counter("sim/heap_compactions") == 0 {
		t.Fatal("expected a heap compaction")
	}
	h := l.q.(*keyHeap).h
	for j := 1; j < len(h); j++ {
		if h[j].before(h[(j-1)/2]) != 0 {
			t.Fatalf("heap order broken at entry %d of %d after compaction", j, len(h))
		}
	}
	if !keep.Pending() {
		t.Fatal("live timer lost across compaction")
	}
	keep.Cancel()
	l.Run()
	if fired {
		t.Fatal("cancelled timer fired after compaction")
	}
	if len(order) != 50 {
		t.Fatalf("%d survivors fired, want 50", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("survivor %d fired at %v after %v", i, order[i], order[i-1])
		}
	}
}

// TestRunUntilPollsIdle is the regression test for the idle-starvation
// bug: lazy sources registered with OnIdle must be consulted when the
// queue drains before the horizon, exactly as Run consults them.
func TestRunUntilPollsIdle(t *testing.T) {
	l := NewLoop(1)
	produced := 0
	l.OnIdle(func() {
		if produced < 3 {
			produced++
			l.After(time.Second, func() {})
		}
	})
	l.RunUntil(10 * time.Second)
	if produced != 3 {
		t.Fatalf("idle source produced %d events under RunUntil, want 3", produced)
	}
	if l.Now() != 10*time.Second {
		t.Fatalf("Now = %v, want 10s", l.Now())
	}
}

// TestRunUntilIdleBeyondHorizon: an idle source that schedules past the
// horizon must not prevent RunUntil from returning, and the late event
// must stay queued.
func TestRunUntilIdleBeyondHorizon(t *testing.T) {
	l := NewLoop(1)
	calls := 0
	l.OnIdle(func() {
		if calls == 0 {
			l.After(time.Minute, func() {})
		}
		calls++
	})
	l.RunUntil(time.Second)
	if calls == 0 {
		t.Fatal("idle callbacks never polled by RunUntil")
	}
	if l.Len() != 1 {
		t.Fatalf("late event not retained: len=%d", l.Len())
	}
	if l.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", l.Now())
	}
}

// TestAtHeadPrecedesSameInstant: head-band events fire before every
// normal-band event at the same instant regardless of insertion order,
// and keep FIFO order among themselves — on the production queue and
// the oracle, including events already due when scheduled (the
// Post-like path).
func TestAtHeadPrecedesSameInstant(t *testing.T) {
	for _, newLoop := range loopQueues {
		l := newLoop.fn(1)
		at := 5 * time.Millisecond
		var got []string
		l.At(at, func() { got = append(got, "n0") })
		l.AtHead(at, func() { got = append(got, "h0") })
		l.At(at, func() { got = append(got, "n1") })
		l.AtHead(at, func() { got = append(got, "h1") })
		// A due head event scheduled from inside the instant still beats
		// the queued normal events at that instant.
		l.At(at, func() { got = append(got, "n2") })
		l.AtHead(2*time.Millisecond, func() {
			l.AtHead(at, func() { got = append(got, "h2") })
		})
		l.Run()
		want := "h0,h1,h2,n0,n1,n2"
		joined := ""
		for i, s := range got {
			if i > 0 {
				joined += ","
			}
			joined += s
		}
		if joined != want {
			t.Fatalf("%s: order %s, want %s", newLoop.name, joined, want)
		}
	}
}

// TestAtHeadPastClamps: like At, AtHead in the past fires immediately
// at the current instant.
func TestAtHeadPastClamps(t *testing.T) {
	l := NewLoop(1)
	fired := time.Duration(-1)
	l.At(time.Millisecond, func() {
		l.AtHead(0, func() { fired = l.Now() })
	})
	l.Run()
	if fired != time.Millisecond {
		t.Fatalf("past AtHead fired at %v, want clamped to 1ms", fired)
	}
}

// TestScheduleFireNoAlloc pins the kernel's allocation-free hot path:
// once the slab and heap are warm, scheduling a bound callback and
// firing it, scheduling and cancelling, and a Ticker's reschedule
// allocate nothing.
func TestScheduleFireNoAlloc(t *testing.T) {
	l := NewLoop(1)
	n := 0
	fn := func() { n++ }
	for i := 0; i < 2048; i++ {
		l.After(time.Duration(i)*time.Microsecond, fn)
		l.After(time.Hour, fn).Cancel()
	}
	l.Run()
	if a := testing.AllocsPerRun(1000, func() {
		l.After(time.Millisecond, fn)
		l.RunUntil(l.Now() + time.Millisecond)
	}); a != 0 {
		t.Errorf("At + fire allocates %.2f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		l.After(time.Second, fn).Cancel()
	}); a != 0 {
		t.Errorf("At + Cancel allocates %.2f per call, want 0", a)
	}
	tk := l.NewTicker(time.Millisecond, fn)
	l.RunUntil(l.Now() + 10*time.Millisecond)
	if a := testing.AllocsPerRun(1000, func() {
		l.RunUntil(l.Now() + time.Millisecond)
	}); a != 0 {
		t.Errorf("Ticker tick allocates %.2f per period, want 0", a)
	}
	tk.Stop()
}

// TestWheelEventAtNow covers scheduling at the current instant,
// including after RunUntil has peeked at an event past its horizon:
// events scheduled out of timestamp order behind that event must still
// fire in global (at, seq) order.
func TestWheelEventAtNow(t *testing.T) {
	l := NewLoop(1)
	var order []int
	l.Post(func() { order = append(order, 1) })
	l.Post(func() { order = append(order, 2) })
	l.RunUntil(time.Millisecond)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("Post order = %v, want [1 2]", order)
	}

	// The only event sits at 1h, so RunUntil(30m) peeks at it and stops
	// at the horizon.
	far := 0
	l.After(time.Hour, func() { far++ })
	l.RunUntil(30 * time.Minute)
	if l.Now() != 30*time.Minute {
		t.Fatalf("Now = %v, want 30m", l.Now())
	}
	// Scheduled out of timestamp order, all before the peeked event.
	order = nil
	l.At(35*time.Minute, func() { order = append(order, 35) })
	l.At(32*time.Minute, func() { order = append(order, 32) })
	l.Post(func() { order = append(order, 30) })
	l.RunUntil(40 * time.Minute)
	if len(order) != 3 || order[0] != 30 || order[1] != 32 || order[2] != 35 {
		t.Fatalf("order = %v, want [30 32 35]", order)
	}
	if far != 0 {
		t.Fatal("1h event fired early")
	}
	l.Run()
	if far != 1 {
		t.Fatal("1h event lost")
	}
}

// TestWheelOverflowCancel cancels events hours out, both before and
// after a RunUntil has peeked past the clock toward them.
func TestWheelOverflowCancel(t *testing.T) {
	l := NewLoop(1)
	fired := 0
	doomed := l.After(2*time.Hour, func() { t.Fatal("cancelled far event fired") })
	kept := l.After(150*time.Minute, func() { fired++ })
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	doomed.Cancel()
	if l.Len() != 1 || doomed.Pending() {
		t.Fatalf("Len = %d after far cancel, want 1", l.Len())
	}
	doomed2 := l.After(160*time.Minute, func() { t.Fatal("cancelled peeked-past event fired") })
	l.RunUntil(140 * time.Minute) // peeks: frees the dead 2h entry at the head
	doomed2.Cancel()
	l.Run()
	if fired != 1 {
		t.Fatalf("kept event fired %d times, want 1", fired)
	}
	if kept.Pending() {
		t.Fatal("fired timer still pending")
	}
}

// TestWheelRunUntilSlotEdge puts the RunUntil horizon exactly on an
// event's timestamp: the event fires when the horizon equals its
// timestamp and not one nanosecond earlier.
func TestWheelRunUntilSlotEdge(t *testing.T) {
	l := NewLoop(1)
	edge := time.Duration(5 << 10)
	fired := false
	l.At(edge, func() { fired = true })
	l.RunUntil(edge - 1)
	if fired {
		t.Fatal("event fired before its timestamp")
	}
	if l.Now() != edge-1 {
		t.Fatalf("Now = %v, want %v", l.Now(), edge-1)
	}
	l.RunUntil(edge)
	if !fired {
		t.Fatal("event did not fire at its exact horizon")
	}
}

// TestWheelCancelImmediate checks that Len counts live events only:
// through 100k schedule-and-cancel cycles it stays exactly the live
// count, however many dead entries the queue still holds.
func TestWheelCancelImmediate(t *testing.T) {
	l := NewLoop(1)
	const live = 100
	for i := 0; i < live; i++ {
		l.After(time.Duration(i+1)*time.Hour, func() {})
	}
	for i := 0; i < 100000; i++ {
		tm := l.After(time.Duration(i+1)*time.Millisecond, func() {})
		tm.Cancel()
		if l.Len() != live {
			t.Fatalf("Len = %d after %d cancel cycles, want exactly %d", l.Len(), i+1, live)
		}
	}
	snap := l.Metrics().Snapshot()
	if got := snap.Counter("sim/events_cancelled"); got != 100000 {
		t.Fatalf("events_cancelled = %d, want 100000", got)
	}
	l.Run()
	if got := l.Metrics().Snapshot().Counter("sim/events_fired"); got != live {
		t.Fatalf("events_fired = %d, want %d", got, live)
	}
}

// TestWheelSameTickOrdering checks that events less than a microsecond
// apart, scheduled out of timestamp order, fire in timestamp order.
func TestWheelSameTickOrdering(t *testing.T) {
	l := NewLoop(1)
	base := time.Duration(7 << 10)
	var order []int
	l.At(base+1000, func() { order = append(order, 2) }) // scheduled first, fires second
	l.At(base+100, func() { order = append(order, 1) })
	l.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("same-tick order = %v, want [1 2]", order)
	}
}

// TestHashNameMatchesFNV locks the allocation-free RNG hash to the
// hash/fnv implementation it replaced, so every named stream keeps its
// historical sequence.
func TestHashNameMatchesFNV(t *testing.T) {
	for _, name := range []string{"", "x", "umts/radio/001010123456789", "ppp/chap/srv", "itg/flow/7"} {
		h := fnv.New64a()
		h.Write([]byte(name))
		if got, want := hashName(name), h.Sum64(); got != want {
			t.Fatalf("hashName(%q) = %#x, want %#x", name, got, want)
		}
	}
}

// TestRNGHitPathNoAlloc: looking up an existing stream must not
// allocate.
func TestRNGHitPathNoAlloc(t *testing.T) {
	l := NewLoop(1)
	l.RNG("hot/stream")
	allocs := testing.AllocsPerRun(1000, func() { _ = l.RNG("hot/stream") })
	if allocs != 0 {
		t.Fatalf("RNG hit path allocates %.1f per call, want 0", allocs)
	}
}

func BenchmarkRNGHit(b *testing.B) {
	l := NewLoop(1)
	l.RNG("hot/stream")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.RNG("hot/stream")
	}
}

// BenchmarkSchedule measures schedule+fire churn with ~1k outstanding
// timers, the regime the paper experiments run in.
func BenchmarkSchedule(b *testing.B) {
	l := NewLoop(1)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.After(time.Duration(i%1000+1)*time.Microsecond, func() { sink++ })
		if l.Len() >= 1024 {
			l.RunUntil(l.Now() + time.Millisecond)
		}
	}
	l.Run()
}

// BenchmarkPending400 measures schedule+fire with 400 pending tickers,
// half of them tied on 10 ms boundaries like radio TTIs: the shape of
// one cell shard of the 4x16 multi-cell run.
func BenchmarkPending400(b *testing.B) {
	l := NewLoop(1)
	n := 0
	fn := func() { n++ }
	for i := 0; i < 200; i++ {
		l.NewTicker(10*time.Millisecond, fn)
	}
	for i := 0; i < 100; i++ {
		l.At(time.Duration(i*197)*time.Microsecond, func() { l.NewTicker(20*time.Millisecond, fn) })
		l.NewTicker(time.Duration(1000+i*37)*time.Millisecond, fn)
	}
	l.RunUntil(time.Second)
	n = 0
	b.ReportAllocs()
	b.ResetTimer()
	l.RunWhile(func() bool { return n < b.N })
}

// BenchmarkScheduleCancel measures the cancel-heavy regime (keepalive
// timers that almost never fire).
func BenchmarkScheduleCancel(b *testing.B) {
	l := NewLoop(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := l.After(time.Duration(i%97+1)*time.Second, func() {})
		tm.Cancel()
		if i%64 == 0 {
			l.RunUntil(l.Now() + time.Microsecond)
		}
	}
	l.Run()
}
