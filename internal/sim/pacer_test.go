package sim

import (
	"fmt"
	"testing"
	"time"
)

// pacerRig is a Pacer of item ids whose service time is size × cost,
// with cost changeable at any time, recording each departure.
type pacerRig struct {
	loop   *Loop
	p      Pacer[int]
	sizes  []int
	cost   time.Duration // service time per byte
	onDone func(id int)  // optional hook, run inside done
	deps   []pacerDep
}

type pacerDep struct {
	id int
	at time.Duration
}

func newPacerRig(cost time.Duration) *pacerRig {
	r := &pacerRig{loop: NewLoop(1), cost: cost}
	r.p.Init(r.loop,
		func(id int) time.Duration { return time.Duration(r.sizes[id]) * r.cost },
		func(id int) {
			r.deps = append(r.deps, pacerDep{id, r.loop.Now()})
			if r.onDone != nil {
				r.onDone(id)
			}
		})
	return r
}

// push offers a new item of size bytes and returns its id.
func (r *pacerRig) push(size int) int {
	id := len(r.sizes)
	r.sizes = append(r.sizes, size)
	r.p.Push(id, size)
	return id
}

func (r *pacerRig) want(t *testing.T, want ...pacerDep) {
	t.Helper()
	if fmt.Sprint(r.deps) != fmt.Sprint(want) {
		t.Fatalf("departures %v, want %v", r.deps, want)
	}
}

func TestPacerFIFO(t *testing.T) {
	r := newPacerRig(time.Millisecond)
	r.push(10)
	if r.p.Busy() != true || r.p.Len() != 0 {
		t.Fatalf("after the first push: Busy %v, Len %d", r.p.Busy(), r.p.Len())
	}
	r.push(20)
	r.push(5)
	if r.p.Len() != 2 || r.p.Bytes() != 25 {
		t.Fatalf("Len %d, Bytes %d, want 2 and 25", r.p.Len(), r.p.Bytes())
	}
	r.loop.Run()
	r.want(t, pacerDep{0, 10 * time.Millisecond}, pacerDep{1, 30 * time.Millisecond}, pacerDep{2, 35 * time.Millisecond})
	if r.p.Busy() || r.p.Len() != 0 || r.p.Bytes() != 0 {
		t.Fatalf("drained pacer: Busy %v, Len %d, Bytes %d", r.p.Busy(), r.p.Len(), r.p.Bytes())
	}
}

// TestPacerPushInsideDoneQueues: done runs while the pacer is busy, so a
// Push made there joins the tail behind the waiting items rather than
// starting at once.
func TestPacerPushInsideDoneQueues(t *testing.T) {
	r := newPacerRig(time.Millisecond)
	r.onDone = func(id int) {
		if id == 0 {
			if got := r.push(1); r.p.Len() != 3 {
				t.Errorf("push %d inside done: Len %d, want 3 (queued)", got, r.p.Len())
			}
		}
	}
	r.push(10)
	r.push(10)
	r.push(10)
	r.loop.Run()
	r.want(t, pacerDep{0, 10 * time.Millisecond}, pacerDep{1, 20 * time.Millisecond},
		pacerDep{2, 30 * time.Millisecond}, pacerDep{3, 31 * time.Millisecond})
}

// TestPacerPauseResume: Pause lets the item in service finish and holds
// the queue; pushes while paused wait even when nothing is in service;
// Resume starts the oldest waiting item.
func TestPacerPauseResume(t *testing.T) {
	r := newPacerRig(time.Millisecond)
	r.push(10)
	r.push(10)
	r.loop.At(5*time.Millisecond, r.p.Pause)
	r.loop.At(20*time.Millisecond, func() {
		if r.p.Len() != 1 || !r.p.Paused() || !r.p.Busy() {
			t.Errorf("paused and idle: Len %d, Paused %v, Busy %v", r.p.Len(), r.p.Paused(), r.p.Busy())
		}
		r.push(3)
	})
	r.loop.At(50*time.Millisecond, r.p.Resume)
	r.loop.Run()
	r.want(t, pacerDep{0, 10 * time.Millisecond}, pacerDep{1, 60 * time.Millisecond}, pacerDep{2, 63 * time.Millisecond})
	r.p.Resume() // not paused: a no-op
	if r.p.Busy() {
		t.Fatal("Resume of an idle, unpaused pacer made it busy")
	}
}

// TestPacerDrain: Drain hands back every waiting item in order and
// leaves the one in service to finish.
func TestPacerDrain(t *testing.T) {
	r := newPacerRig(time.Millisecond)
	for i := 0; i < 4; i++ {
		r.push(10)
	}
	var discarded []int
	r.p.Drain(func(id int) { discarded = append(discarded, id) })
	if fmt.Sprint(discarded) != "[1 2 3]" || r.p.Len() != 0 || r.p.Bytes() != 0 {
		t.Fatalf("discarded %v, Len %d, Bytes %d", discarded, r.p.Len(), r.p.Bytes())
	}
	r.loop.Run()
	r.want(t, pacerDep{0, 10 * time.Millisecond})
}

// TestPacerTxTimeAtStart: the service time is read when an item starts,
// so a rate change reaches the queued items and never the one in
// service.
func TestPacerTxTimeAtStart(t *testing.T) {
	r := newPacerRig(time.Millisecond)
	r.push(1000) // 1 s at the initial rate
	r.loop.At(500*time.Millisecond, func() {
		r.cost = time.Millisecond / 2 // double rate
		r.push(1000)
	})
	r.loop.Run()
	r.want(t, pacerDep{0, time.Second}, pacerDep{1, 1500 * time.Millisecond})
}

// TestPacerSteadyState keeps a pacer busy with a standing queue for
// thousands of items: service allocates nothing, and the waiting FIFO
// stays within twice its peak occupancy plus 64.
func TestPacerSteadyState(t *testing.T) {
	loop := NewLoop(1)
	var p Pacer[[]byte]
	p.Init(loop, func([]byte) time.Duration { return time.Millisecond }, func([]byte) {})
	item := make([]byte, 100)
	for i := 0; i < 20; i++ {
		p.Push(item, len(item))
	}
	peak := 0
	step := func() {
		p.Push(item, len(item))
		peak = max(peak, p.Len())
		loop.RunUntil(loop.Now() + time.Millisecond)
	}
	for i := 0; i < 10000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("%v allocs per pushed and served item", allocs)
	}
	if p.Len() == 0 {
		t.Fatal("queue drained; the load was not steady")
	}
	if c := p.queue.Cap(); c > 2*peak+64 {
		t.Fatalf("waiting FIFO cap %d, peak occupancy %d", c, peak)
	}
}

// FuzzPacerDifferential drives a Pacer with a random sequence of pushes,
// rate changes, pauses and resumes, one operation per distinct instant,
// and checks every departure against a closed-form reference: item i
// starts at s = max(its push time, the departure of item i-1), moved to
// the end of the pause if s falls in a paused span, and departs at
// s + size × the per-byte cost in force at s. Operations precede the
// departures of their instant, because they were scheduled first.
func FuzzPacerDifferential(f *testing.F) {
	f.Add([]byte{0, 10, 50, 0, 5, 50, 2, 20, 0, 0, 30, 9, 3, 200, 0, 1, 1, 3, 0, 40, 99})
	f.Add([]byte{2, 0, 0, 0, 3, 7, 0, 0, 255, 3, 90, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1})
	f.Add([]byte{0, 0, 255, 0, 0, 255, 0, 0, 255, 1, 0, 255, 2, 0, 0, 0, 0, 3, 3, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		type op struct {
			at   time.Duration
			kind byte // 0 push, 1 rate change, 2 pause, 3 resume
			arg  int
		}
		var ops []op
		var at time.Duration
		for i := 0; i+2 < len(data) && len(ops) < 512; i += 3 {
			at += time.Duration(1+int(data[i+1])) * time.Microsecond
			ops = append(ops, op{at, data[i] % 4, int(data[i+2])})
		}
		const initialCost = time.Microsecond
		size := func(arg int) int { return 1 + arg }
		cost := func(arg int) time.Duration { return time.Duration(arg) * 100 * time.Nanosecond }

		r := newPacerRig(initialCost)
		for _, o := range ops {
			r.loop.At(o.at, func() {
				switch o.kind {
				case 0:
					r.push(size(o.arg))
				case 1:
					r.cost = cost(o.arg)
				case 2:
					r.p.Pause()
				case 3:
					r.p.Resume()
				}
			})
		}
		r.loop.Run()

		// The reference reads the operation list only.
		costAt := func(s time.Duration) time.Duration {
			c := initialCost
			for _, o := range ops {
				if o.at <= s && o.kind == 1 {
					c = cost(o.arg)
				}
			}
			return c
		}
		pausedAt := func(s time.Duration) bool {
			paused := false
			for _, o := range ops {
				if o.at <= s && (o.kind == 2 || o.kind == 3) {
					paused = o.kind == 2
				}
			}
			return paused
		}
		resumeAfter := func(s time.Duration) (time.Duration, bool) {
			for _, o := range ops {
				if o.at > s && o.kind == 3 {
					return o.at, true
				}
			}
			return 0, false
		}
		var want []pacerDep
		var prev time.Duration
		for _, o := range ops {
			if o.kind != 0 {
				continue
			}
			s := max(o.at, prev)
			if pausedAt(s) {
				var ok bool
				if s, ok = resumeAfter(s); !ok {
					break // held by a pause that never ends
				}
			}
			prev = s + time.Duration(size(o.arg))*costAt(s)
			want = append(want, pacerDep{len(want), prev})
		}
		r.want(t, want...)
	})
}
