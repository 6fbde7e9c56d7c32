package shard_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/sim/shard"
)

// TestDynamicMatchesGlobal pins the dynamic policy to the byte-identity
// contract: for every placement, traces must match the lockstep global
// engine exactly. The pingPong ring is the adversarial case for
// promises — it cycles, so a one-hop promise without fixpoint
// propagation would let a shard outrun the echo traffic coming back
// around the ring.
func TestDynamicMatchesGlobal(t *testing.T) {
	const nParts = 4
	until := 200 * time.Millisecond
	mappings := map[string][]int{
		"1shard":  {0, 0, 0, 0},
		"2shards": {0, 1, 0, 1},
		"4shards": {0, 1, 2, 3},
	}
	global := shard.NewEngine(7, 4)
	ref := pingPong(t, 7, nParts, global, []int{0, 1, 2, 3}, until)
	for name, mapping := range mappings {
		n := 1
		for _, m := range mapping {
			if m >= n {
				n = m + 1
			}
		}
		eng := shard.NewEngine(7, n)
		eng.SetPolicy(shard.PolicyDynamic)
		got := pingPong(t, 7, nParts, eng, mapping, until)
		for i := 0; i < nParts; i++ {
			if ref[i] != got[i] {
				t.Fatalf("%s: station %d trace differs global vs dynamic:\n--- global ---\n%s--- dynamic ---\n%s",
					name, i, ref[i], got[i])
			}
		}
	}
}

// sparseEngine builds the idle-heavy case the dynamic policy exists
// for: two shards joined by short edges both ways (so the distance
// bound is small), where shard 0 only acts at a sparse period
// and shard 1 has nothing at all. Every send keeps the cycle honest —
// shard 1 echoes each message back, so promises must propagate through
// the cycle rather than assume quiet forever.
func sparseEngine(p shard.Policy, period, until time.Duration) *shard.Engine {
	eng := shard.NewEngine(1, 2)
	eng.SetPolicy(p)
	d := time.Millisecond
	var fwd, back *shard.Edge
	fwd = eng.NewEdge(eng.Shard(0), eng.Shard(1), d, func(m shard.Message) {
		back.Send(eng.Shard(1).Loop().Now()+d, m.Payload)
	})
	back = eng.NewEdge(eng.Shard(1), eng.Shard(0), d, func(shard.Message) {})
	loop := eng.Shard(0).Loop()
	var tick func()
	tick = func() {
		fwd.Send(loop.Now()+d, loop.Now())
		if loop.Now()+period <= until {
			loop.After(period, tick)
		}
	}
	loop.At(0, tick)
	eng.Run(until)
	return eng
}

// TestDynamicStridesPastIdle is the point of the policy: with activity
// every 50ms over 1ms edges, global grinds 1ms windows while dynamic
// strides from event to event. The reduction here (>=10x) is
// the small-scale version of the idle-fleet bench gate.
func TestDynamicStridesPastIdle(t *testing.T) {
	windows := func(p shard.Policy) int64 {
		eng := sparseEngine(p, 50*time.Millisecond, 500*time.Millisecond)
		var n int64
		for i := 0; i < eng.N(); i++ {
			n += eng.Shard(i).Loop().Metrics().Snapshot().Counter("shard/windows")
		}
		return n
	}
	g, dyn := windows(shard.PolicyGlobal), windows(shard.PolicyDynamic)
	if g < 10*dyn {
		t.Fatalf("dynamic ran %d windows vs global %d, want >= 10x fewer", dyn, g)
	}
}

// TestDynamicIdleFastForward: when no inbound edge can ever produce a
// message (every EOT is +inf), the shard must cross the whole Run span
// in a single inclusive window instead of min-delay hops.
func TestDynamicIdleFastForward(t *testing.T) {
	eng := shard.NewEngine(1, 2)
	eng.SetPolicy(shard.PolicyDynamic)
	// An edge exists (so the distance bound alone would stride in 1ms
	// hops), but its source never schedules anything.
	eng.NewEdge(eng.Shard(0), eng.Shard(1), time.Millisecond, func(shard.Message) {})
	eng.Run(time.Second)
	if w := eng.Shard(1).Loop().Metrics().Snapshot().Counter("shard/windows"); w != 1 {
		t.Fatalf("quiet-predecessor shard ran %d windows over 1s, want 1 (fast-forward)", w)
	}
}

// TestSingleShardCoordinatorNoOp: a single-shard engine with no edges
// must behave identically under every policy — one inclusive window
// covering the whole span, no goroutines, no extra machinery.
func TestSingleShardCoordinatorNoOp(t *testing.T) {
	until := 100 * time.Millisecond
	for _, p := range shard.Policies() {
		eng := shard.NewEngine(9, 1)
		eng.SetPolicy(p)
		loop := eng.Shard(0).Loop()
		fired := 0
		loop.At(30*time.Millisecond, func() { fired++ })
		loop.At(until, func() { fired++ })
		eng.Run(until)
		if fired != 2 {
			t.Errorf("policy %v: %d events fired, want 2 (inclusive horizon)", p, fired)
		}
		snap := loop.Metrics().Snapshot()
		if w := snap.Counter("shard/windows"); w != 1 {
			t.Errorf("policy %v: single shard ran %d windows, want 1", p, w)
		}
		if r := snap.Counter("shard/windows_released"); r != 1 {
			t.Errorf("policy %v: windows_released = %d, want 1", p, r)
		}
		if loop.Now() != until {
			t.Errorf("policy %v: clock at %v, want %v", p, loop.Now(), until)
		}
	}
}

// TestWindowInstrumentation checks the observability satellites: every
// policy must account each granted window in shard/windows_released and
// its virtual-time length in the shard/horizon_stride_ns histogram,
// whose per-shard sum is exactly the Run span (strides partition
// [0, until]; reopened windows add zero-length strides).
func TestWindowInstrumentation(t *testing.T) {
	until := 500 * time.Millisecond
	for _, p := range shard.Policies() {
		eng := sparseEngine(p, 50*time.Millisecond, until)
		for i := 0; i < eng.N(); i++ {
			snap := eng.Shard(i).Loop().Metrics().Snapshot()
			windows := snap.Counter("shard/windows")
			released := snap.Counter("shard/windows_released")
			if released != windows {
				t.Errorf("policy %v shard %d: windows_released %d != windows %d", p, i, released, windows)
			}
			h, ok := snap.Histograms["shard/horizon_stride_ns"]
			if !ok {
				t.Fatalf("policy %v shard %d: shard/horizon_stride_ns histogram missing", p, i)
			}
			if h.Count != windows {
				t.Errorf("policy %v shard %d: stride samples %d != windows %d", p, i, h.Count, windows)
			}
			if h.Sum != int64(until) {
				t.Errorf("policy %v shard %d: stride sum %d != span %d", p, i, h.Sum, int64(until))
			}
		}
	}
}

// TestDynamicNeverTrailsGlobal: the dynamic horizon is at least the
// distance bound, which is never shorter than the global lookahead
// window, so the dynamic policy can never grant MORE windows than
// global on the same scenario.
func TestDynamicNeverTrailsGlobal(t *testing.T) {
	for _, period := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 80 * time.Millisecond} {
		windows := func(p shard.Policy) int64 {
			eng := sparseEngine(p, period, 400*time.Millisecond)
			var n int64
			for i := 0; i < eng.N(); i++ {
				n += eng.Shard(i).Loop().Metrics().Snapshot().Counter("shard/windows")
			}
			return n
		}
		if g, dyn := windows(shard.PolicyGlobal), windows(shard.PolicyDynamic); dyn > g {
			t.Errorf("period %v: dynamic %d windows > global %d", period, dyn, g)
		}
	}
}

// TestDynamicStress is the randomized coordinator stress test: for
// several seeds, a random edge topology (a ring, which guarantees
// cycles, plus random chords) with random delays and random station
// activity runs under global (reference) and under dynamic at two different GOMAXPROCS values.
// Model state must be byte-identical to the reference, and — because
// every coordinator decision is made at a quiescent pass from
// simulation state only — the window counts must be identical across
// CPU counts. Run with -race this doubles as the data-race harness for
// the per-shard coordinator.
func TestDynamicStress(t *testing.T) {
	until := 150 * time.Millisecond
	for seed := int64(1); seed <= 3; seed++ {
		topo := rand.New(rand.NewSource(seed))
		nShards := 2 + topo.Intn(3) // 2..4
		type edgeSpec struct {
			src, dst int
			delay    time.Duration
		}
		var edges []edgeSpec
		perm := topo.Perm(nShards)
		for i := range perm {
			edges = append(edges, edgeSpec{perm[i], perm[(i+1)%nShards],
				time.Duration(1+topo.Intn(5)) * time.Millisecond})
		}
		for k := 0; k < topo.Intn(3); k++ {
			s, d := topo.Intn(nShards), topo.Intn(nShards)
			if s == d {
				continue
			}
			edges = append(edges, edgeSpec{s, d, time.Duration(1+topo.Intn(8)) * time.Millisecond})
		}
		periods := make([]time.Duration, nShards)
		for i := range periods {
			periods[i] = time.Duration(5+topo.Intn(40)) * time.Millisecond
		}
		run := func(p shard.Policy) ([]string, []int64) {
			eng := shard.NewEngine(seed, nShards)
			eng.SetPolicy(p)
			traces := make([]string, nShards)
			outBy := make([][]*shard.Edge, nShards)
			for _, es := range edges {
				es := es
				ed := eng.NewEdge(eng.Shard(es.src), eng.Shard(es.dst), es.delay, func(m shard.Message) {
					traces[es.dst] += fmt.Sprintf("recv e%d->%d %v @%v\n",
						es.src, es.dst, m.Payload, eng.Shard(es.dst).Loop().Now())
				})
				outBy[es.src] = append(outBy[es.src], ed)
			}
			for i := 0; i < nShards; i++ {
				i := i
				loop := eng.Shard(i).Loop()
				rng := loop.RNG(fmt.Sprintf("stress/%d", i))
				myEdges := outBy[i]
				period := periods[i]
				var tick func()
				tick = func() {
					traces[i] += fmt.Sprintf("tick @%v\n", loop.Now())
					for _, ed := range myEdges {
						if rng.Intn(2) == 0 {
							ed.Send(loop.Now()+ed.MinDelay()+time.Duration(rng.Int63n(int64(time.Millisecond))), i)
						}
					}
					if loop.Now() < until {
						loop.After(period, tick)
					}
				}
				loop.At(time.Duration(i)*time.Millisecond, tick)
			}
			eng.Run(until)
			windows := make([]int64, nShards)
			for i := range windows {
				windows[i] = eng.Shard(i).Loop().Metrics().Snapshot().Counter("shard/windows")
			}
			return traces, windows
		}
		refTr, _ := run(shard.PolicyGlobal)
		prev := runtime.GOMAXPROCS(0)
		gotTr1, w1 := run(shard.PolicyDynamic)
		runtime.GOMAXPROCS(1)
		gotTr2, w2 := run(shard.PolicyDynamic)
		runtime.GOMAXPROCS(prev)
		for i := range refTr {
			if refTr[i] != gotTr1[i] {
				t.Fatalf("seed %d shard %d: dynamic trace differs from global:\n--- global ---\n%s--- dynamic ---\n%s",
					seed, i, refTr[i], gotTr1[i])
			}
			if gotTr1[i] != gotTr2[i] {
				t.Fatalf("seed %d shard %d: trace differs across GOMAXPROCS", seed, i)
			}
		}
		for i := range w1 {
			if w1[i] != w2[i] {
				t.Fatalf("seed %d: window counts differ across GOMAXPROCS:\n%v\n%v",
					seed, w1, w2)
			}
		}
	}
}
