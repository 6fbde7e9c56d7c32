package shard_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/sim/shard"
)

// pingPong builds a toy scenario on an engine: nParts independent
// "stations" exchanging tokens over a ring of edges, each station also
// running local jittered work off its own RNG stream. Each station's
// event trace (times and token values, in its own observation order) is
// the scenario's observable output; a station's trace is written only
// from the shard that hosts it, so the slices need no locking.
// mapping[i] gives the shard hosting station i.
func pingPong(t *testing.T, seed int64, nParts int, eng *shard.Engine, mapping []int, until time.Duration) []string {
	t.Helper()
	traces := make([]string, nParts)
	delay := 3 * time.Millisecond
	type station struct {
		loop *sim.Loop
		out  *shard.Edge
		id   int
	}
	stations := make([]*station, nParts)
	for i := range stations {
		stations[i] = &station{loop: eng.Shard(mapping[i]).Loop(), id: i}
	}
	// Edges form a ring i -> (i+1)%n; creation order is station order,
	// which is placement-independent. The deliver callback runs on the
	// destination station's shard, so it may touch that station freely.
	for i, st := range stations {
		next := stations[(i+1)%nParts]
		st.out = eng.NewEdge(eng.Shard(mapping[i]), eng.Shard(mapping[(i+1)%nParts]), delay,
			func(m shard.Message) {
				v := m.Payload.(int)
				traces[next.id] += fmt.Sprintf("recv %d @%v\n", v, next.loop.Now())
				if v < 40 {
					next.out.Send(next.loop.Now()+delay, v+1)
				}
			})
	}
	for i, st := range stations {
		st := st
		// Local work: each station draws from its own stream and logs.
		rng := st.loop.RNG(fmt.Sprintf("station/%d", i))
		var tick func()
		tick = func() {
			d := time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
			traces[st.id] += fmt.Sprintf("tick @%v\n", st.loop.Now())
			if st.loop.Now() < until {
				st.loop.After(500*time.Microsecond+d, tick)
			}
		}
		st.loop.After(time.Duration(i+1)*100*time.Microsecond, tick)
		// Kick the token off station 0.
		if i == 0 {
			st.loop.Post(func() { st.out.Send(st.loop.Now()+delay, 1) })
		}
	}
	eng.Run(until)
	return traces
}

func TestShardedRunMatchesSingleShard(t *testing.T) {
	const nParts = 4
	until := 200 * time.Millisecond
	single := shard.NewEngine(7, 1)
	ref := pingPong(t, 7, nParts, single, []int{0, 0, 0, 0}, until)

	four := shard.NewEngine(7, 4)
	got := pingPong(t, 7, nParts, four, []int{0, 1, 2, 3}, until)

	two := shard.NewEngine(7, 2)
	got2 := pingPong(t, 7, nParts, two, []int{0, 1, 0, 1}, until)

	for i := 0; i < nParts; i++ {
		if ref[i] != got[i] {
			t.Fatalf("station %d trace differs 1-shard vs 4-shard:\n--- 1 shard ---\n%s--- 4 shards ---\n%s",
				i, ref[i], got[i])
		}
		if ref[i] != got2[i] {
			t.Fatalf("station %d trace differs 1-shard vs 2-shard", i)
		}
	}
}

func TestMessageOrderingAcrossEdges(t *testing.T) {
	// Two edges deliberately deliver at the identical instant; the
	// delivery order must follow edge creation order regardless of which
	// source sent first in wall-clock or scheduling terms.
	eng := shard.NewEngine(1, 3)
	var order []int
	d := time.Millisecond
	e0 := eng.NewEdge(eng.Shard(0), eng.Shard(2), d, func(m shard.Message) { order = append(order, 0) })
	e1 := eng.NewEdge(eng.Shard(1), eng.Shard(2), d, func(m shard.Message) { order = append(order, 1) })
	// Send from edge 1 first; both arrive at t = 5ms.
	eng.Shard(1).Loop().Post(func() { e1.Send(5*time.Millisecond, "b") })
	eng.Shard(0).Loop().Post(func() { e0.Send(5*time.Millisecond, "a") })
	eng.Run(10 * time.Millisecond)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("same-instant deliveries out of edge order: %v", order)
	}
}

func TestPerEdgeFIFO(t *testing.T) {
	eng := shard.NewEngine(1, 2)
	var got []int
	d := time.Millisecond
	ed := eng.NewEdge(eng.Shard(0), eng.Shard(1), d, func(m shard.Message) {
		got = append(got, m.Payload.(int))
	})
	eng.Shard(0).Loop().Post(func() {
		for i := 0; i < 5; i++ {
			ed.Send(2*time.Millisecond, i) // identical At: seq must break the tie
		}
	})
	eng.Run(5 * time.Millisecond)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: got %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d of 5", len(got))
	}
}

func TestLookaheadViolationPanics(t *testing.T) {
	eng := shard.NewEngine(1, 2)
	ed := eng.NewEdge(eng.Shard(0), eng.Shard(1), 5*time.Millisecond, func(shard.Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("send below the edge's min delay did not panic")
		}
	}()
	// Sending from setup context (source clock at 0) below MinDelay.
	ed.Send(time.Millisecond, "too soon")
}

func TestNonPositiveMinDelayPanics(t *testing.T) {
	eng := shard.NewEngine(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("zero min delay did not panic")
		}
	}()
	eng.NewEdge(eng.Shard(0), eng.Shard(1), 0, func(shard.Message) {})
}

func TestNoEdgesSingleWindow(t *testing.T) {
	// Independent shards run the whole span as one window each.
	eng := shard.NewEngine(1, 3)
	fired := make([]bool, 3)
	for i := 0; i < 3; i++ {
		i := i
		eng.Shard(i).Loop().At(90*time.Millisecond, func() { fired[i] = true })
	}
	eng.Run(100 * time.Millisecond)
	for i, f := range fired {
		if !f {
			t.Fatalf("shard %d event did not fire", i)
		}
		if got := eng.Shard(i).Loop().Now(); got != 100*time.Millisecond {
			t.Fatalf("shard %d clock %v, want 100ms", i, got)
		}
	}
	if w := eng.Shard(0).Loop().Metrics().Snapshot().Counter("shard/windows"); w != 1 {
		t.Fatalf("edge-free engine ran %d windows, want 1", w)
	}
}

// TestLongEdgeHoldsMessages checks that a message sent across an edge
// longer than the lookahead window is held at intermediate barriers and
// still arrives exactly on time.
func TestLongEdgeHoldsMessages(t *testing.T) {
	eng := shard.NewEngine(1, 3)
	var at time.Duration
	short := time.Millisecond
	long := 10 * time.Millisecond
	eng.NewEdge(eng.Shard(0), eng.Shard(1), short, func(shard.Message) {})
	ed := eng.NewEdge(eng.Shard(0), eng.Shard(2), long, func(m shard.Message) {
		at = eng.Shard(2).Loop().Now()
	})
	eng.Shard(0).Loop().Post(func() { ed.Send(long, "x") })
	eng.Run(20 * time.Millisecond)
	if at != long {
		t.Fatalf("long-edge message delivered at %v, want %v", at, long)
	}
}

func TestWindowAndMessageCounters(t *testing.T) {
	eng := shard.NewEngine(1, 2)
	d := 2 * time.Millisecond
	ed := eng.NewEdge(eng.Shard(0), eng.Shard(1), d, func(shard.Message) {})
	eng.Shard(0).Loop().Post(func() { ed.Send(d, 1) })
	eng.Run(10 * time.Millisecond)
	s0 := eng.Shard(0).Loop().Metrics().Snapshot()
	s1 := eng.Shard(1).Loop().Metrics().Snapshot()
	if s0.Counter("shard/msgs_out") != 1 || s1.Counter("shard/msgs_in") != 1 {
		t.Fatalf("message counters wrong: out=%d in=%d",
			s0.Counter("shard/msgs_out"), s1.Counter("shard/msgs_in"))
	}
	// 10ms span over 2ms windows: four exclusive lookahead windows
	// (ending 2,4,6,8 ms) plus the final inclusive window to 10 ms.
	if w := s0.Counter("shard/windows"); w != 5 {
		t.Fatalf("windows=%d, want 5", w)
	}
	if s0.Counter("shard/windows") != s1.Counter("shard/windows") {
		t.Fatal("shards disagree on window count")
	}
}

// TestIncrementalRun verifies Run can be called repeatedly and the
// engine resumes from its last horizon.
func TestIncrementalRun(t *testing.T) {
	eng := shard.NewEngine(1, 2)
	d := time.Millisecond
	var got []time.Duration
	ed := eng.NewEdge(eng.Shard(0), eng.Shard(1), d, func(m shard.Message) {
		got = append(got, eng.Shard(1).Loop().Now())
	})
	send := func(at time.Duration) {
		eng.Shard(0).Loop().At(at-d, func() { ed.Send(at, "x") })
	}
	send(3 * time.Millisecond)
	send(7 * time.Millisecond)
	eng.Run(5 * time.Millisecond)
	if len(got) != 1 || got[0] != 3*time.Millisecond {
		t.Fatalf("after first Run: %v", got)
	}
	eng.Run(10 * time.Millisecond)
	if len(got) != 2 || got[1] != 7*time.Millisecond {
		t.Fatalf("after second Run: %v", got)
	}
	if eng.Now() != 10*time.Millisecond {
		t.Fatalf("engine now %v", eng.Now())
	}
}

// TestMailboxBacklogGauge checks the per-shard backlog gauge: a message
// riding an edge longer than the lookahead window sits in its mailbox
// across intermediate barriers, and the source shard's gauge records
// that peak.
func TestMailboxBacklogGauge(t *testing.T) {
	eng := shard.NewEngine(1, 3)
	eng.NewEdge(eng.Shard(0), eng.Shard(1), time.Millisecond, func(shard.Message) {})
	ed := eng.NewEdge(eng.Shard(0), eng.Shard(2), 10*time.Millisecond, func(shard.Message) {})
	eng.Shard(0).Loop().Post(func() { ed.Send(10*time.Millisecond, "x") })
	eng.Run(20 * time.Millisecond)
	g := eng.Shard(0).Loop().Metrics().Snapshot().Gauges["shard/mailbox_backlog"]
	if g.Max < 1 {
		t.Fatalf("backlog gauge peak = %v, want >= 1 (message held across barriers)", g.Max)
	}
	if g.Value != 0 {
		t.Fatalf("backlog gauge final value = %v, want 0 (all mailboxes drained)", g.Value)
	}
}

// TestFinalWindowHorizonSend is the regression test for the
// final-window horizon drop: a message sent from INSIDE the last
// inclusive window with At exactly at the horizon used to be stranded
// in its mailbox when Run returned, because the flush ran before the
// window and nothing drained afterwards. The engine must deliver it and
// leave every mailbox empty (zero final backlog gauge).
func TestFinalWindowHorizonSend(t *testing.T) {
	eng := shard.NewEngine(1, 2)
	d := 2 * time.Millisecond
	until := 10 * time.Millisecond
	var deliveredAt time.Duration
	ed := eng.NewEdge(eng.Shard(0), eng.Shard(1), d, func(m shard.Message) {
		deliveredAt = eng.Shard(1).Loop().Now()
	})
	// Fires at until-d, inside the final inclusive window [8ms, 10ms],
	// after the engine's last pre-window flush has already run.
	eng.Shard(0).Loop().At(until-d, func() { ed.Send(until, "last") })
	eng.Run(until)
	if deliveredAt != until {
		t.Errorf("horizon message delivered at %v, want exactly %v", deliveredAt, until)
	}
	for i := 0; i < eng.N(); i++ {
		g := eng.Shard(i).Loop().Metrics().Snapshot().Gauges["shard/mailbox_backlog"]
		if g.Value != 0 {
			t.Errorf("shard %d final mailbox backlog = %v, want 0", i, g.Value)
		}
	}
}

// TestRunReentryNoOp: calling Run twice with the same horizon must not
// re-execute the inclusive window — metrics (window counts, deliveries)
// and loop state stay exactly as the first call left them.
func TestRunReentryNoOp(t *testing.T) {
	eng := shard.NewEngine(3, 2)
	d := 2 * time.Millisecond
	ed := eng.NewEdge(eng.Shard(0), eng.Shard(1), d, func(shard.Message) {})
	eng.Shard(0).Loop().Post(func() { ed.Send(d, 1) })
	ticks := 0
	eng.Shard(1).Loop().At(5*time.Millisecond, func() { ticks++ })
	eng.Run(10 * time.Millisecond)

	snap := make([]string, eng.N())
	for i := range snap {
		snap[i] = fmt.Sprintf("%v %d %v", eng.Shard(i).Loop().Metrics().Snapshot().Counters,
			eng.Shard(i).Loop().Len(), eng.Shard(i).Loop().Now())
	}
	eng.Run(10 * time.Millisecond)
	if ticks != 1 {
		t.Fatalf("event ran %d times across re-entrant Run calls, want 1", ticks)
	}
	for i := range snap {
		got := fmt.Sprintf("%v %d %v", eng.Shard(i).Loop().Metrics().Snapshot().Counters,
			eng.Shard(i).Loop().Len(), eng.Shard(i).Loop().Now())
		if got != snap[i] {
			t.Errorf("shard %d state changed on re-entrant Run:\nbefore: %s\nafter:  %s",
				i, snap[i], got)
		}
	}
}

// TestSingleShardCoordinatorNoOp: a single-shard engine with no edges
// runs inline — one inclusive window covering the whole span, no
// goroutines, no extra machinery.
func TestSingleShardCoordinatorNoOp(t *testing.T) {
	until := 100 * time.Millisecond
	eng := shard.NewEngine(9, 1)
	loop := eng.Shard(0).Loop()
	fired := 0
	loop.At(30*time.Millisecond, func() { fired++ })
	loop.At(until, func() { fired++ })
	eng.Run(until)
	if fired != 2 {
		t.Errorf("%d events fired, want 2 (inclusive horizon)", fired)
	}
	if w := loop.Metrics().Snapshot().Counter("shard/windows"); w != 1 {
		t.Errorf("single shard ran %d windows, want 1", w)
	}
	if loop.Now() != until {
		t.Errorf("clock at %v, want %v", loop.Now(), until)
	}
}

// TestWindowInstrumentation pins the engine's instrument set on an
// echo ring: shard 0 sends every 50ms over a 1ms edge and shard 1
// echoes each message back. Every shard counts the same lockstep
// windows (the span over the lookahead, the last one inclusive), each
// message once on each side, carries the stall counter, and ends with
// an empty backlog.
func TestWindowInstrumentation(t *testing.T) {
	const period, until = 50 * time.Millisecond, 500 * time.Millisecond
	eng := shard.NewEngine(1, 2)
	d := time.Millisecond
	var back *shard.Edge
	fwd := eng.NewEdge(eng.Shard(0), eng.Shard(1), d, func(m shard.Message) {
		back.Send(eng.Shard(1).Loop().Now()+d, m.Payload)
	})
	back = eng.NewEdge(eng.Shard(1), eng.Shard(0), d, func(shard.Message) {})
	loop := eng.Shard(0).Loop()
	var tick func()
	tick = func() {
		fwd.Send(loop.Now()+d, loop.Now())
		if loop.Now()+period < until {
			loop.After(period, tick)
		}
	}
	loop.At(0, tick)
	eng.Run(until)

	const msgs = int64(until / period) // ticks at 0, 50, …, 450 ms
	for i := 0; i < eng.N(); i++ {
		snap := eng.Shard(i).Loop().Metrics().Snapshot()
		if w := snap.Counter("shard/windows"); w != int64(until/d) {
			t.Errorf("shard %d: %d windows, want %d", i, w, int64(until/d))
		}
		if in, out := snap.Counter("shard/msgs_in"), snap.Counter("shard/msgs_out"); in != msgs || out != msgs {
			t.Errorf("shard %d: msgs_in %d msgs_out %d, want %d each", i, in, out, msgs)
		}
		if _, ok := snap.Counters["shard/stall_wall_ns"]; !ok {
			t.Errorf("shard %d: shard/stall_wall_ns missing", i)
		}
		if g := snap.Gauges["shard/mailbox_backlog"]; g.Value != 0 || g.Max < 1 {
			t.Errorf("shard %d: backlog gauge %+v, want final 0 and peak >= 1", i, g)
		}
	}
}

// TestRandomTopologyPlacement is the randomized placement stress: for
// several seeds, a random station graph (a ring, which guarantees a
// cycle, plus random chords) with mixed 1–8ms edge delays and random
// station activity runs with every station on one shard, then with the
// stations mapped at random onto 2–4 shards. Sends land on a 250µs grid
// and every delivery may be relayed onward, so many messages share an
// instant at one station and the (At, edge, seq) tie-break decides
// their order. Every mapping's traces must equal the one-shard run, and
// each mapping's traces and window counts must be the same at
// GOMAXPROCS 1 as at the default. Run with -race this doubles as the
// data-race harness for the coordinator.
func TestRandomTopologyPlacement(t *testing.T) {
	const until = 150 * time.Millisecond
	const grid = 250 * time.Microsecond
	for seed := int64(1); seed <= 3; seed++ {
		topo := rand.New(rand.NewSource(seed))
		nStations := 4 + topo.Intn(5) // 4..8
		type edgeSpec struct {
			src, dst int
			delay    time.Duration
		}
		var edges []edgeSpec
		perm := topo.Perm(nStations)
		for i := range perm {
			edges = append(edges, edgeSpec{perm[i], perm[(i+1)%nStations],
				time.Duration(1+topo.Intn(8)) * time.Millisecond})
		}
		for k := 2 * nStations; k > 0; k-- {
			s, d := topo.Intn(nStations), topo.Intn(nStations)
			if s != d {
				edges = append(edges, edgeSpec{s, d, time.Duration(1+topo.Intn(8)) * time.Millisecond})
			}
		}
		periods := make([]time.Duration, nStations)
		for i := range periods {
			periods[i] = time.Duration(1+topo.Intn(8)) * time.Millisecond
		}
		run := func(mapping []int) ([]string, []int64) {
			nShards := 0
			for _, m := range mapping {
				nShards = max(nShards, m+1)
			}
			eng := shard.NewEngine(seed, nShards)
			traces := make([]string, nStations)
			rngs := make([]*rand.Rand, nStations)
			for i := range rngs {
				rngs[i] = eng.Shard(mapping[i]).Loop().RNG(fmt.Sprintf("station/%d", i))
			}
			type token struct{ from, hops int }
			outBy := make([][]*shard.Edge, nStations)
			// send relays a token from station i over one of its edges
			// chosen at random, due on the grid past the edge's delay.
			send := func(i int, tok token) {
				ed := outBy[i][rngs[i].Intn(len(outBy[i]))]
				now := eng.Shard(mapping[i]).Loop().Now()
				ed.Send(now+ed.MinDelay()+time.Duration(rngs[i].Intn(4))*grid, tok)
			}
			for k, es := range edges {
				ed := eng.NewEdge(eng.Shard(mapping[es.src]), eng.Shard(mapping[es.dst]), es.delay,
					func(m shard.Message) {
						tok := m.Payload.(token)
						traces[es.dst] += fmt.Sprintf("recv e%d from %d hop %d @%v\n",
							k, tok.from, tok.hops, eng.Shard(mapping[es.dst]).Loop().Now())
						if tok.hops < 3 && rngs[es.dst].Intn(2) == 0 {
							send(es.dst, token{tok.from, tok.hops + 1})
						}
					})
				outBy[es.src] = append(outBy[es.src], ed)
			}
			for i := 0; i < nStations; i++ {
				loop := eng.Shard(mapping[i]).Loop()
				var tick func()
				tick = func() {
					traces[i] += fmt.Sprintf("tick @%v\n", loop.Now())
					for n := rngs[i].Intn(4); n > 0; n-- {
						send(i, token{from: i})
					}
					if loop.Now()+periods[i] < until {
						loop.After(periods[i], tick)
					}
				}
				loop.At(time.Duration(i)*grid, tick)
			}
			eng.Run(until)
			windows := make([]int64, nShards)
			for i := range windows {
				windows[i] = eng.Shard(i).Loop().Metrics().Snapshot().Counter("shard/windows")
			}
			return traces, windows
		}
		ref, _ := run(make([]int, nStations))
		for k := 0; k < 3; k++ {
			nShards := 2 + topo.Intn(3) // 2..4
			mapping := make([]int, nStations)
			for i := range mapping {
				mapping[i] = i % nShards // every shard hosts a station
			}
			topo.Shuffle(nStations, func(i, j int) { mapping[i], mapping[j] = mapping[j], mapping[i] })
			got, w := run(mapping)
			prev := runtime.GOMAXPROCS(1)
			got1, w1 := run(mapping)
			runtime.GOMAXPROCS(prev)
			for i := range ref {
				if ref[i] != got[i] {
					t.Fatalf("seed %d mapping %v: station %d trace differs from one shard:\n--- one shard ---\n%s--- mapped ---\n%s",
						seed, mapping, i, ref[i], got[i])
				}
				if got[i] != got1[i] {
					t.Fatalf("seed %d mapping %v: station %d trace differs across GOMAXPROCS", seed, mapping, i)
				}
			}
			if fmt.Sprint(w) != fmt.Sprint(w1) {
				t.Fatalf("seed %d mapping %v: window counts differ across GOMAXPROCS: %v vs %v", seed, mapping, w, w1)
			}
		}
	}
}
