package shard_test

import (
	"fmt"
	"strings"
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
	for _, p := range shard.Policies() {
		eng := shard.NewEngine(1, 2)
		eng.SetPolicy(p)
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
			t.Errorf("policy %v: horizon message delivered at %v, want exactly %v", p, deliveredAt, until)
		}
		for i := 0; i < eng.N(); i++ {
			g := eng.Shard(i).Loop().Metrics().Snapshot().Gauges["shard/mailbox_backlog"]
			if g.Value != 0 {
				t.Errorf("policy %v: shard %d final mailbox backlog = %v, want 0", p, i, g.Value)
			}
		}
	}
}

// TestRunReentryNoOp: calling Run twice with the same horizon must not
// re-execute the inclusive window — metrics (window counts, deliveries)
// and loop state stay exactly as the first call left them.
func TestRunReentryNoOp(t *testing.T) {
	for _, p := range shard.Policies() {
		eng := shard.NewEngine(3, 2)
		eng.SetPolicy(p)
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
			t.Fatalf("policy %v: event ran %d times across re-entrant Run calls, want 1", p, ticks)
		}
		for i := range snap {
			got := fmt.Sprintf("%v %d %v", eng.Shard(i).Loop().Metrics().Snapshot().Counters,
				eng.Shard(i).Loop().Len(), eng.Shard(i).Loop().Now())
			if got != snap[i] {
				t.Errorf("policy %v: shard %d state changed on re-entrant Run:\nbefore: %s\nafter:  %s",
					p, i, snap[i], got)
			}
		}
	}
}

// TestParsePolicy covers the flag round-trip.
func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want shard.Policy
		ok   bool
	}{
		{"global", shard.PolicyGlobal, true},
		{"", shard.PolicyGlobal, true},
		{"dynamic", shard.PolicyDynamic, true},
		{"adaptive", shard.PolicyGlobal, false},
		{"optimistic", shard.PolicyGlobal, false},
		{"fancy", shard.PolicyGlobal, false},
	} {
		got, err := shard.ParsePolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, p := range shard.Policies() {
		if got, err := shard.ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("Policy.String round-trip broken for %v: %v, %v", p, got, err)
		}
	}
	if _, err := shard.ParsePolicy("fancy"); err == nil || !strings.Contains(err.Error(), "(allowed: global, dynamic)") {
		t.Errorf("unknown-policy error must list the allowed set, got %v", err)
	}
}

// TestSetPolicyAfterRunPanics: the window policy is part of the run
// configuration and must be frozen once shards have advanced.
func TestSetPolicyAfterRunPanics(t *testing.T) {
	for _, p := range shard.Policies() {
		func() {
			eng := shard.NewEngine(1, 1)
			eng.Run(time.Millisecond)
			defer func() {
				if recover() == nil {
					t.Errorf("SetPolicy(%v) after Run did not panic", p)
				}
			}()
			eng.SetPolicy(p)
		}()
	}
}
