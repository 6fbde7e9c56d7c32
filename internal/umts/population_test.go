package umts

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/modem"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
)

// probeCfg is the fade-free cell used for differential validation: the
// Microcell profile has no fades and no rate adaptation, so the fluid
// model's assumptions hold exactly.
func probeCfg() Config { return Microcell() }

func probeSpec() PopulationSpec {
	return PopulationSpec{
		RateBps:  200e3, // under the 384 kbps bearer: no drops expected
		Start:    3 * time.Second,
		Duration: 10 * time.Second,
	}
}

// TestPopulationMatchesEnsemble is the declared differential contract:
// the fluid population carries the same utilization as an ensemble of
// real dialed terminals driving identical CBR into their bearers,
// within DefaultPopulationTolerance, and holds the same number of pool
// addresses.
func TestPopulationMatchesEnsemble(t *testing.T) {
	const n = 5
	real, err := MeasureEnsemble(42, probeCfg(), n, probeSpec())
	if err != nil {
		t.Fatalf("ensemble: %v", err)
	}
	model, st, err := MeasurePopulation(42, probeCfg(), n, probeSpec())
	if err != nil {
		t.Fatalf("population: %v", err)
	}
	tol := probeSpec().Tolerance
	if tol == 0 {
		tol = DefaultPopulationTolerance
	}
	if real.Utilization <= 0 || model.Utilization <= 0 {
		t.Fatalf("degenerate utilizations: real %v model %v", real.Utilization, model.Utilization)
	}
	if diff := math.Abs(real.Utilization - model.Utilization); diff > tol {
		t.Fatalf("utilization diverges: real %.4f model %.4f (|diff| %.4f > tol %.4f)",
			real.Utilization, model.Utilization, diff, tol)
	}
	if real.PoolOccupancy != n || model.PoolOccupancy != n {
		t.Fatalf("pool occupancy: real %d model %d, want %d both", real.PoolOccupancy, model.PoolOccupancy, n)
	}
	// The window has closed: the population must have detached
	// and released its addresses after accounting the full span.
	if st.Attached || st.AddrsReserved != 0 || st.ActiveFor <= 0 {
		t.Fatalf("population stats after the window: %+v", st)
	}
}

// TestPopulationOverloadDropsDeterministically drives the model past
// the bearer rate: the backlog must saturate at n × QueueBytes and the
// excess must drop, conserving bytes exactly.
func TestPopulationOverloadDropsDeterministically(t *testing.T) {
	cfg := probeCfg()
	spec := probeSpec()
	spec.RateBps = 600e3 // > 384 kbps uplink: persistent overload
	const n = 3
	_, st, err := MeasurePopulation(1, cfg, n, spec)
	if err != nil {
		t.Fatalf("population: %v", err)
	}
	wantBacklog := float64(n) * float64(cfg.Uplink.QueueBytes)
	if st.BacklogBytes != wantBacklog {
		t.Fatalf("backlog = %v, want saturated %v", st.BacklogBytes, wantBacklog)
	}
	if st.DroppedBytes <= 0 {
		t.Fatal("overload must drop")
	}
	if got := st.CarriedBytes + st.DroppedBytes + st.BacklogBytes; math.Abs(got-st.OfferedBytes) > 1e-6 {
		t.Fatalf("byte conservation: carried+dropped+backlog = %v, offered = %v", got, st.OfferedBytes)
	}
	// Exactly reproducible: the model draws no randomness.
	_, st2, err := MeasurePopulation(99, cfg, n, spec)
	if err != nil {
		t.Fatalf("population rerun: %v", err)
	}
	if st2 != st {
		t.Fatalf("model not bit-deterministic:\n %+v\n %+v", st, st2)
	}
}

// TestPopulationHonorsRadioFaults checks that cell-wide fades and rate
// degradation applied through the operator act on the population like
// on real sessions.
func TestPopulationHonorsRadioFaults(t *testing.T) {
	cfg := probeCfg()
	spec := probeSpec()
	loop, _, op := testOperator(t, cfg)
	pop, err := NewPopulation(op, 2, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Pause the radio for the middle 4 s of the 10 s window.
	loop.At(spec.Start+3*time.Second, op.PauseRadio)
	loop.At(spec.Start+7*time.Second, op.ResumeRadio)
	loop.RunUntil(spec.Start + spec.Duration + time.Second)
	if err := pop.Err(); err != nil {
		t.Fatal(err)
	}
	st := pop.Stats()
	// 200 kbps offered, 384 kbps capacity: the 4 s outage withholds
	// 4s×2×384kbps of capacity, and the accumulated backlog (4s×2×200k/8
	// = 200 kB) exceeds the 2×56 kB queue bound, so some bytes must drop
	// and carried must stay below offered.
	if st.DroppedBytes <= 0 {
		t.Fatalf("paused window should overflow the queue: %+v", st)
	}
	if st.CarriedBytes >= st.OfferedBytes {
		t.Fatalf("carried %v must trail offered %v across an outage", st.CarriedBytes, st.OfferedBytes)
	}

	// Rate scaling: halving capacity under an offered load above half
	// capacity must also shed bytes.
	loop2, _, op2 := testOperator(t, cfg)
	spec2 := spec
	spec2.RateBps = 300e3
	pop2, err := NewPopulation(op2, 2, spec2)
	if err != nil {
		t.Fatal(err)
	}
	loop2.At(spec2.Start, func() { op2.ScaleRates(0.5) }) // 192 kbps effective
	loop2.RunUntil(spec2.Start + spec2.Duration + time.Second)
	if err := pop2.Err(); err != nil {
		t.Fatal(err)
	}
	st2 := pop2.Stats()
	if st2.CarriedBytes >= st2.OfferedBytes || st2.Utilization > 0.51 {
		t.Fatalf("scaled-down cell should cap carried near 50%%: %+v", st2)
	}
}

// TestPopulationPoolExhaustion: a /24 pool cannot attach 300 modeled
// subscribers; the failure surfaces via Err, not a panic mid-run.
func TestPopulationPoolExhaustion(t *testing.T) {
	loop, _, op := testOperator(t, Commercial()) // /24 pool
	spec := probeSpec()
	pop, err := NewPopulation(op, 300, spec)
	if err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(spec.Start + spec.Duration + time.Second)
	if pop.Err() == nil {
		t.Fatal("300 subscribers in a /24 must exhaust the pool")
	}
	if op.PoolOccupancy() != 0 {
		t.Fatalf("failed attach must not leak addresses, occupancy %d", op.PoolOccupancy())
	}
}

// TestPopulationValidatesSpec covers constructor and probe guards.
func TestPopulationValidatesSpec(t *testing.T) {
	_, _, op := testOperator(t, probeCfg())
	if _, err := NewPopulation(op, 0, probeSpec()); err == nil {
		t.Fatal("n=0 must fail")
	}
	s := probeSpec()
	s.RateBps = 0
	if _, err := NewPopulation(op, 1, s); err == nil {
		t.Fatal("RateBps=0 must fail")
	}
	long := probeSpec()
	long.Duration = time.Minute
	if _, err := MeasureEnsemble(1, probeCfg(), 1, long); err == nil {
		t.Fatal("probe windows past the LCP budget must be rejected")
	}
	early := probeSpec()
	early.Start = 0
	if _, err := MeasureEnsemble(1, probeCfg(), 1, early); err == nil {
		t.Fatal("probe starting before registration+attach must be rejected")
	}
}

// --- compact-identity and interning units ---

func TestSubscriberIMSIMatchesLegacyFormat(t *testing.T) {
	for _, tc := range []struct{ cell, sub int }{
		{0, 1}, {0, 9}, {3, 42}, {57, 9999}, {200, 1},
	} {
		want := fmt.Sprintf("22201%03d%04d", tc.cell, tc.sub)
		if got := SubscriberIMSI(tc.cell, tc.sub); got != want {
			t.Fatalf("SubscriberIMSI(%d,%d) = %q, want %q", tc.cell, tc.sub, got, want)
		}
	}
	// Wide subscribers get a 7-digit field; widths cannot collide.
	if got := SubscriberIMSI(0, 10000); got != "222010000010000" {
		t.Fatalf("wide IMSI = %q", got)
	}
	if SubscriberIMSI(0, 10000) == SubscriberIMSI(0, 1000) {
		t.Fatal("wide and narrow subscriber fields must not collide")
	}
}

func TestTerminalIDLazyIMSI(t *testing.T) {
	_, _, op := testOperator(t, probeCfg())
	term := op.NewTerminalID(TerminalID{Cell: 2, Sub: 7})
	if term.imsi != "" {
		t.Fatal("IMSI must not be derived at creation")
	}
	if got := term.IMSI(); got != "222010020007" {
		t.Fatalf("derived IMSI = %q", got)
	}
	if term.ID() != (TerminalID{Cell: 2, Sub: 7}) {
		t.Fatalf("ID = %+v", term.ID())
	}
}

func TestRegistrationCohortBatchesTimers(t *testing.T) {
	loop, _, op := testOperator(t, probeCfg())
	fleet := op.NewTerminalFleet(0, 1, 100)
	var late *Terminal
	loop.After(500*time.Millisecond, func() { late = op.NewTerminalID(TerminalID{Cell: 0, Sub: 101}) })
	loop.RunUntil(op.Config().RegistrationTime)
	for i := range fleet {
		if st, _ := fleet[i].Registration(); st != modem.RegHome {
			t.Fatalf("fleet[%d] not registered at RegistrationTime: %v", i, st)
		}
	}
	// The late terminal is in its own cohort and still searching.
	if st, _ := late.Registration(); st != modem.RegSearching {
		t.Fatal("late terminal must not ride the first cohort's timer")
	}
	loop.RunUntil(500*time.Millisecond + op.Config().RegistrationTime)
	if st, _ := late.Registration(); st != modem.RegHome {
		t.Fatal("late terminal must register on its own cohort timer")
	}
	if got := loop.Metrics().Snapshot().Counter("umts/registrations"); got != 101 {
		t.Fatalf("umts/registrations = %d, want 101", got)
	}
}

func TestInternConfigSharesInstances(t *testing.T) {
	a := InternConfig(CommercialCell(0))
	b := InternConfig(CommercialCell(0))
	if a != b {
		t.Fatal("equal configs must intern to one instance")
	}
	if c := InternConfig(CommercialCell(1)); c == a {
		t.Fatal("distinct configs must not alias")
	}
	// Same name, different radio parameters (ablation shape): distinct.
	mod := CommercialCell(0)
	mod.Uplink.RateBps *= 2
	if d := InternConfig(mod); d == a {
		t.Fatal("interning must key on the full config, not the name")
	}
	// Operators built from equal configs share the interned instance.
	loop := sim.NewLoop(1)
	nwA := netsim.NewNetwork(loop)
	op1 := NewOperator(loop, nwA, FleetCell(3))
	nwB := netsim.NewNetwork(loop)
	op2 := NewOperator(loop, nwB, FleetCell(3))
	if op1.cfg != op2.cfg {
		t.Fatal("operators with equal configs must share one interned *Config")
	}
}

func TestFleetCellWidensPool(t *testing.T) {
	cfg := FleetCell(2)
	if cfg.Pool.Bits() != 16 {
		t.Fatalf("fleet pool = %v, want a /16", cfg.Pool)
	}
	if !cfg.Pool.Contains(cfg.GGSNAddr) {
		t.Fatalf("GGSN %v should sit inside the widened pool %v", cfg.GGSNAddr, cfg.Pool)
	}
	if !strings.Contains(cfg.Name, "cell2") {
		t.Fatalf("fleet cell keeps the per-cell naming: %q", cfg.Name)
	}
	// The allocator must never hand out the GGSN's .0.1 slot: reserve a
	// large batch and check.
	loop := sim.NewLoop(1)
	op := NewOperator(loop, netsim.NewNetwork(loop), cfg)
	addrs, err := op.reserveAddrs(1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if a == cfg.GGSNAddr {
			t.Fatalf("allocator handed out the GGSN address %v", a)
		}
	}
}

func TestNewTerminalFleetContiguous(t *testing.T) {
	_, _, op := testOperator(t, probeCfg())
	fleet := op.NewTerminalFleet(4, 10, 5)
	if len(fleet) != 5 {
		t.Fatalf("fleet size %d", len(fleet))
	}
	for i := range fleet {
		want := TerminalID{Cell: 4, Sub: int32(10 + i)}
		if fleet[i].ID() != want {
			t.Fatalf("fleet[%d].ID = %+v, want %+v", i, fleet[i].ID(), want)
		}
		if fleet[i].op != op {
			t.Fatalf("fleet[%d] not enrolled with the operator", i)
		}
	}
}
