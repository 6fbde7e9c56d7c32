package umts

import (
	"errors"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/modem"
	"github.com/onelab/umtslab/internal/ppp"
)

// --- fault-injection hooks ---

func TestRadioDirScaleSlowsService(t *testing.T) {
	loop, d, arrivals := newDir(t, RadioDirConfig{RateBps: 80e3})
	d.setScale(0.5) // effective 40 kbps: 1000 bytes = 200 ms
	d.send(make([]byte, 1000))
	loop.Run()
	if len(*arrivals) != 1 || (*arrivals)[0] != 200*time.Millisecond {
		t.Fatalf("arrivals = %v, want [200ms]", *arrivals)
	}
}

// TestRadioDirScaleOneIsExactIdentity: restoring scale 1 reproduces the
// unscaled serialization time bit-for-bit (multiplying by 1.0 is exact
// in IEEE arithmetic) — the basis of the empty-schedule determinism
// argument.
func TestRadioDirScaleOneIsExactIdentity(t *testing.T) {
	loop, d, arrivals := newDir(t, RadioDirConfig{RateBps: 416e3, BaseDelay: 50 * time.Millisecond})
	d.setScale(0.25)
	d.setScale(1)
	d.send(make([]byte, 1311)) // odd size: exercises the float path
	loop.Run()

	loop2, d2, arrivals2 := newDir(t, RadioDirConfig{RateBps: 416e3, BaseDelay: 50 * time.Millisecond})
	d2.send(make([]byte, 1311))
	loop2.Run()
	if (*arrivals)[0] != (*arrivals2)[0] {
		t.Fatalf("scaled-then-restored arrival %v != untouched arrival %v", (*arrivals)[0], (*arrivals2)[0])
	}
}

// session returns the terminal's live session (test helper).
func activeSession(t *testing.T, op *Operator, term *Terminal) *session {
	t.Helper()
	if term.sess == nil {
		t.Fatal("no active session")
	}
	return term.sess
}

func TestOperatorPauseResumeRadio(t *testing.T) {
	loop, _, op := testOperator(t, Commercial())
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	term.Dial(op.cfg.APN, func(modem.DataBearer, error) {})
	loop.RunUntil(10 * time.Second)
	sess := activeSession(t, op, term)

	op.PauseRadio()
	if !sess.ul.tx.Paused() || !sess.dl.tx.Paused() {
		t.Fatal("PauseRadio did not pause both directions")
	}
	op.ResumeRadio()
	if sess.ul.tx.Paused() || sess.dl.tx.Paused() {
		t.Fatal("ResumeRadio did not resume both directions")
	}
}

func TestOperatorScaleRates(t *testing.T) {
	loop, _, op := testOperator(t, Commercial())
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	term.Dial(op.cfg.APN, func(modem.DataBearer, error) {})
	loop.RunUntil(10 * time.Second)
	sess := activeSession(t, op, term)

	op.ScaleRates(0.25)
	if sess.ul.scale != 0.25 || sess.dl.scale != 0.25 {
		t.Fatalf("scales = %v/%v, want 0.25", sess.ul.scale, sess.dl.scale)
	}
	op.ScaleRates(1)
	if sess.ul.scale != 1 || sess.dl.scale != 1 {
		t.Fatalf("scales = %v/%v after restore", sess.ul.scale, sess.dl.scale)
	}
}

func TestOperatorTerminatePPP(t *testing.T) {
	loop, _, op := testOperator(t, Commercial())
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	client := dialUp(t, loop, op, term, ppp.Credentials{User: "web", Password: "web"}, nil)

	op.TerminatePPP("scheduled maintenance")
	loop.RunUntil(loop.Now() + 30*time.Second)
	if client.Up() {
		t.Fatal("client still up after network-side LCP terminate")
	}
	if op.ActiveSessions() != 0 {
		t.Fatalf("sessions = %d after terminate", op.ActiveSessions())
	}
}

func TestLoseRegistrationClosesSessionAndBlocksDials(t *testing.T) {
	loop, _, op := testOperator(t, Commercial())
	term := op.NewTerminal("i1")
	lost := false
	term.OnCarrierLost = func() { lost = true }
	loop.RunUntil(5 * time.Second)
	term.Dial(op.cfg.APN, func(modem.DataBearer, error) {})
	loop.RunUntil(10 * time.Second)
	if !term.SessionActive() {
		t.Fatal("no session")
	}

	term.LoseRegistration("fault: coverage lost")
	loop.RunUntil(11 * time.Second)
	if !lost {
		t.Fatal("OnCarrierLost not invoked")
	}
	if term.SessionActive() || op.ActiveSessions() != 0 {
		t.Fatal("session survived registration loss")
	}
	if st, _ := term.Registration(); st != modem.RegSearching {
		t.Fatalf("reg state = %v, want searching", st)
	}
	if term.SignalQuality() != 99 {
		t.Fatal("signal must read unknown while unregistered")
	}

	var gotErr error
	term.Dial(op.cfg.APN, func(_ modem.DataBearer, err error) { gotErr = err })
	loop.RunUntil(20 * time.Second)
	if !errors.Is(gotErr, ErrNotRegistered) {
		t.Fatalf("dial while unregistered: err = %v, want ErrNotRegistered", gotErr)
	}

	term.Reregister()
	if st, _ := term.Registration(); st != modem.RegHome {
		t.Fatalf("reg state = %v after Reregister", st)
	}
	var ok bool
	term.Dial(op.cfg.APN, func(b modem.DataBearer, err error) { ok = err == nil && b != nil })
	loop.RunUntil(30 * time.Second)
	if !ok {
		t.Fatal("dial after Reregister failed")
	}
}

// TestRegistrationLossDuringPendingDial: losing coverage while the
// attach is in flight must still complete the dial callback (with
// ErrNotRegistered), or the modem above would hang forever.
func TestRegistrationLossDuringPendingDial(t *testing.T) {
	loop, _, op := testOperator(t, Commercial())
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	var gotErr error
	called := false
	term.Dial(op.cfg.APN, func(_ modem.DataBearer, err error) { called, gotErr = true, err })
	// AttachTime is 2.5 s; drop registration 1 s into the attach.
	loop.After(time.Second, func() { term.LoseRegistration("fault") })
	loop.RunUntil(20 * time.Second)
	if !called {
		t.Fatal("dial callback never completed")
	}
	if !errors.Is(gotErr, ErrNotRegistered) {
		t.Fatalf("err = %v, want ErrNotRegistered", gotErr)
	}
}

// TestDropAllSessionsOrderIsDeterministic: with several active
// sessions, the drop must proceed in subscriber-address order, not map
// order.
func TestDropAllSessionsOrderIsDeterministic(t *testing.T) {
	loop, _, op := testOperator(t, Commercial())
	var terms []*Terminal
	var order []string
	for _, imsi := range []string{"i1", "i2", "i3", "i4"} {
		imsi := imsi
		term := op.NewTerminal(imsi)
		term.OnCarrierLost = func() { order = append(order, imsi) }
		terms = append(terms, term)
	}
	loop.RunUntil(5 * time.Second)
	for i, term := range terms {
		term.Dial(op.cfg.APN, func(modem.DataBearer, error) {})
		loop.RunUntil(time.Duration(10+5*i) * time.Second)
	}
	if op.ActiveSessions() != 4 {
		t.Fatalf("sessions = %d", op.ActiveSessions())
	}
	op.DropAllSessions("fault")
	// Addresses are allocated in dial order, so address order == dial
	// order; any other sequence means map iteration leaked through.
	want := []string{"i1", "i2", "i3", "i4"}
	if len(order) != 4 {
		t.Fatalf("drops = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drop order = %v, want %v", order, want)
		}
	}
}
