// Package fault is the deterministic fault-injection layer: a schedule
// of virtual-time-stamped outage events armed on a sim.Loop and bound,
// through a set of hooks, to the simulation's actuators — carrier
// drops and radio fades on the operator side, registration loss at the
// terminal, graceful network-side LCP terminates, and backhaul link
// flaps.
//
// Determinism is the package's contract. A schedule is either an
// explicit event list or generated up front from a seeded RNG
// (Generate); arming never reads the wall clock or draws from any RNG.
// An empty schedule arms nothing at all — no loop events, no metric
// instruments — so a run with an empty schedule is byte-identical to a
// run without the fault layer (the differential test in
// internal/testbed enforces this; see DESIGN.md §5f).
package fault

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/sim"
)

// Kind selects the fault class an Event injects.
type Kind int

// Fault kinds.
const (
	// KindCarrierDrop hard-closes every active PDP context: terminals
	// observe NO CARRIER. Instantaneous (no Duration).
	KindCarrierDrop Kind = iota
	// KindFade pauses both directions of every active radio bearer for
	// Duration — a deep signal fade.
	KindFade
	// KindRateFade scales every active bearer's rate by Scale for
	// Duration — signal degradation without a full outage.
	KindRateFade
	// KindRegistrationLoss drops the terminal off the network for
	// Duration: the session closes with NO CARRIER, +CREG reports
	// "searching", and dials fail until registration returns.
	KindRegistrationLoss
	// KindPPPTerminate sends a graceful network-side LCP
	// Terminate-Request on every active session. Instantaneous.
	KindPPPTerminate
	// KindLinkFlap raises the backhaul link's loss probability to Loss
	// (default 1: total loss) for Duration.
	KindLinkFlap
)

func (k Kind) String() string {
	switch k {
	case KindCarrierDrop:
		return "carrier-drop"
	case KindFade:
		return "fade"
	case KindRateFade:
		return "rate-fade"
	case KindRegistrationLoss:
		return "registration-loss"
	case KindPPPTerminate:
		return "ppp-terminate"
	case KindLinkFlap:
		return "link-flap"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// windowed reports whether the kind spans a Duration (needs an explicit
// end event) rather than firing instantaneously.
func (k Kind) windowed() bool {
	switch k {
	case KindFade, KindRateFade, KindRegistrationLoss, KindLinkFlap:
		return true
	default:
		return false
	}
}

// Event is one scheduled fault, stamped in virtual time from the start
// of the run.
type Event struct {
	At   time.Duration
	Kind Kind
	// Duration is the fault window for windowed kinds (fade, rate fade,
	// registration loss, link flap); instantaneous kinds ignore it.
	Duration time.Duration
	// Scale is the rate multiplier for KindRateFade, in (0, 1].
	Scale float64
	// Loss is the loss probability for KindLinkFlap, in (0, 1];
	// zero defaults to 1 (total loss).
	Loss float64
}

// Window is one fault's span in virtual time; instantaneous kinds have
// End == Start. Experiment reports carry these so QoS plots can be
// annotated with the injected outages.
type Window struct {
	Kind       Kind
	Start, End time.Duration
}

func (w Window) String() string {
	if w.End == w.Start {
		return fmt.Sprintf("%v@%v", w.Kind, w.Start)
	}
	return fmt.Sprintf("%v@%v+%v", w.Kind, w.Start, w.End-w.Start)
}

// Schedule is a fault scenario: the complete, ordered-or-not list of
// events to inject. The zero value is the empty schedule (no faults).
type Schedule struct {
	Events []Event
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Events) == 0 }

// Validation errors.
var (
	ErrBadEvent = errors.New("fault: bad event")
	ErrOverlap  = errors.New("fault: overlapping windows of the same kind")
)

// Validate checks every event and rejects overlapping windows of the
// same kind (whose start/end pairs would otherwise interleave and leave
// the actuator in the wrong state).
func (s Schedule) Validate() error {
	lastEnd := make(map[Kind]time.Duration)
	for _, ev := range s.sorted() {
		if ev.At < 0 {
			return fmt.Errorf("%w: negative At %v", ErrBadEvent, ev.At)
		}
		if ev.Kind.windowed() && ev.Duration <= 0 {
			return fmt.Errorf("%w: %v needs a positive Duration", ErrBadEvent, ev.Kind)
		}
		if ev.Kind == KindRateFade && (ev.Scale <= 0 || ev.Scale > 1) {
			return fmt.Errorf("%w: rate-fade Scale %v outside (0, 1]", ErrBadEvent, ev.Scale)
		}
		if ev.Kind == KindLinkFlap && (ev.Loss < 0 || ev.Loss > 1) {
			return fmt.Errorf("%w: link-flap Loss %v outside [0, 1]", ErrBadEvent, ev.Loss)
		}
		if ev.Kind.windowed() {
			if ev.At < lastEnd[ev.Kind] {
				return fmt.Errorf("%w: %v at %v overlaps a window ending %v",
					ErrOverlap, ev.Kind, ev.At, lastEnd[ev.Kind])
			}
			lastEnd[ev.Kind] = ev.At + ev.Duration
		}
	}
	return nil
}

// sorted returns the events ordered by (At, Kind); the order events are
// listed in must not matter, so arming normalizes it.
func (s Schedule) sorted() []Event {
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Windows returns the outage windows the schedule will inject, sorted.
// They are static — computed from the schedule, not from the run — so a
// report can be annotated before or after execution.
func (s Schedule) Windows() []Window {
	out := make([]Window, 0, len(s.Events))
	for _, ev := range s.sorted() {
		w := Window{Kind: ev.Kind, Start: ev.At, End: ev.At}
		if ev.Kind.windowed() {
			w.End = ev.At + ev.Duration
		}
		out = append(out, w)
	}
	return out
}

// Horizon returns the end of the last window (zero for the empty
// schedule); runs must extend past it for every fault to fire.
func (s Schedule) Horizon() time.Duration {
	var h time.Duration
	for _, w := range s.Windows() {
		if w.End > h {
			h = w.End
		}
	}
	return h
}

// Hooks bind fault kinds to the simulation's actuators. A nil hook
// makes the corresponding kind a no-op (counted in the fault/skipped
// instrument) — an injector only drives the layers its scenario wired.
type Hooks struct {
	// CarrierDrop hard-closes the active sessions
	// (umts Operator.DropAllSessions).
	CarrierDrop func()
	// FadeStart/FadeEnd pause and resume the radio bearers
	// (Operator.PauseRadio / ResumeRadio).
	FadeStart func()
	FadeEnd   func()
	// RateScale applies a multiplicative bearer-rate factor; the window
	// end calls it with 1 to restore (Operator.ScaleRates).
	RateScale func(scale float64)
	// RegistrationDown/RegistrationUp toggle terminal registration
	// (Terminal.LoseRegistration / Reregister).
	RegistrationDown func()
	RegistrationUp   func()
	// PPPTerminate sends the network-side LCP Terminate-Request
	// (Operator.TerminatePPP).
	PPPTerminate func()
	// LinkDown/LinkUp set and clear the backhaul loss probability
	// (P2PLink.SetLossProb / CrossLink.SetLossProb).
	LinkDown func(loss float64)
	LinkUp   func()
}

// Injector is an armed schedule. It records the injected windows and
// counts events through the loop's metrics registry.
type Injector struct {
	loop    *sim.Loop
	windows []Window

	mInjected *metrics.Counter
	mSkipped  *metrics.Counter
	gActive   *metrics.Gauge
	active    int
}

// Arm validates sched and schedules every event on loop, bound to
// hooks. An empty schedule arms nothing — Arm returns an inert Injector
// without touching the loop or its metrics registry, preserving
// byte-identity with a run that never called Arm.
func Arm(loop *sim.Loop, sched Schedule, hooks Hooks) (*Injector, error) {
	inj := &Injector{loop: loop}
	if sched.Empty() {
		return inj, nil
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	reg := loop.Metrics()
	inj.mInjected = reg.Counter("fault/injected")
	inj.mSkipped = reg.Counter("fault/skipped")
	inj.gActive = reg.Gauge("fault/active")
	inj.windows = sched.Windows()

	for _, ev := range sched.sorted() {
		ev := ev
		start, end := inj.bind(ev, hooks)
		if start == nil {
			loop.At(ev.At, func() { inj.mSkipped.Inc() })
			continue
		}
		loop.At(ev.At, func() {
			inj.mInjected.Inc()
			if ev.Kind.windowed() {
				inj.active++
				inj.gActive.Set(float64(inj.active))
			}
			start()
		})
		if end != nil {
			loop.At(ev.At+ev.Duration, func() {
				inj.active--
				inj.gActive.Set(float64(inj.active))
				end()
			})
		}
	}
	return inj, nil
}

// bind resolves an event to its start and end actions; start == nil
// means the scenario left the kind unwired.
func (inj *Injector) bind(ev Event, h Hooks) (start, end func()) {
	switch ev.Kind {
	case KindCarrierDrop:
		if h.CarrierDrop == nil {
			return nil, nil
		}
		return h.CarrierDrop, nil
	case KindFade:
		if h.FadeStart == nil || h.FadeEnd == nil {
			return nil, nil
		}
		return h.FadeStart, h.FadeEnd
	case KindRateFade:
		if h.RateScale == nil {
			return nil, nil
		}
		return func() { h.RateScale(ev.Scale) }, func() { h.RateScale(1) }
	case KindRegistrationLoss:
		if h.RegistrationDown == nil || h.RegistrationUp == nil {
			return nil, nil
		}
		return h.RegistrationDown, h.RegistrationUp
	case KindPPPTerminate:
		if h.PPPTerminate == nil {
			return nil, nil
		}
		return h.PPPTerminate, nil
	case KindLinkFlap:
		if h.LinkDown == nil || h.LinkUp == nil {
			return nil, nil
		}
		loss := ev.Loss
		if loss == 0 {
			loss = 1
		}
		return func() { h.LinkDown(loss) }, h.LinkUp
	default:
		return nil, nil
	}
}

// Windows returns the armed outage windows (nil for an inert injector).
func (inj *Injector) Windows() []Window {
	return append([]Window(nil), inj.windows...)
}

// Active returns how many windowed faults are currently open.
func (inj *Injector) Active() int { return inj.active }
