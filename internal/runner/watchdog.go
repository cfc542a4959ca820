package runner

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"suss/internal/obs"
)

// stallTailEvents is how many trailing flight-recorder events a
// StallError carries — enough to see what the simulation was doing
// when the watchdog pulled the plug, small enough to read.
const stallTailEvents = 40

// StallError reports a simulation the watchdog killed: it burned its
// wall-clock budget without draining, which in a virtual-time
// simulator means a livelocked event loop (events begetting events at
// a frozen or crawling clock), never a slow scenario.
type StallError struct {
	// Desc identifies the job; RunGuarded's caller fills it, so a cell
	// that does not stall never formats one.
	Desc string
	// Wall is the wall-clock budget that expired.
	Wall time.Duration
	// SimTime is the virtual time the simulation had reached.
	SimTime time.Duration
	// Pending is the event-queue depth at the kill (netsim's Pending: a
	// link's packets in flight count as one event).
	Pending int
	// Events is the tail of the flight-recorder ring at the kill
	// (empty when the job ran unobserved).
	Events []obs.Event
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("watchdog: %s stalled after %v wall (sim time %v, %d events pending)",
		e.Desc, e.Wall, e.SimTime, e.Pending)
}

// Dump renders the event tail for diagnostics (the chaos harness
// writes it into the CI artifact on failure).
func (e *StallError) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nlast %d flight-recorder events:\n", e.Error(), len(e.Events))
	for _, ev := range e.Events {
		b.WriteString(obs.FormatEvent(ev))
		b.WriteByte('\n')
	}
	return b.String()
}

// Engine is the simulation driver RunGuarded watches — in production
// always a *netsim.Simulator, which stops at the next event boundary
// when the StopWhen predicate fires. It is an interface so the
// watchdog tests can substitute a fake and observe the installed
// predicate.
type Engine interface {
	Run(until time.Duration) time.Duration
	Pending() int
	StopWhen(pred func() bool)
	// StopPred reads back the installed StopWhen predicate so the
	// watchdog can compose with a caller's stop condition instead of
	// replacing it.
	StopPred() func() bool
}

// RunGuarded runs sim up to the virtual-time horizon under a
// wall-clock watchdog. If the budget expires before the simulation
// drains, the run is stopped at the next event boundary and a
// *StallError is returned carrying the last flight-recorder events
// from reg (nil reg = no tail) and no Desc. wall <= 0 disables the
// watchdog.
//
// The simulator is single-threaded and its Halt is not safe to call
// from another goroutine, so the expiry crosses goroutines through an
// atomic flag read by a StopWhen predicate — checked after every
// event, including mid-batch.
func RunGuarded(sim Engine, reg *obs.Registry, horizon, wall time.Duration) (time.Duration, error) {
	if wall <= 0 {
		return sim.Run(horizon), nil
	}
	// The caller may already have a semantic stop condition installed
	// (Fig. 9's stop at slow-start exit). The watchdog must not
	// replace it: the run stops when either predicate fires, and the
	// caller's predicate is restored on return.
	caller := sim.StopPred()
	var expired atomic.Bool
	pred := func() bool { return expired.Load() }
	if caller != nil {
		pred = func() bool { return expired.Load() || caller() }
	}
	sim.StopWhen(pred)
	defer sim.StopWhen(caller)
	t := time.AfterFunc(wall, func() { expired.Store(true) })
	defer t.Stop() // also when Run panics: the timer must not outlive the run
	end := sim.Run(horizon)
	if !expired.Load() {
		return end, nil
	}
	se := &StallError{
		Wall:    wall,
		SimTime: end,
		Pending: sim.Pending(),
	}
	if reg != nil {
		reg.Events().Do(func(ev obs.Event) bool {
			se.Events = append(se.Events, ev)
			return true
		})
		if len(se.Events) > stallTailEvents {
			se.Events = se.Events[len(se.Events)-stallTailEvents:]
		}
	}
	return end, se
}
