// Package rtclock runs a private netsim.Simulator at wall-clock pace
// for the real-time wire backend (the UDP underlay).
//
// The deterministic transport endpoints only know the simulator's
// virtual clock: timers are netsim events, "now" is Simulator.Now().
// A Reactor owns one simulator on one goroutine and keeps that
// virtual clock pinned to wall time: it sleeps until the earliest
// pending event (Simulator.NextEventAt) or until external work
// arrives (Do), then advances the simulator exactly that far. The
// transport code runs unmodified — an RTO armed 200 virtual
// milliseconds out fires 200 wall milliseconds later.
//
// Concurrency contract: the simulator and everything scheduled on it
// (conns, senders, receivers) are owned by the reactor goroutine.
// All outside access goes through Do/DoWait.
package rtclock

import (
	"sync"
	"time"

	"suss/internal/netsim"
)

// Reactor drives one simulator at wall-clock pace.
type Reactor struct {
	sim   *netsim.Simulator
	epoch time.Time

	funcs chan func()
	done  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// New starts a reactor whose virtual time 0 is the given wall epoch.
// Reactors that share an epoch (the two ends of a pipe) have directly
// comparable virtual clocks.
func New(epoch time.Time) *Reactor {
	r := &Reactor{
		sim:   netsim.NewSimulator(),
		epoch: epoch,
		funcs: make(chan func(), 4096),
		done:  make(chan struct{}),
	}
	r.wg.Add(1)
	go r.loop()
	return r
}

// Sim returns the reactor's simulator. Touch it only from inside
// Do/DoWait (or from event callbacks, which already run on the
// reactor goroutine); storing the pointer is safe anywhere.
func (r *Reactor) Sim() *netsim.Simulator { return r.sim }

// Do runs fn on the reactor goroutine, after advancing the virtual
// clock to wall-now. It never blocks on a stopped reactor.
func (r *Reactor) Do(fn func()) {
	select {
	case r.funcs <- fn:
	case <-r.done:
	}
}

// DoWait is Do, blocking until fn has run (or the reactor stops).
func (r *Reactor) DoWait(fn func()) {
	ch := make(chan struct{})
	r.Do(func() {
		fn()
		close(ch)
	})
	select {
	case <-ch:
	case <-r.done:
	}
}

// Close stops the reactor and waits for its goroutine to exit.
// Pending events never fire; queued Do funcs are discarded.
func (r *Reactor) Close() {
	r.once.Do(func() { close(r.done) })
	r.wg.Wait()
}

func noopEv(_, _ any) {}

// advance runs every event due by wall-now and leaves Now() there. A
// no-op event pins the clock so Now() is exact even when the queue is
// empty (Run alone does not advance a drained simulator's clock).
func (r *Reactor) advance() {
	now := time.Since(r.epoch)
	if r.sim.Now() >= now {
		return
	}
	r.sim.ScheduleEventAt(now, noopEv, nil, nil)
	r.sim.Run(now)
}

func (r *Reactor) loop() {
	defer r.wg.Done()
	for {
		r.advance()
		var tch <-chan time.Time
		var tmr *time.Timer
		if next, ok := r.sim.NextEventAt(); ok {
			d := next - time.Since(r.epoch)
			if d < 0 {
				d = 0
			}
			tmr = time.NewTimer(d)
			tch = tmr.C
		}
		select {
		case fn := <-r.funcs:
			r.advance()
			fn()
		case <-tch:
			// Fall through: the next advance fires the due event.
		case <-r.done:
			if tmr != nil {
				tmr.Stop()
			}
			return
		}
		if tmr != nil {
			tmr.Stop()
		}
	}
}
