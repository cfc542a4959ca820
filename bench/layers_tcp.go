package main

import (
	"fmt"
	"time"

	"suss/internal/bbr"
	"suss/internal/cc"
	"suss/internal/core"
	"suss/internal/cubic"
	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/obs"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/tcp"
	"suss/internal/wire"
)

// stubConn is a wire.Conn that goes nowhere: Send counts the segment
// and drops it. It lets an endpoint be priced without the codec and
// the network under it.
type stubConn struct {
	sim  *netsim.Simulator
	sent int
}

// newStubConn returns a conn on a private clock. The far-off event
// keeps the clock advancing when Run is given a horizon: an idle
// simulator does not move.
func newStubConn() *stubConn {
	sim := netsim.NewSimulator()
	sim.ScheduleEvent(1000*time.Hour, nopEvent, nil, nil)
	return &stubConn{sim: sim}
}

func (c *stubConn) Clock() *netsim.Simulator { return c.sim }
func (c *stubConn) SetHandler(wire.Handler)  {}
func (c *stubConn) Close() error             { return nil }
func (c *stubConn) Send(_ *wire.Segment, meta wire.SendMeta) int {
	c.sent++
	return meta.WireSize
}

// tick moves the conn's clock forward.
func (c *stubConn) tick(d time.Duration) { c.sim.Run(c.sim.Now() + d) }

// fixedWindow is a controller that never changes its mind, so a
// sender can be priced without a congestion controller's own cost.
type fixedWindow struct{ cwnd int64 }

func (fixedWindow) Name() string                                 { return "fixed" }
func (fixedWindow) OnPacketSent(time.Duration, int, int64, bool) {}
func (fixedWindow) OnAck(cc.AckEvent)                            {}
func (fixedWindow) OnLoss(cc.LossEvent)                          {}
func (fixedWindow) OnRTO(time.Duration)                          {}
func (f fixedWindow) CwndBytes() int64                           { return f.cwnd }
func (fixedWindow) PacingRate() float64                          { return 0 }
func (fixedWindow) InSlowStart() bool                            { return false }

func (p *pricer) tcp() {
	cfg := tcp.DefaultConfig()
	mss := int64(cfg.MSS)
	ack := func(cum int64, now time.Duration) wire.Segment {
		return wire.Segment{
			SrcPort: 1, DstPort: 1, Ack: uint32(cum), Flags: wire.FlagACK, Window: 65535,
			HasTS: true, TSVal: wire.WrapTS(now), TSEcr: wire.WrapTS(now - time.Millisecond),
		}
	}
	{
		// In-order cumulative ACKs, window kept full: each ACK retires
		// one segment and releases the next.
		conn := newStubConn()
		s := tcp.NewSender(conn, cfg, 1, 1<<40, fixedWindow{64 * mss})
		conn.tick(time.Millisecond)
		s.Start()
		var cum int64
		p.ns("tcp.sender.ack_ns", timed(func() int {
			conn.tick(time.Millisecond)
			now := conn.sim.Now()
			for i := 0; i < 1024; i++ {
				cum += mss
				a := ack(cum, now)
				s.HandleAck(&a, cfg.AckBytes)
			}
			return 1024
		}))
	}
	// 8192 segments outstanding, the first 2048 lost: one dupACK per
	// surviving segment, each with the SACK block grown by one, then
	// the cumulative ACKs that the retransmissions earn. This is the
	// episode loss_recovery spends its time in.
	p.ns("tcp.sender.ack_sack_ns", func() (int, time.Duration) {
		const window, lost = 8192, 2048
		conn := newStubConn()
		s := tcp.NewSender(conn, cfg, 1, 1<<40, fixedWindow{window * mss})
		conn.tick(time.Millisecond)
		s.Start()
		conn.tick(20 * time.Millisecond)
		now := conn.sim.Now()
		t0 := time.Now()
		for k := int64(lost); k < window; k++ {
			a := ack(0, now)
			a.HasTS = false // dupACKs for old data echo nothing new
			a.NSack = 1
			a.Sack[0] = wire.SackBlock{Start: uint32(lost * mss), End: uint32((k + 1) * mss)}
			s.HandleAck(&a, cfg.AckBytes)
		}
		for k := int64(1); k <= lost; k++ {
			cum := k * mss
			if k == lost {
				cum = window * mss // the hole is filled: everything SACKed is now acked
			}
			a := ack(cum, now)
			a.HasTS = false
			if k < lost {
				a.NSack = 1
				a.Sack[0] = wire.SackBlock{Start: uint32(lost * mss), End: uint32(window * mss)}
			}
			s.HandleAck(&a, cfg.AckBytes)
		}
		d := time.Since(t0)
		if st := s.Stats(); st.Retransmissions < lost-cfg.DupThresh {
			panic(fmt.Sprintf("bench: sack episode retransmitted %d segments, want about %d", st.Retransmissions, lost))
		}
		return window, d
	})

	data := func(seq int64) wire.Segment {
		return wire.Segment{
			SrcPort: 1, DstPort: 1, Seq: uint32(seq), Flags: wire.FlagACK | wire.FlagPSH, Window: 65535,
			HasTS: true, TSVal: 1, PayloadLen: cfg.MSS,
		}
	}
	{
		conn := newStubConn()
		r := tcp.NewReceiver(conn, cfg, 1, 0)
		var seq int64
		p.ns("tcp.receiver.data_ns", timed(func() int {
			for i := 0; i < 1024; i++ {
				d := data(seq)
				r.Handle(&d, cfg.MSS+cfg.HeaderBytes)
				seq += mss
			}
			return 1024
		}))
	}
	{
		// Blocks of 64 segments, odd ones first: 32 separate ranges to
		// SACK, then the even ones merge them back together.
		conn := newStubConn()
		r := tcp.NewReceiver(conn, cfg, 1, 0)
		var base int64
		p.ns("tcp.receiver.ooo_ns", timed(func() int {
			for b := 0; b < 16; b++ {
				for _, first := range []int64{1, 0} {
					for k := first; k < 64; k += 2 {
						d := data(base + k*mss)
						r.Handle(&d, cfg.MSS+cfg.HeaderBytes)
					}
				}
				base += 64 * mss
			}
			return 16 * 64
		}))
	}

	// A whole 16 MB flow over a loss-free path, per segment sent: the
	// transport, the codec, the links and the controller together.
	for _, a := range []struct {
		name string
		algo runner.Algo
	}{{"cubic", runner.Cubic}, {"suss", runner.Suss}, {"bbr", runner.BBR}, {"reno", runner.Reno}} {
		algo := a.algo
		p.ns("tcp.flow.pkt_ns."+a.name, func() (int, time.Duration) {
			t0 := time.Now()
			sim := netsim.NewSimulator()
			path := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
				{Name: "clean", Rate: 1e8, Delay: 10 * time.Millisecond, QueueBytes: 64 << 20},
			}})
			f := tcp.NewFlow(sim, cfg, 1, path.Sender, tcp.NewDemux(path.Sender), path.Receiver, tcp.NewDemux(path.Receiver), 16<<20, nil)
			f.Sender.SetController(runner.NewController(algo, f.Sender))
			f.StartAt(sim, 0)
			sim.Run(10 * time.Minute)
			if !f.Done() {
				panic("bench: clean flow did not complete")
			}
			return f.Sender.Stats().SegmentsSent, time.Since(t0)
		})
	}
}

// --- congestion controllers ---

// stubEnv is the cc.Env a controller is priced against: a clock the
// benchmark moves and a handful of timers it fires.
type stubEnv struct {
	now    time.Duration
	mss    int
	timers []*stubTimer
	kick   func()
}

type stubTimer struct {
	at   time.Duration
	fn   func()
	live bool
}

func (t *stubTimer) Active() bool { return t.live }
func (t *stubTimer) Stop() bool {
	was := t.live
	t.live = false
	return was
}

func (e *stubEnv) Now() time.Duration { return e.now }
func (e *stubEnv) MSS() int           { return e.mss }
func (e *stubEnv) Kick() {
	if e.kick != nil {
		e.kick()
	}
}
func (e *stubEnv) Schedule(d time.Duration, fn func()) cc.Timer {
	t := &stubTimer{at: e.now + d, fn: fn, live: true}
	e.timers = append(e.timers, t)
	return t
}

// nextTimer returns the earliest live timer, dropping dead ones.
func (e *stubEnv) nextTimer() *stubTimer {
	var next *stubTimer
	live := e.timers[:0]
	for _, t := range e.timers {
		if !t.live {
			continue
		}
		live = append(live, t)
		if next == nil || t.at < next.at {
			next = t
		}
	}
	e.timers = live
	return next
}

// steadyAcks prices OnPacketSent + OnAck in congestion avoidance: the
// controller is walked out of slow start by one loss, then fed ACKs of
// a full window at a fixed RTT and delivery rate.
func (p *pricer) steadyAcks(name string, mk func(cc.Env) cc.Controller) {
	env := &stubEnv{mss: 1448}
	ctrl := mk(env)
	const rtt = 20 * time.Millisecond
	var cum, delivered int64
	step := func() {
		env.now += 100 * time.Microsecond
		cwnd := ctrl.CwndBytes()
		ctrl.PacingRate()
		ctrl.OnPacketSent(env.now, env.mss, cum+cwnd, false)
		cum += int64(env.mss)
		delivered += int64(env.mss)
		ctrl.OnAck(cc.AckEvent{
			Now: env.now, AckedBytes: env.mss, CumAck: cum, SndNxt: cum + cwnd, RTT: rtt,
			Inflight: cwnd - int64(env.mss), Delivered: delivered, BW: 1e8,
		})
	}
	for i := 0; i < 4096 && ctrl.InSlowStart(); i++ {
		step()
	}
	ctrl.OnLoss(cc.LossEvent{Now: env.now, Inflight: ctrl.CwndBytes(), LostBytes: env.mss, SndNxt: cum + ctrl.CwndBytes()})
	for i := 0; i < 4096; i++ {
		step()
	}
	if ctrl.InSlowStart() {
		panic("bench: " + name + " never left slow start")
	}
	p.ns(name, timed(func() int {
		for i := 0; i < 1024; i++ {
			step()
		}
		return 1024
	}))
}

// sussSlowStart runs one SUSS slow start against a fluid sender model:
// ACKs return one RTT after their segment, spaced by the bottleneck,
// and pacing ticks release the red window in between. It returns the
// OnAck calls made, and panics if SUSS never accelerated a round.
func sussSlowStart() int {
	const (
		rtt = 100 * time.Millisecond
		gap = 12 * time.Microsecond // 1448 B at 1 Gbit/s
	)
	env := &stubEnv{mss: 1448}
	s := core.New(env, core.DefaultOptions())
	mss := int64(env.mss)
	var (
		sndNxt, cum, inflight int64
		arrivals              []time.Duration // ACK arrival times, FIFO
		lastArrival           time.Duration
		acks                  int
	)
	send := func() {
		for inflight+mss <= s.CwndBytes() {
			if at := s.EarliestSend(env.now); at > env.now {
				env.Schedule(at-env.now, env.Kick)
				return
			}
			s.OnPacketSent(env.now, env.mss, sndNxt, false)
			sndNxt += mss
			inflight += mss
			at := env.now + rtt
			if at < lastArrival+gap {
				at = lastArrival + gap
			}
			lastArrival = at
			arrivals = append(arrivals, at)
		}
	}
	env.kick = send
	send()
	for s.InSlowStart() && s.CwndBytes() < 2048*mss && len(arrivals) > 0 {
		if t := env.nextTimer(); t != nil && t.at <= arrivals[0] {
			env.now = t.at
			t.live = false
			t.fn()
			continue
		}
		env.now = arrivals[0]
		arrivals = arrivals[1:]
		cum += mss
		inflight -= mss
		acks++
		s.OnAck(cc.AckEvent{
			Now: env.now, AckedBytes: env.mss, CumAck: cum, SndNxt: sndNxt, RTT: rtt,
			Inflight: inflight, Delivered: cum, BW: 1e9,
		})
		send()
	}
	if s.Stats().AcceleratedRounds == 0 {
		panic("bench: SUSS did not accelerate a single slow-start round")
	}
	return acks
}

func (p *pricer) cc() {
	p.steadyAcks("cc.cubic.onack_ns", func(e cc.Env) cc.Controller { return cubic.New(e, cubic.DefaultOptions()) })
	p.steadyAcks("cc.suss.onack_ns", func(e cc.Env) cc.Controller { return core.New(e, core.DefaultOptions()) })
	p.steadyAcks("cc.bbr.onack_ns", func(e cc.Env) cc.Controller { return bbr.New(e, bbr.DefaultOptions()) })
	p.steadyAcks("cc.reno.onack_ns", func(e cc.Env) cc.Controller { return cc.NewReno(e, cc.DefaultRenoOptions()) })
	p.ns("cc.suss.onack_ss_ns", timed(sussSlowStart))
}

// --- flight recorder ---

func (p *pricer) obs() {
	fr := obs.NewRegistry(0).Flow(1)
	var t time.Duration
	p.ns("obs.record_ns", timed(func() int {
		for i := 0; i < 1024; i++ {
			t += time.Microsecond
			fr.Record(t, obs.EvSegSent, int64(i), 1448, 0, 0)
		}
		return 1024
	}))

	// One 2 MB cell with the recorder attached to every layer, against
	// the same cell without: the price of turning observation on.
	job := runner.Job{Scenario: scenarios.New(scenarios.GoogleTokyo, netem.LTE4G, 1), Algo: runner.Suss, Size: 2 << 20}
	cell := func(observe bool) float64 {
		j := job
		j.Observe = observe
		t0 := time.Now()
		runner.Download(j)
		return float64(time.Since(t0))
	}
	cell(true)
	var on, off []float64
	for r := 0; r < p.o.layerRounds*4; r++ {
		off = append(off, cell(false))
		on = append(on, cell(true))
	}
	p.vals["obs.observed_ratio"], p.n["obs.observed_ratio"] = median(on)/median(off), len(on)
}
