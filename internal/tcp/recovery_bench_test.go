package tcp

import (
	"fmt"
	"testing"
	"time"

	"suss/internal/netsim"
	"suss/internal/wire"
)

// Loss recovery at scale: the per-ACK price of a sender holding
// thousands of lost segments, and of a receiver holding thousands of
// out-of-order ranges, must not grow with that number. The benchmarks
// give the price at each size; the gates pin that the steady state
// allocates nothing. Only the public surface is used, so the file also
// compiles against a tree with a different scoreboard.

// nullConn is a wire.Conn that goes nowhere, on a private clock.
type nullConn struct{ sim *netsim.Simulator }

func newNullConn() *nullConn {
	sim := netsim.NewSimulator()
	// An idle simulator's clock does not move; a far-off event lets
	// tick advance it.
	sim.ScheduleEvent(1000*time.Hour, func(_, _ any) {}, nil, nil)
	return &nullConn{sim: sim}
}

func (c *nullConn) Clock() *netsim.Simulator                  { return c.sim }
func (c *nullConn) SetHandler(wire.Handler)                   {}
func (c *nullConn) Close() error                              { return nil }
func (c *nullConn) Send(_ *wire.Segment, m wire.SendMeta) int { return m.WireSize }
func (c *nullConn) tick(d time.Duration)                      { c.sim.Run(c.sim.Now() + d) }
func (c *nullConn) sack(cum int64, blocks ...[2]int64) wire.Segment {
	a := wire.Segment{SrcPort: 1, DstPort: 1, Ack: uint32(cum), Flags: wire.FlagACK, Window: 65535}
	for _, b := range blocks {
		a.AddSack(wire.SackBlock{Start: uint32(b[0]), End: uint32(b[1])})
	}
	return a
}

// sackRecovery is a sender mid-recovery after an overshoot that lost
// every other segment of a 2×lost-segment window: lost holes, as many
// SACKed islands between them, 64 retransmissions in flight and the
// rest queued. step delivers the ACK the lowest outstanding
// retransmission earns: the cumulative point passes that hole and the
// island above it, and the sender retransmits the next queued hole.
type sackRecovery struct {
	conn *nullConn
	s    *Sender
	cfg  Config
	cum  int64
	left int // holes not yet acknowledged
}

func newSackRecovery(lost int) *sackRecovery {
	cfg := DefaultConfig()
	mss := int64(cfg.MSS)
	ctrl := &fixedCC{cwnd: 2 * int64(lost) * mss}
	r := &sackRecovery{conn: newNullConn(), cfg: cfg, left: lost}
	r.s = NewSender(r.conn, cfg, 1, 1<<40, ctrl)
	r.conn.tick(time.Millisecond)
	r.s.Start()
	// The controller's answer to the loss: a window of 64 segments.
	ctrl.cwnd = 64 * mss
	r.conn.tick(20 * time.Millisecond)
	for k := int64(1); k < 2*int64(lost); k += 2 {
		a := r.conn.sack(0, [2]int64{k * mss, (k + 1) * mss})
		r.s.HandleAck(&a, cfg.AckBytes)
	}
	if st := r.s.Stats(); st.Retransmissions < 60 || st.Retransmissions > 64 || st.LossEvents != 1 {
		panic(fmt.Sprintf("recovery setup: %d retransmissions in flight and %d loss events, want a window of 64 and 1", st.Retransmissions, st.LossEvents))
	}
	return r
}

func (r *sackRecovery) step() {
	mss := int64(r.cfg.MSS)
	r.conn.tick(10 * time.Microsecond)
	r.cum += 2 * mss
	r.left--
	a := r.conn.sack(r.cum, [2]int64{r.cum + mss, r.cum + 2*mss})
	r.s.HandleAck(&a, r.cfg.AckBytes)
}

func BenchmarkSenderSackRecovery(b *testing.B) {
	for _, lost := range []int{2 << 10, 8 << 10, 32 << 10} {
		b.Run(fmt.Sprintf("lost=%dk", lost>>10), func(b *testing.B) {
			b.ReportAllocs()
			r := newSackRecovery(lost)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Stay in the regime being priced: the scoreboard
				// between full and half full.
				if r.left <= lost/2 {
					b.StopTimer()
					r = newSackRecovery(lost)
					b.StartTimer()
				}
				r.step()
			}
		})
	}
}

// TestSackRecoveryAckAllocsZero gates the steady-state recovery ACK
// with a burst of 2048 losses on the scoreboard: cumulative advance,
// SACK merge, loss detection and the retransmission it releases
// allocate nothing.
func TestSackRecoveryAckAllocsZero(t *testing.T) {
	r := newSackRecovery(2048)
	for i := 0; i < 64; i++ { // warm the timer arena
		r.step()
	}
	retrans := r.s.Stats().Retransmissions
	if allocs := testing.AllocsPerRun(500, r.step); allocs > 0 {
		t.Errorf("recovery ACK allocates %.1f allocs/op, want 0", allocs)
	}
	if got := r.s.Stats().Retransmissions - retrans; got < 500 {
		t.Fatalf("%d retransmissions over 501 ACKs: the steps are not recovery ACKs", got)
	}
	if problems := r.s.AuditScoreboard(); len(problems) > 0 {
		t.Fatalf("scoreboard audit: %v", problems)
	}
}

// oooReceiver is a receiver holding ranges out-of-order islands, one
// segment each with one-segment holes between. step fills the lowest
// hole (the prefix swallows an island) and lands a new island on top,
// so the count holds.
type oooReceiver struct {
	r    *Receiver
	cfg  Config
	seg  wire.Segment // scratch, as a conn's is: Handle's argument escapes
	low  int64        // segment number of the lowest hole
	high int64        // segment number of the next new island
}

func newOOOReceiver(ranges int) *oooReceiver {
	o := &oooReceiver{cfg: DefaultConfig()}
	o.r = NewReceiver(newNullConn(), o.cfg, 1, 0)
	for o.high = 1; o.high < 2*int64(ranges); o.high += 2 {
		o.handle(o.high)
	}
	return o
}

func (o *oooReceiver) handle(segNo int64) {
	o.seg = wire.Segment{
		SrcPort: 1, DstPort: 1, Seq: uint32(segNo * int64(o.cfg.MSS)), Flags: wire.FlagACK | wire.FlagPSH,
		Window: 65535, HasTS: true, TSVal: 1, PayloadLen: o.cfg.MSS,
	}
	o.r.Handle(&o.seg, o.cfg.MSS+o.cfg.HeaderBytes)
}

func (o *oooReceiver) step() {
	o.handle(o.low)
	o.handle(o.high)
	o.low += 2
	o.high += 2
}

func BenchmarkReceiverOOO(b *testing.B) {
	for _, ranges := range []int{64, 4 << 10} {
		name := fmt.Sprintf("ranges=%d", ranges)
		if ranges >= 1<<10 {
			name = fmt.Sprintf("ranges=%dk", ranges>>10)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			o := newOOOReceiver(ranges)
			b.ResetTimer()
			for i := 0; i < b.N; i += 2 { // two segments a step
				o.step()
			}
		})
	}
}

// TestReceiverOOOAllocsZero gates the receiver with 4096 ranges held:
// filling a hole, opening a new island and ACKing both allocate
// nothing.
func TestReceiverOOOAllocsZero(t *testing.T) {
	o := newOOOReceiver(4096)
	for i := 0; i < 64; i++ {
		o.step()
	}
	if allocs := testing.AllocsPerRun(500, o.step); allocs > 0 {
		t.Errorf("out-of-order receive allocates %.1f allocs/op, want 0", allocs)
	}
	if got := o.r.CumAck(); got != o.low*int64(o.cfg.MSS) {
		t.Fatalf("cumulative point %d, want %d: the steps are not filling holes", got, o.low*int64(o.cfg.MSS))
	}
}
