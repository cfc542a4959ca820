package tcp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"suss/internal/netsim"
	"suss/internal/obs"
	"suss/internal/wire"
)

// The differential test: Sender (ring scoreboard) and refSender (the
// map/hole-set/linear implementation it replaced, scoreboard_ref_test.go)
// share one clock and are fed the identical ACK stream, produced by a
// real Receiver behind a hostile channel model that the new sender's
// transmissions drive. After every ACK the two must have emitted the
// same segments at the same instants and hold the same scoreboard.

// diffSend is one emitted segment as the conn saw it.
type diffSend struct {
	at    time.Duration
	seq   uint32
	n     int
	hasTS bool // a retransmission carries no timestamp (Karn's rule)
	tsval uint32
}

// diffConn logs what its endpoint sends and hands each segment to out.
type diffConn struct {
	sim *netsim.Simulator
	log []diffSend
	out func(*wire.Segment, diffSend)
}

func (c *diffConn) Clock() *netsim.Simulator { return c.sim }
func (c *diffConn) SetHandler(wire.Handler)  {}
func (c *diffConn) Close() error             { return nil }
func (c *diffConn) Send(seg *wire.Segment, meta wire.SendMeta) int {
	d := diffSend{c.sim.Now(), seg.Seq, seg.PayloadLen, seg.HasTS, seg.TSVal}
	c.log = append(c.log, d)
	if c.out != nil {
		c.out(seg, d)
	}
	return meta.WireSize
}

// diffFlow describes one flow of a differential run.
type diffFlow struct {
	name   string
	cfg    Config
	offset int64 // first sequence number (MSS-aligned); the flow ends at offset+length
	length int64
	cwnd   int64 // segments
	ops    int   // stop after this many ACKs (0: run to completion)
}

// diffTotals accumulates what the runs exercised, so the test can
// insist the interesting paths were all taken.
type diffTotals struct {
	ops, rtos, tlps, undos, renegs, lossEvents, retrans, wraps, finished, maxLost, hostile int
}

type diffHarness struct {
	t   *testing.T
	rng *rand.Rand
	sim *netsim.Simulator
	fl  diffFlow

	a      *Sender
	b      *refSender
	ac, bc *diffConn
	ra, rb *obs.Registry
	recv   *Receiver

	lastArrival time.Duration
	stallUntil  time.Duration
	burst       int
	ops         int
	tot         *diffTotals
}

const (
	diffOWD    = 10 * time.Millisecond
	diffTxTime = 100 * time.Microsecond
)

func runDiffFlow(t *testing.T, rng *rand.Rand, fl diffFlow, tot *diffTotals) {
	t.Helper()
	sim := netsim.NewSimulator()
	h := &diffHarness{t: t, rng: rng, sim: sim, fl: fl, tot: tot}
	h.ac = &diffConn{sim: sim, out: h.onData}
	h.bc = &diffConn{sim: sim}
	size := fl.offset + fl.length
	h.a = NewSender(h.ac, fl.cfg, 1, size, &fixedCC{cwnd: fl.cwnd * int64(fl.cfg.MSS)})
	h.b = newRefSender(h.bc, fl.cfg, 1, size, &fixedCC{cwnd: fl.cwnd * int64(fl.cfg.MSS)})
	h.a.sndUna, h.a.sndNxt = fl.offset, fl.offset
	h.b.sndUna, h.b.sndNxt = fl.offset, fl.offset
	h.ra, h.rb = obs.NewRegistry(1<<15), obs.NewRegistry(1<<15)
	h.a.AttachRecorder(h.ra.Flow(1))
	h.b.AttachRecorder(h.rb.Flow(1))

	h.recv = NewReceiver(&diffConn{sim: sim, out: h.onAck}, fl.cfg, 1, size)
	if fl.offset > 0 {
		h.recv.ranges.add(sackRange{End: fl.offset}, nil)
		h.recv.seqNear = fl.offset
	}

	sim.StopWhen(func() bool {
		// Both, not either: the twin timers of one instant fire in turn.
		done := (h.a.finished || h.a.failed) && (h.b.finished || h.b.failed)
		return t.Failed() || done || (fl.ops > 0 && h.ops >= fl.ops)
	})
	sim.ScheduleAt(time.Millisecond, func() { h.a.Start(); h.b.Start() })
	sim.Run(time.Hour)
	if t.Failed() {
		return
	}
	h.check(true, true)
	if fl.ops == 0 && !h.a.finished && !h.a.failed {
		t.Fatalf("%s: flow neither finished nor failed after %d ACKs (sndUna %d of %d)", fl.name, h.ops, h.a.sndUna, size)
	}
	st := h.a.Stats()
	tot.ops += h.ops
	tot.rtos += st.RTOs
	tot.tlps += st.TLPs
	tot.undos += st.SpuriousRTOs
	tot.renegs += st.SackRenegs
	tot.lossEvents += st.LossEvents
	tot.retrans += st.Retransmissions
	if h.a.finished {
		tot.finished++
	}
	if fl.offset>>32 != h.a.sndUna>>32 {
		tot.wraps++
	}
}

// onData is the forward channel: the new sender's segment is dropped
// (alone or as the head of a burst), or reaches the receiver after the
// path delay, a serialization queue, possibly a delay spike long enough
// to fire a spurious RTO, and possibly reordering jitter.
func (h *diffHarness) onData(_ *wire.Segment, d diffSend) {
	rng := h.rng
	if h.burst > 0 {
		h.burst--
		return
	}
	switch x := rng.Float64(); {
	case x < 0.01:
		return
	case x < 0.012:
		h.burst = rng.Intn(int(h.fl.cwnd))
		return
	}
	at := max(d.at+diffOWD, h.lastArrival+diffTxTime)
	h.lastArrival = at
	if rng.Intn(4000) == 0 {
		h.stallUntil = at + 250*time.Millisecond + time.Duration(rng.Int63n(int64(800*time.Millisecond)))
	}
	at = max(at, h.stallUntil)
	if rng.Intn(50) == 0 {
		at += time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
	}
	h.sim.ScheduleAt(at, func() { h.arrive(d) })
}

// arrive hands a segment to the receiver, which now and then reneges
// first.
func (h *diffHarness) arrive(d diffSend) {
	if h.rng.Intn(3000) == 0 {
		h.recv.renege()
	}
	h.recv.Handle(&wire.Segment{
		Flags: wire.FlagACK | wire.FlagPSH, Window: 65535,
		Seq: d.seq, PayloadLen: d.n, HasTS: d.hasTS, TSVal: d.tsval,
	}, d.n+h.fl.cfg.HeaderBytes)
}

// onAck is the reverse channel: the receiver's ACK is lost, or reaches
// both senders after the path delay (rarely more, so ACKs reorder),
// sometimes with a SACK block a sane receiver would never send.
func (h *diffHarness) onAck(seg *wire.Segment, _ diffSend) {
	rng := h.rng
	if rng.Intn(50) == 0 {
		return
	}
	ack := *seg
	if rng.Intn(40) == 0 {
		h.tot.hostile++
		mss := uint32(h.fl.cfg.MSS)
		var blk wire.SackBlock
		switch rng.Intn(6) {
		case 0: // beyond anything sent
			blk.Start = ack.Ack + (1 << 28) + uint32(rng.Intn(1<<20))
			blk.End = blk.Start + mss*uint32(1+rng.Intn(8))
		case 1: // below the cumulative point
			blk.End = ack.Ack - mss*uint32(rng.Intn(8))
			blk.Start = blk.End - mss*uint32(1+rng.Intn(8))
		case 2: // inverted
			blk.Start = ack.Ack + mss*uint32(2+rng.Intn(64))
			blk.End = blk.Start - mss
		case 3: // unaligned: covers only part of its edge segments
			blk.Start = ack.Ack + mss*uint32(1+rng.Intn(64)) + uint32(1+rng.Intn(int(mss)-1))
			blk.End = blk.Start + mss*uint32(1+rng.Intn(8)) + uint32(rng.Intn(int(mss)))
		case 4: // duplicate of a block already present, or a stale one
			if ack.NSack > 0 {
				blk = ack.Sack[rng.Intn(ack.NSack)]
			} else {
				blk = wire.SackBlock{Start: ack.Ack, End: ack.Ack + mss}
			}
		case 5: // a lie: claims data above the window's head that never arrived
			blk.Start = ack.Ack + mss*uint32(1+rng.Intn(32))
			blk.End = blk.Start + mss*uint32(1+rng.Intn(32))
		}
		if !ack.AddSack(blk) {
			ack.Sack[rng.Intn(ack.NSack)] = blk
		}
	}
	at := h.sim.Now() + diffOWD
	if rng.Intn(200) == 0 {
		at += time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
	}
	h.sim.ScheduleAt(at, func() {
		a, b := ack, ack
		h.a.HandleAck(&a, h.fl.cfg.AckBytes)
		h.b.HandleAck(&b, h.fl.cfg.AckBytes)
		h.ops++
		h.check(h.ops%64 == 0, h.ops%4096 == 0)
	})
}

// refState maps the reference's segment states onto the ring's.
var refState = [...]segState{refStInflight: stInflight, refStSacked: stSacked, refStLost: stLost, refStRetransInFlight: stRetransInFlight}

// check compares everything observable about the two senders. deep adds
// the invariant audit and the per-segment comparison, events the
// retained event logs (4096 ACKs record fewer events than the rings
// hold, so no record goes uncompared).
func (h *diffHarness) check(deep, events bool) {
	t, a, b := h.t, h.a, h.b
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: after %d ACKs at %v: %s", h.fl.name, h.ops, h.sim.Now(), fmt.Sprintf(format, args...))
	}
	if !slices.Equal(h.ac.log, h.bc.log) {
		i := 0
		for i < len(h.ac.log) && i < len(h.bc.log) && h.ac.log[i] == h.bc.log[i] {
			i++
		}
		fail("emissions differ from the %dth since the last ACK:\n ring      %+v\n reference %+v", i, h.ac.log[i:], h.bc.log[i:])
	}
	h.ac.log, h.bc.log = h.ac.log[:0], h.bc.log[:0]

	type scalars struct {
		sndUna, sndNxt, inflight, delivered, highestSacked, recoveryEnd, frtoUna, frtoNxt int64
		inRecovery, tlpArmed, finished, failed, frtoPending                               bool
		consecRTOs                                                                        int
		reoWnd, srtt, rto, frtoAt                                                         time.Duration
		stats                                                                             SenderStats
		counters                                                                          obs.FlowCounters
	}
	sa := scalars{a.sndUna, a.sndNxt, a.inflight, a.delivered, a.highestSacked, a.recoveryEnd, a.frtoUna, a.frtoNxt,
		a.inRecovery, a.tlpArmed, a.finished, a.failed, a.frtoPending, a.consecRTOs, a.reoWnd, a.rtt.SRTT(), a.rtt.RTO(), a.frtoAt,
		a.Stats(), h.ra.Flow(1).C}
	bstats := b.stats
	bstats.Delivered = b.delivered
	sb := scalars{b.sndUna, b.sndNxt, b.inflight, b.delivered, b.highestSacked, b.recoveryEnd, b.frtoUna, b.frtoNxt,
		b.inRecovery, b.tlpArmed, b.finished, b.failed, b.frtoPending, b.consecRTOs, b.reoWnd, b.rtt.SRTT(), b.rtt.RTO(), b.frtoAt,
		bstats, h.rb.Flow(1).C}
	if sa != sb {
		fail("state differs:\n ring      %+v\n reference %+v", sa, sb)
	}

	// The retransmit queue: same size, same head (what trySend resends
	// next) and the reference's entries all lost on the ring; the audit
	// below ties the heap to the lost slots, so the sets are equal.
	// With the same LossDetected count and the same queue after every
	// ACK, each ACK's newly-lost set is the same.
	mss := int64(h.fl.cfg.MSS)
	if len(a.sb.lost) != len(b.lostQueue) {
		fail("retransmit queue: ring %d segments, reference %d", len(a.sb.lost), len(b.lostQueue))
	}
	for i, seg := range b.lostQueue {
		if sl := a.sb.at(a.segNo(seg)); sl.st != stLost || (i == 0 && int64(a.sb.lost[0])*mss != seg) {
			fail("retransmit queue entry %d: reference %d, ring state %d, ring head %d", i, seg, sl.st, int64(a.sb.lost[0])*mss)
		}
	}
	h.tot.maxLost = max(h.tot.maxLost, len(a.sb.lost))
	if !slices.Equal(a.sacked.view(), b.sackedIv) {
		fail("SACK interval set: ring %v, reference %v", a.sacked.view(), b.sackedIv)
	}
	if !deep {
		return
	}

	if problems := a.AuditScoreboard(); len(problems) > 0 {
		fail("scoreboard audit: %v", problems)
	}
	outstanding := 0
	for n := a.segNo(a.sndUna); int64(n)*mss < a.sndNxt; n++ {
		sl, seg := a.sb.at(n), int64(n)*mss
		info, ok := b.state[seg]
		if !ok {
			if sl.st != stNone {
				fail("segment %d: ring state %d, reference has none", seg, sl.st)
			}
			continue
		}
		outstanding++
		if sl.st != refState[info.st] || sl.sentAt != info.sentAt || sl.delivAtSend != info.delivAtSend || sl.retrans != info.retrans ||
			(sl.st == stLost && sl.lostBy != info.lostBy) {
			fail("segment %d: ring %+v, reference %+v", seg, *sl, info)
		}
	}
	if outstanding != len(b.state) {
		fail("reference holds %d segments, %d of them inside the window", len(b.state), outstanding)
	}
	if !events {
		return
	}
	ea, eb := h.ra.Events().Snapshot(nil), h.rb.Events().Snapshot(nil)
	if !slices.Equal(ea, eb) {
		i := 0
		for i < len(ea) && i < len(eb) && ea[i] == eb[i] {
			i++
		}
		fail("retained event logs (%d and %d records) differ from record %d:\n ring      %v\n reference %v", len(ea), len(eb), i, ea[i:min(i+4, len(ea))], eb[i:min(i+4, len(eb))])
	}
}

// TestScoreboardDifferential drives the ring scoreboard and the
// reference implementation with the same seeded stream of cumulative
// ACKs, fresh, duplicate, unaligned and out-of-window SACK blocks,
// reneging, ACK loss and reordering, burst loss and delay spikes (so
// RTO, TLP and F-RTO undo all fire) — with the adaptive reordering
// window on and off, a short final segment, and a flow whose sequence
// numbers cross the 32-bit wrap.
func TestScoreboardDifferential(t *testing.T) {
	hardened := DefaultConfig()
	hardened.FRTO = true
	hardened.AdaptReoWnd = true
	const mss = 1448
	opsPerFlow := 34000
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		opsPerFlow, seeds = 4000, seeds[:2]
	}
	var tot diffTotals
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		before := tot.ops
		flows := []diffFlow{
			{name: "default", cfg: DefaultConfig(), length: 1 << 40, cwnd: 64 << uint(seed), ops: opsPerFlow},
			{name: "hardened", cfg: hardened, length: 1 << 40, cwnd: 1024 >> uint(seed), ops: opsPerFlow},
			// Starts 3000 segments short of 2³², so the wrap happens
			// with a window in flight.
			{name: "wrap", cfg: hardened, offset: (1<<32)/mss*mss - 3000*mss, length: 1 << 40, cwnd: 700, ops: opsPerFlow},
		}
		for i := 0; i < 6; i++ {
			cfg := DefaultConfig()
			cfg.AdaptReoWnd = i%2 == 1
			cfg.FRTO = i%3 == 2
			flows = append(flows, diffFlow{
				name: fmt.Sprintf("short-tail-%d", i), cfg: cfg,
				length: int64(200+rng.Intn(2000))*mss + int64(1+rng.Intn(mss-1)), cwnd: int64(4 + rng.Intn(300)),
			})
		}
		for _, fl := range flows {
			fl.name = fmt.Sprintf("seed %d %s", seed, fl.name)
			runDiffFlow(t, rng, fl, &tot)
			if t.Failed() {
				return
			}
		}
		// A flow the channel killed early leaves its quota unspent.
		for i := 0; !testing.Short() && tot.ops-before < 100000; i++ {
			runDiffFlow(t, rng, diffFlow{name: fmt.Sprintf("seed %d top-up-%d", seed, i), cfg: hardened, length: 1 << 40, cwnd: 256, ops: 8000}, &tot)
			if t.Failed() {
				return
			}
		}
	}
	t.Logf("exercised: %+v", tot)
	for name, n := range map[string]int{
		"RTO fires": tot.rtos, "TLP fires": tot.tlps, "F-RTO undos": tot.undos, "SACK reneging repairs": tot.renegs,
		"loss events": tot.lossEvents, "retransmissions": tot.retrans, "32-bit wraps": tot.wraps,
		"completed flows": tot.finished, "hostile SACK blocks": tot.hostile,
	} {
		if n == 0 {
			t.Errorf("the run exercised no %s", name)
		}
	}
	if !testing.Short() && tot.maxLost < 500 {
		t.Errorf("largest retransmit queue was %d segments; the run never built a large scoreboard", tot.maxLost)
	}
}

// TestSlotSize pins the scoreboard entry at 32 bytes (two to a cache
// line): the ring is the sender's whole per-segment memory.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 32 {
		t.Fatalf("slot is %d bytes, want 32", got)
	}
}

// TestSenderSurvivesGarbageAcks feeds a live sender ACKs whose
// cumulative point and SACK blocks are arbitrary 32-bit values, near
// the window and far from it — beyond sndNxt included. The ring is
// indexed by what those fields unwrap to, so the property is that
// nothing panics and every access stays inside the window's clamps; a
// peer this hostile forfeits everything else.
func TestSenderSurvivesGarbageAcks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConsecRTOs = 0 // never give up: keep the sender under fire
	acks := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		conn := newNullConn()
		s := NewSender(conn, cfg, 1, 1<<40, &fixedCC{cwnd: int64(1+rng.Intn(300)) * 1448})
		if seed%2 == 0 {
			// Before anything is on the ring, too.
			a := conn.sack(int64(rng.Uint32()), [2]int64{int64(rng.Uint32()), int64(rng.Uint32())})
			s.HandleAck(&a, 60)
		}
		s.Start()
		word := func() int64 {
			if rng.Intn(2) == 0 {
				return s.sndUna + int64(rng.Intn(600*1448)) - 100*1448
			}
			return int64(rng.Uint32())
		}
		for i := 0; i < 5000 && !s.Finished() && !s.Failed(); i++ {
			conn.tick(time.Duration(rng.Intn(int(50 * time.Millisecond))))
			a := conn.sack(word(), [2]int64{word(), word()}, [2]int64{word(), word()})
			s.HandleAck(&a, 60)
			acks++
		}
	}
	if acks < 50000 {
		t.Fatalf("only %d ACKs were processed: the senders died early", acks)
	}
}
