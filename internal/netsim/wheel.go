package netsim

// The pending-timer index: a hierarchical timing wheel (Varghese &
// Lauck) over the slot arena in sim.go, and the only place a pending
// timer lives. TCP timers are the textbook "cancelled before firing"
// workload — every ACK stops and rearms the RTO, every paced packet
// arms a kick — and the wheel keeps all three mutations cheap: insert
// links the slot into a bucket list, Stop/Reset unlink it.
//
// Geometry: 9 levels × 64 slots over a 2^12 ns (4.096 µs) tick. A
// level-L bucket is 2^(12+6L) ns wide. A deadline is at most 2^51
// ticks past the cursor (time.Duration is 63 bits), below 64^9, so
// every deadline, "never" included, has a bucket: levels 5–8 hold
// what lies more than 73 minutes ahead, and no real timer goes there.
//
// Why 2^12 ns: every event a simulated packet causes is 10 µs–300 ms
// ahead of the clock, and the shortest deadline commonly armed is one
// 1500 B serialization at 1 Gbit/s = 12 µs. A finer tick buys nothing
// and costs a descent: at 1 ns (7 levels) such events entered at level
// 2–4 and were unlinked and re-placed once per level on the way down —
// 3.12 place calls, 2.30 wheelNext rounds and 1.38 cascades per fired
// event on the 10k-flow fleet benchmark. At 4 µs a serialization
// deadline lands at level 0 directly and an RTO at level 2: 1.50, 0.78
// and 0.03. Deliveries are not armed as packets propagate: a link arms
// one timer, for the head of its in-flight line, one inter-arrival gap
// ahead (link.go), so they mostly land at level 0 too: 1.17, 0.78 and
// 0.02 (DESIGN.md has every workload).
//
// Deadlines are placed by the delta, in ticks, between their tick and
// the wheel cursor `cur`: level = floor(log64(delta)), slot = the
// level-L digit of the deadline's tick. The cursor trails the tick of
// min(now, every pending deadline) and only moves forward; placement
// deltas are therefore never negative, and at most one "lap" of any
// level is live at a time, so a slot identifies its bucket's tick range
// unambiguously (the one exception — the cursor's own slot at levels
// ≥ 1, which can hold either the lap the cursor sits on or the next one
// — is resolved by peeking a resident deadline). Advancing the cursor
// into a bucket's range cascades the bucket first: its events are
// re-placed by their now-smaller deltas and land at strictly lower
// levels. Cascades are what is left of the per-level descent: only
// events armed more than 64 ticks (262 µs) ahead take one.
//
// Ordering: events fire in (deadline, arm sequence) order — golden CSVs
// depend on that. A level-0 bucket is one 4 µs window, and its list is
// kept in that order: place links a level-0 slot in by walking back
// from the tail, which arms mostly arriving in order keep short.
// Deeper buckets stay unordered until they cascade. Run fires the head
// of the cursor's level-0 list, one event at a time; whatever a
// callback arms into that window is linked in by key and fires in
// turn, and a horizon, Halt or StopWhen stop leaves the rest on the
// list, pending like any other event. Same-deadline FIFO-by-arm-order
// is a tested invariant, not an accident. A dense window armed out of
// order costs O(n²) comparisons; no workload builds one (DESIGN.md).
//
// The relative arm paths and Reset compute now+delay saturated at
// math.MaxInt64 (Simulator.after), so a "never" delay is a deadline at
// the top level, not a wrapped negative one that fires at once or,
// behind the cursor, never lets Run return.

import (
	"math"
	"math/bits"
	"time"
)

const (
	// tickBits sets the level-0 bucket width: 2^12 ns = 4.096 µs.
	tickBits    = 12
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 9

	numWheelBuckets = wheelLevels * wheelSlots

	// bucketNone marks a released slot, on no list.
	bucketNone = int32(-1)
)

// place links a pending slot into the bucket its deadline maps to, a
// level-0 slot at its (deadline, seq) place in the window's list.
// Precondition: the deadline's tick is >= cur (guaranteed because arms
// clamp to now, now's tick >= cur, and cascades re-place only
// still-pending events).
func (s *Simulator) place(idx int32) {
	s.Placed++
	sl := &s.slots[idx]
	et := int64(sl.at) >> tickBits
	d := uint64(et - s.cur)
	lvl := 0
	if d >= wheelSlots {
		lvl = (bits.Len64(d) - 1) / wheelBits
	}
	slot := int(uint64(et)>>(wheelBits*lvl)) & wheelMask
	s.occ[lvl] |= 1 << uint(slot)
	b := int32(lvl*wheelSlots + slot)
	sl.bucket = b
	prev := s.btail[b]
	if lvl == 0 {
		for prev >= 0 {
			p := &s.slots[prev]
			if p.at < sl.at || p.at == sl.at && p.seq < sl.seq {
				break
			}
			prev = p.prev
		}
	}
	sl.prev = prev
	if prev >= 0 {
		sl.next = s.slots[prev].next
		s.slots[prev].next = idx
	} else {
		sl.next = s.bhead[b]
		s.bhead[b] = idx
	}
	if sl.next >= 0 {
		s.slots[sl.next].prev = idx
	} else {
		s.btail[b] = idx
	}
}

// unlink removes a pending slot from its bucket list (a fire, a timer
// cancellation or an in-place Reset), clearing the occupancy bit when
// the bucket empties. The caller updates sl.bucket.
func (s *Simulator) unlink(idx int32) {
	sl := &s.slots[idx]
	b := sl.bucket
	if sl.prev >= 0 {
		s.slots[sl.prev].next = sl.next
	} else {
		s.bhead[b] = sl.next
	}
	if sl.next >= 0 {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.btail[b] = sl.prev
	}
	if s.bhead[b] < 0 {
		s.occ[b>>wheelBits] &^= 1 << uint(int(b)&wheelMask)
	}
}

// cascade empties a level ≥ 1 bucket into lower levels, re-placing its
// events in list order: the caller has set cur >= the bucket's range
// start, so every delta is below one level-L slot width.
func (s *Simulator) cascade(b int) {
	s.Cascades++
	s.occ[b>>wheelBits] &^= 1 << uint(b&wheelMask)
	i := s.bhead[b]
	s.bhead[b], s.btail[b] = -1, -1
	for i >= 0 {
		next := s.slots[i].next
		s.place(i)
		i = next
	}
}

// wheelNext moves the cursor onto the window holding the earliest
// pending deadline, cascading higher-level buckets down until it is
// the cursor's level-0 bucket, and reports whether it found one. It
// reports false when nothing is pending or when every pending deadline
// lies in a window wholly beyond until — the cursor is never advanced
// past until's tick, so deadlines the caller will not fire stay
// reachable and later inserts (clamped to a Now() that may trail the
// horizon) can never land behind the cursor.
func (s *Simulator) wheelNext(until int64) bool {
	until >>= tickBits
	for {
		// Level-0 candidate: exact to the tick, since level 0 holds at
		// most the 64 windows from the cursor on.
		e0 := int64(math.MaxInt64)
		if s.occ[0] != 0 {
			ci := int(uint64(s.cur) & wheelMask)
			e0 = s.cur + int64(bits.TrailingZeros64(bits.RotateLeft64(s.occ[0], -ci)))
		}

		// Earliest possible tick among levels ≥ 1: a lower bound, the
		// range start of the earliest occupied bucket.
		bestLow, bestB := int64(math.MaxInt64), -1
		for lvl := 1; lvl < wheelLevels; lvl++ {
			occ := s.occ[lvl]
			if occ == 0 {
				continue
			}
			shift := uint(wheelBits * lvl)
			cs := s.cur >> shift
			ci := int(uint64(cs) & wheelMask)
			rot := bits.RotateLeft64(occ, -ci)
			d := bits.TrailingZeros64(rot)
			j := (ci + d) & wheelMask
			var low int64
			if d == 0 {
				// The cursor's own slot holds either the lap the cursor
				// sits on (only when cur == the bucket's range start —
				// reached, not yet cascaded) or the next lap. A resident
				// deadline disambiguates; in the next-lap case the first
				// other occupied slot is the earlier bucket.
				low = int64(s.slots[s.bhead[lvl*wheelSlots+j]].at) >> tickBits >> shift << shift
				if rot != 1 {
					d2 := bits.TrailingZeros64(rot &^ 1)
					if low2 := (cs + int64(d2)) << shift; low2 < low {
						j, low = (ci+d2)&wheelMask, low2
					}
				}
			} else {
				low = (cs + int64(d)) << shift
			}
			if low < bestLow {
				bestLow, bestB = low, lvl*wheelSlots+j
			}
		}

		if e0 == math.MaxInt64 && bestB < 0 {
			return false // nothing pending
		}

		// A deeper bucket might hold a deadline in or before window e0:
		// advance the cursor to its range start and pull it apart. Ties
		// (bestLow == e0) must cascade too, so a window's events are
		// all on its list before the first of them fires.
		if bestLow <= e0 {
			if bestLow > until {
				return false // everything pending is past the horizon
			}
			if bestLow > s.cur {
				s.cur = bestLow
			}
			s.cascade(bestB)
			continue
		}

		if e0 > until {
			return false
		}
		s.cur = e0
		return true
	}
}

// NextEventAt returns the exact deadline of the earliest pending
// event, or false when nothing is pending. It walks every bucket list
// — O(pending) — which is fine for its audience: the real-time driver
// (the UDP wire backend's reactor) that runs a private Simulator at
// wall-clock pace and needs to know how long to sleep between
// Run(now) calls. The hot simulation loop never calls it.
func (s *Simulator) NextEventAt() (time.Duration, bool) {
	if s.npending == 0 {
		return 0, false
	}
	first := time.Duration(math.MaxInt64)
	for lvl, occ := range s.occ {
		for occ != 0 {
			b := lvl*wheelSlots + bits.TrailingZeros64(occ)
			occ &= occ - 1
			for i := s.bhead[b]; i >= 0; i = s.slots[i].next {
				first = min(first, s.slots[i].at)
			}
		}
	}
	return first, true
}
