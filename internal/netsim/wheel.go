package netsim

// The pending-timer index: a hierarchical timing wheel (Varghese &
// Lauck) over the slot arena in sim.go, the only place a pending timer
// lives. DESIGN.md ("Event scheduler") gives its geometry's reasons
// and its work per event on every workload.
//
// 9 levels × 64 slots over a 2^12 ns tick: a level-L bucket is
// 2^(12+6L) ns wide, and every deadline, "never" included, has one. A
// deadline goes to level floor(log64(tick - cur)), in the slot of its
// tick's level-L digit. The cursor cur trails min(now, every deadline)
// and only moves forward, so a slot names one lap (the cursor's own
// slot at levels ≥ 1 is resolved by peeking a resident). Moving the
// cursor into a level ≥ 1 bucket's range cascades it to lower levels.
// Events fire in (deadline, arm sequence) order: a level-0 bucket is
// one window whose list place keeps in that order; deeper lists are
// unordered. Outside wheelNext two invariants hold, and keep the
// per-ACK path off the wheel's slow parts:
//   - a level ≥ 1 bucket's range spans each resident deadline, so
//     Timer.Reset leaves a timer whose new deadline stays in it there;
//   - every level ≥ 1 bucket starts past the cursor on a multiple of
//     64 ticks, so a level-0 window in the cursor's own 64-tick block
//     is the next window, found without the level scan.

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
	// Every level ≥ 1 bucket starts past the cursor's 64-tick block, so
	// a level-0 window inside that block is the next one.
	if e0 := s.window0(); e0>>wheelBits == s.cur>>wheelBits && e0 <= until {
		s.cur = e0
		return true
	}
	for {
		e0 := s.window0()

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

// window0 returns the earliest occupied level-0 window, exact to the
// tick since level 0 holds at most the 64 windows from the cursor on,
// or math.MaxInt64 when level 0 is empty.
func (s *Simulator) window0() int64 {
	if s.occ[0] == 0 {
		return math.MaxInt64
	}
	ci := int(uint64(s.cur) & wheelMask)
	return s.cur + int64(bits.TrailingZeros64(bits.RotateLeft64(s.occ[0], -ci)))
}

// NextEventAt returns the exact deadline of the earliest pending
// event, or false when nothing is pending. It walks every bucket list,
// O(pending): it is for the UDP wire backend's reactor, which runs a
// private Simulator at wall-clock pace; the simulation never calls it.
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
