package netsim

// The pending-timer index: a hierarchical timing wheel (Varghese &
// Lauck) over the slot arena in sim.go. TCP timers are the textbook
// "cancelled before firing" workload — every ACK stops and rearms the
// RTO, every paced packet arms a kick — and the wheel makes all three
// mutations O(1): insert links the slot onto a bucket tail, Stop/Reset
// unlink it, no comparisons anywhere.
//
// Geometry: 5 levels × 64 slots over a 2^12 ns (4.096 µs) tick. A
// level-L bucket is 2^(12+6L) ns wide, so the wheel spans 2^42 ns ≈ 73
// minutes of future; deadlines beyond that go to a small unsorted
// overflow list with a cached minimum (far-future deadlines are rare —
// the longest real timer is a backed-off RTO — so the overflow is a
// safety net, not a hot structure).
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
// Ordering: events fire in (deadline, arm sequence) order, the former
// heap's comparator — golden CSVs depend on that. A level-0 bucket is a
// 4 µs window holding several deadlines in no particular list order
// (direct inserts arrive in arm order, cascaded groups interleave), so
// drainBucket moves the window into the dispatch scratch in (deadline,
// seq) order; Run fires the scratch front to back, advancing the clock
// per entry and stopping short of entries past its horizon.
// Same-deadline FIFO-by-arm-order is a tested invariant, not an
// accident.
//
// The window under dispatch stays open until its scratch is exhausted,
// across a horizon, Halt or StopWhen pause if need be. Two things can
// happen to it meanwhile:
//   - An arm into it (a zero-delay or sub-tick delay from a callback,
//     or any arm between Runs) is placed on the window's level-0 list
//     like any other event, and Run drains that list into the
//     undispatched scratch tail, in key order, before the next fire.
//   - A Stop or Reset of a scratch-resident timer leaves its scratch
//     entry behind. Entries carry the slot generation they were drained
//     at and every release or rearm bumps it, so a stale entry is
//     skipped — including when the Reset lands the timer back in the
//     same window, where it gets a second, live entry.
//
// The relative arm paths and Reset compute now+delay saturated at
// math.MaxInt64 (Simulator.after), so a "never" delay is a far-future
// deadline in the overflow list, not a wrapped negative one that fires
// at once or, behind the cursor, never lets Run return.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"time"
)

const (
	// tickBits sets the level-0 bucket width: 2^12 ns = 4.096 µs.
	tickBits    = 12
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 5
	// wheelSpan is the horizon the wheel can hold relative to its
	// cursor: 2^42 ns ≈ 73.6 minutes.
	wheelSpan = int64(1) << (tickBits + wheelBits*wheelLevels)

	numWheelBuckets = wheelLevels * wheelSlots
	// overflowBucket holds deadlines ≥ wheelSpan past the cursor.
	overflowBucket = numWheelBuckets

	// bucket values outside the list arrays: released / not queued,
	// and drained into the dispatch scratch (Simulator.window).
	bucketNone   = int32(-1)
	bucketWindow = int32(-2)
)

// windowEnt is one dispatch-scratch entry: a slot, the generation it
// had when its window was drained (a mismatch means the timer was
// stopped or reset since), and its dispatch key packed into one word —
// the deadline's offset into the window above the arm sequence — so
// ordering the window compares integers and never chases slots. 2^52
// arms is years of wall clock; seq cannot reach the offset bits.
type windowEnt struct {
	key uint64
	idx int32
	gen uint32
}

// place links a pending slot into the bucket its deadline maps to.
// Precondition: the deadline's tick is >= cur (guaranteed because arms
// clamp to now, now's tick >= cur, and cascades re-place only
// still-pending events).
func (s *Simulator) place(idx int32) {
	s.Placed++
	sl := &s.slots[idx]
	et := int64(sl.at) >> tickBits
	b := int32(overflowBucket)
	if d := uint64(et - s.cur); d < uint64(wheelSpan>>tickBits) {
		lvl := 0
		if d >= wheelSlots {
			lvl = (bits.Len64(d) - 1) / wheelBits
		}
		slot := int(uint64(et)>>(wheelBits*lvl)) & wheelMask
		s.occ[lvl] |= 1 << uint(slot)
		b = int32(lvl*wheelSlots + slot)
	} else if !s.ovDirty && et < s.ovMin {
		s.ovMin = et
	}
	sl.bucket = b
	sl.next = -1
	sl.prev = s.btail[b]
	if sl.prev >= 0 {
		s.slots[sl.prev].next = idx
	} else {
		s.bhead[b] = idx
	}
	s.btail[b] = idx
}

// unlink removes a wheel- or overflow-resident slot from its bucket
// list (timer cancellation or in-place Reset), clearing the occupancy
// bit when the bucket empties. The caller updates sl.bucket.
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
	if b == overflowBucket {
		if int64(sl.at)>>tickBits <= s.ovMin {
			s.ovDirty = true // may have removed the cached minimum
		}
	} else if s.bhead[b] < 0 {
		s.occ[b>>wheelBits] &^= 1 << uint(int(b)&wheelMask)
	}
}

// replaceAll empties bucket b's list and re-places its events, in list
// order, by their deltas to the (just advanced) cursor.
func (s *Simulator) replaceAll(b int) {
	i := s.bhead[b]
	s.bhead[b], s.btail[b] = -1, -1
	for i >= 0 {
		next := s.slots[i].next
		s.place(i)
		i = next
	}
}

// cascade empties a level ≥ 1 bucket into lower levels: the caller has
// set cur >= the bucket's range start, so every delta is below one
// level-L slot width.
func (s *Simulator) cascade(b int) {
	s.Cascades++
	s.occ[b>>wheelBits] &^= 1 << uint(b&wheelMask)
	s.replaceAll(b)
}

// migrateOverflow re-places every overflow event whose delta now fits
// the wheel (the rest re-enter the overflow list, refreshing the
// cached minimum). The caller has advanced cur to the overflow
// minimum, so at least that event migrates.
func (s *Simulator) migrateOverflow() {
	s.Cascades++
	s.ovMin, s.ovDirty = math.MaxInt64, false
	s.replaceAll(overflowBucket)
}

// overflowMin returns the earliest overflow deadline's tick (MaxInt64
// when the list is empty), rescanning the list only after a removal
// invalidated the cached value.
func (s *Simulator) overflowMin() int64 {
	if s.bhead[overflowBucket] < 0 {
		return math.MaxInt64
	}
	if s.ovDirty {
		m := int64(math.MaxInt64)
		for i := s.bhead[overflowBucket]; i >= 0; i = s.slots[i].next {
			if et := int64(s.slots[i].at) >> tickBits; et < m {
				m = et
			}
		}
		s.ovMin, s.ovDirty = m, false
	}
	return s.ovMin
}

// wheelNext locates the window holding the earliest pending deadline,
// cascading higher-level buckets down until it is a level-0 bucket, and
// reports that bucket for the caller to drain, with cur on its tick. It
// reports fire=false when nothing is pending or when every pending
// deadline lies in a window wholly beyond until — the cursor is never
// advanced past until's tick, so deadlines the caller will not fire
// stay reachable and later inserts (clamped to a Now() that may trail
// the horizon) can never land behind the cursor.
func (s *Simulator) wheelNext(until int64) (bucket int, fire bool) {
	until >>= tickBits
	for {
		// Level-0 candidate: exact to the tick, since level 0 holds at
		// most the 64 windows from the cursor on.
		e0 := int64(math.MaxInt64)
		b0 := -1
		if s.occ[0] != 0 {
			ci := int(uint64(s.cur) & wheelMask)
			d := bits.TrailingZeros64(bits.RotateLeft64(s.occ[0], -ci))
			e0 = s.cur + int64(d)
			b0 = (ci + d) & wheelMask
		}

		// Earliest possible tick among levels ≥ 1 and the overflow: for
		// a bucket that's a lower bound (its range start); for the
		// overflow it is exact.
		bestLow := s.overflowMin()
		bestB := overflowBucket
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

		if b0 < 0 && bestLow == math.MaxInt64 {
			return 0, false // nothing pending
		}

		// A deeper structure might hold a deadline in or before window
		// e0: advance the cursor to its range start and pull it apart.
		// Ties (bestLow == e0) must cascade too, so a window's events
		// are all in its bucket before dispatch order is decided.
		if bestLow <= e0 {
			if bestLow > until {
				return 0, false // everything pending is past the horizon
			}
			if bestLow > s.cur {
				s.cur = bestLow
			}
			if bestB == overflowBucket {
				s.migrateOverflow()
			} else {
				s.cascade(bestB)
			}
			continue
		}

		if e0 > until {
			return 0, false
		}
		s.cur = e0
		return b0, true
	}
}

// drainBucket moves level-0 bucket b — the window the cursor is on —
// into the undispatched part of the dispatch scratch, keeping it in
// (deadline, seq) order. Run calls it on an empty scratch to open a
// window, and again whenever the open window's list has collected new
// arms. Direct inserts arrive in arm order and cascades append
// contiguous in-order runs, so for the common window — a few events,
// or one more merged into an open one — insertion sort is near-linear;
// a crowded list is handed to the library sort so a dense window costs
// n log n, not n². Both are allocation-free. Stale entries keep the key
// they were drained with, so they never disturb the order of live ones.
func (s *Simulator) drainBucket(b int) {
	w, lo := s.window, s.windowPos
	old := len(w)
	for i := s.bhead[b]; i >= 0; {
		sl := &s.slots[i]
		w = append(w, windowEnt{uint64(sl.at)&(1<<tickBits-1)<<(64-tickBits) | sl.seq, i, sl.gen})
		i = sl.next
		sl.bucket = bucketWindow
	}
	if len(w)-old > 64 {
		s.WindowSorts++
		slices.SortFunc(w[lo:], func(a, b windowEnt) int { return cmp.Compare(a.key, b.key) })
	} else {
		for k := old; k < len(w); k++ {
			e, j := w[k], k
			for ; j > lo && w[j-1].key > e.key; j-- {
				w[j] = w[j-1]
			}
			w[j] = e
		}
	}
	s.window = w
	s.bhead[b], s.btail[b] = -1, -1
	s.occ[0] &^= 1 << uint(b)
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
	min := time.Duration(math.MaxInt64)
	// A window paused mid-dispatch (horizon, Halt, StopWhen): its first
	// live scratch entry is its earliest. Events armed into the window
	// since are on its bucket list and may be earlier still.
	for _, e := range s.window[s.windowPos:] {
		if sl := &s.slots[e.idx]; sl.gen == e.gen {
			min = sl.at
			break
		}
	}
	for lvl := 0; lvl < wheelLevels; lvl++ {
		occ := s.occ[lvl]
		for occ != 0 {
			slot := bits.TrailingZeros64(occ)
			occ &= occ - 1
			min = s.listMin(lvl*wheelSlots+slot, min)
		}
	}
	return s.listMin(overflowBucket, min), true
}

// listMin returns the smaller of min and the earliest deadline on
// bucket b's list.
func (s *Simulator) listMin(b int, min time.Duration) time.Duration {
	for i := s.bhead[b]; i >= 0; i = s.slots[i].next {
		if at := s.slots[i].at; at < min {
			min = at
		}
	}
	return min
}
