package netsim

// The pending-timer index: a hierarchical timing wheel (Varghese &
// Lauck) over the slot arena in sim.go, replacing the former binary
// heap whose siftUp/siftDown churn dominated hot-path profiles. TCP
// timers are the textbook "cancelled before firing" workload — every
// ACK stops and rearms the RTO, every paced packet arms a kick — and
// the wheel makes all three mutations O(1): insert links the slot
// onto a bucket tail, Stop/Reset unlink it, no comparisons anywhere.
//
// Geometry: 7 levels × 64 slots, 1 ns ticks. Level L buckets are
// 64^L ns wide, so the wheel spans 64^7 ns ≈ 73 minutes of future;
// deadlines beyond that go to a small unsorted overflow list with a
// cached minimum (far-future deadlines are rare — the longest real
// timer is a backed-off RTO — so the overflow is a safety net, not a
// hot structure). Deadlines are placed by their delta to the wheel
// cursor `cur`: level = floor(log64(delta)), slot = the level-L digit
// of the absolute deadline. Level 0 is exact — every event in a
// level-0 bucket shares one deadline — which is what lets Run
// dispatch a bucket as one same-instant batch.
//
// The cursor trails min(now, every pending deadline) and only moves
// forward; placement deltas are therefore never negative, and at most
// one "lap" of any level is live at a time, so a slot identifies its
// bucket's deadline range unambiguously (the one exception — the
// cursor's own slot at levels ≥ 1, which can hold either the lap the
// cursor sits on or the next one — is resolved by peeking a resident
// deadline). Advancing the cursor into a bucket's range cascades the
// bucket first: its events are re-placed by their now-smaller deltas
// and land at strictly lower levels, so every event descends at most
// wheelLevels times — O(1) amortized.
//
// Ordering: events fire in (deadline, arm sequence) order, the former
// heap's comparator — golden CSVs depend on that. Within a level-0
// bucket, direct inserts arrive in arm order but cascaded groups may
// interleave, so drainBucket restores seq order with an insertion sort
// over the (near-sorted) batch before dispatch. Same-deadline
// FIFO-by-arm-order is a tested invariant, not an accident.

import (
	"math"
	"math/bits"
	"time"
)

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 7
	// wheelSpan is the horizon the wheel can hold relative to its
	// cursor: 64^7 ns ≈ 73.6 minutes.
	wheelSpan = int64(1) << (wheelBits * wheelLevels)

	numWheelBuckets = wheelLevels * wheelSlots
	// overflowBucket holds deadlines ≥ wheelSpan past the cursor.
	overflowBucket = numWheelBuckets

	// bucket values outside the list arrays: released / not queued,
	// and drained-for-dispatch (sitting in Simulator.batch).
	bucketNone  = int32(-1)
	bucketBatch = int32(-2)
)

// place links a pending slot into the bucket its deadline maps to.
// Precondition: slots[idx].at >= cur (guaranteed because schedule
// clamps to now, now >= cur, and cascades re-place only still-pending
// events).
func (s *Simulator) place(idx int32) {
	sl := &s.slots[idx]
	e := int64(sl.at)
	b := int32(overflowBucket)
	if d := uint64(e - s.cur); d < uint64(wheelSpan) {
		lvl := 0
		if d >= wheelSlots {
			lvl = (bits.Len64(d) - 1) / wheelBits
		}
		slot := int(uint64(e)>>(wheelBits*lvl)) & wheelMask
		s.occ[lvl] |= 1 << uint(slot)
		b = int32(lvl*wheelSlots + slot)
	} else if !s.ovDirty && e < s.ovMin {
		s.ovMin = e
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
		if int64(sl.at) <= s.ovMin {
			s.ovDirty = true // may have removed the cached minimum
		}
	} else if s.bhead[b] < 0 {
		s.occ[b>>wheelBits] &^= 1 << uint(int(b)&wheelMask)
	}
}

// cascade empties a level ≥ 1 bucket and re-places its events, in
// list order, by their deltas to the (just advanced) cursor. Every
// event lands at a strictly lower level: the caller has set
// cur >= the bucket's range start, so deltas are below one level-L
// slot width.
func (s *Simulator) cascade(b int) {
	i := s.bhead[b]
	s.bhead[b], s.btail[b] = -1, -1
	s.occ[b>>wheelBits] &^= 1 << uint(b&wheelMask)
	for i >= 0 {
		next := s.slots[i].next
		s.place(i)
		i = next
	}
}

// migrateOverflow re-places every overflow event whose delta now fits
// the wheel (the rest re-enter the overflow list, refreshing the
// cached minimum). The caller has advanced cur to the overflow
// minimum, so at least that event migrates.
func (s *Simulator) migrateOverflow() {
	i := s.bhead[overflowBucket]
	s.bhead[overflowBucket], s.btail[overflowBucket] = -1, -1
	s.ovMin, s.ovDirty = math.MaxInt64, false
	for i >= 0 {
		next := s.slots[i].next
		s.place(i)
		i = next
	}
}

// overflowMin returns the earliest overflow deadline, rescanning the
// list only after a removal invalidated the cached value.
func (s *Simulator) overflowMin() int64 {
	if s.bhead[overflowBucket] < 0 {
		return math.MaxInt64
	}
	if s.ovDirty {
		m := int64(math.MaxInt64)
		for i := s.bhead[overflowBucket]; i >= 0; i = s.slots[i].next {
			if at := int64(s.slots[i].at); at < m {
				m = at
			}
		}
		s.ovMin, s.ovDirty = m, false
	}
	return s.ovMin
}

// wheelNext locates the earliest pending deadline, cascading
// higher-level buckets down until that deadline sits in a level-0
// bucket, and reports (deadline, bucket, true) for the caller to
// drain. It reports fire=false when nothing is pending or when every
// pending deadline lies beyond until — the cursor is never advanced
// past until, so deadlines the caller will not fire stay reachable
// and later inserts (clamped to a Now() that may trail the horizon)
// can never land behind the cursor.
func (s *Simulator) wheelNext(until int64) (tick int64, bucket int, fire bool) {
	for {
		// Level-0 candidate: exact, since level-0 buckets are 1 ns wide
		// and hold at most the cursor's current 64-tick window.
		e0 := int64(math.MaxInt64)
		b0 := -1
		if s.occ[0] != 0 {
			ci := int(uint64(s.cur) & wheelMask)
			d := bits.TrailingZeros64(bits.RotateLeft64(s.occ[0], -ci))
			e0 = s.cur + int64(d)
			b0 = (ci + d) & wheelMask
		}

		// Earliest possible deadline among levels ≥ 1 and the overflow:
		// for a bucket that's a lower bound (its range start); for the
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
				low = int64(s.slots[s.bhead[lvl*wheelSlots+j]].at) >> shift << shift
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
			return 0, 0, false // nothing pending
		}

		// A deeper structure might hold a deadline at or before e0:
		// advance the cursor to its range start and pull it apart. Ties
		// (bestLow == e0) must cascade too, so same-deadline events
		// merge into one bucket before dispatch ordering is decided.
		if bestLow <= e0 {
			if bestLow > until {
				return 0, 0, false // everything pending is past the horizon
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
			return 0, 0, false
		}
		s.cur = e0
		return e0, b0, true
	}
}

// drainBucket moves a due level-0 bucket into the dispatch batch and
// restores FIFO arm order. Direct inserts arrive in arm order and
// cascades append contiguous in-order runs, so the batch is a merge
// of a few sorted runs — insertion sort is near-linear here and
// allocation-free.
func (s *Simulator) drainBucket(b int, at time.Duration) {
	s.batch = s.batch[:0]
	s.batchPos = 0
	s.batchAt = at
	for i := s.bhead[b]; i >= 0; {
		sl := &s.slots[i]
		next := sl.next
		sl.bucket = bucketBatch
		s.batch = append(s.batch, i)
		i = next
	}
	s.bhead[b], s.btail[b] = -1, -1
	s.occ[b>>wheelBits] &^= 1 << uint(b&wheelMask)
	bt := s.batch
	for i := 1; i < len(bt); i++ {
		for j := i; j > 0 && s.slots[bt[j]].seq < s.slots[bt[j-1]].seq; j-- {
			bt[j], bt[j-1] = bt[j-1], bt[j]
		}
	}
}

// NextEventAt returns the exact deadline of the earliest pending
// event, or false when nothing is pending. It walks every bucket list
// — O(pending) — which is fine for its audience: real-time drivers
// (the pipe and UDP wire backends) that run a private Simulator at
// wall-clock pace and need to know how long to sleep between
// Run(now) calls. The hot simulation loop never calls it.
func (s *Simulator) NextEventAt() (time.Duration, bool) {
	if s.npending == 0 {
		return 0, false
	}
	// A batch paused mid-dispatch (Halt/StopWhen) fires at batchAt;
	// entries stopped while waiting read as bucketBatch no longer.
	for _, idx := range s.batch[s.batchPos:] {
		if s.slots[idx].bucket == bucketBatch {
			return s.batchAt, true
		}
	}
	min := int64(math.MaxInt64)
	for lvl := 0; lvl < wheelLevels; lvl++ {
		occ := s.occ[lvl]
		for occ != 0 {
			slot := bits.TrailingZeros64(occ)
			occ &= occ - 1
			for i := s.bhead[lvl*wheelSlots+slot]; i >= 0; i = s.slots[i].next {
				if at := int64(s.slots[i].at); at < min {
					min = at
				}
			}
		}
	}
	for i := s.bhead[overflowBucket]; i >= 0; i = s.slots[i].next {
		if at := int64(s.slots[i].at); at < min {
			min = at
		}
	}
	return time.Duration(min), true
}
