package tcp

import "time"

// segment states for the scoreboard.
type segState uint8

const (
	stNone            segState = iota // not outstanding: never sent, or cumulatively acked
	stInflight                        // sent, outcome unknown
	stSacked                          // selectively acknowledged
	stLost                            // presumed lost, awaiting retransmit
	stRetransInFlight                 // retransmitted, outcome unknown
)

// noSeg terminates the retransmission list.
const noSeg = -1

// slot is the per-segment scoreboard entry. sentAt and delivAtSend
// support RFC-style delivery-rate sampling (BBR): a segment's rate
// sample is (delivered_now − delivAtSend) / (now − sentAt).
type slot struct {
	sentAt      time.Duration
	delivAtSend int64
	prev, next  int32 // neighbours in the retransmission list (valid in stRetransInFlight)
	heapPos     int32 // index in scoreboard.lost (valid in stLost)
	st          segState
	lostBy      uint8 // obs.RetransCause that marked it lost (valid in stLost)
	retrans     bool  // ever retransmitted: rate samples are ambiguous
}

// scoreboard is the sender's per-segment state, addressed by segment
// number (byte sequence / MSS; an int32, so a flow is limited to 2³¹
// segments). Segment n lives at slots[n & (len-1)]: a ring that covers
// the window [sndUna, sndNxt), grows by doubling and is kept for the
// life of the flow. Slots outside the window are zero. Two intrusive
// orderings thread the slots, so no step of loss recovery searches:
//
//   - lost is the retransmit queue, a min-heap of the stLost segment
//     numbers; each such slot knows its heap index, so a segment that is
//     acknowledged while queued leaves in O(log n).
//   - rtxHead..rtxTail links the stRetransInFlight slots in transmit
//     order, oldest first, so re-detecting lost retransmissions stops at
//     the first one still too young to judge.
//
// lossScan is the first-time-loss sweep pointer: every stInflight
// segment at or above sndUna sits at or above it.
type scoreboard struct {
	slots            []slot
	lost             []int32
	rtxHead, rtxTail int32
	lossScan         int32
}

// at returns segment n's slot. The ring must be non-empty.
func (b *scoreboard) at(n int32) *slot { return &b.slots[int(n)&(len(b.slots)-1)] }

// clear zeroes the slots of segments [base, top), the window of a flow
// that stopped before it was fully acknowledged, so the whole ring is
// zero again. It costs the window, not the ring.
func (b *scoreboard) clear(base, top int32) {
	for n := base; n < top; n++ {
		*b.at(n) = slot{}
	}
}

// reserve makes room for segment n in a window that starts at segment
// base, doubling the ring and re-seating the outstanding slots when
// the window has outgrown it.
func (b *scoreboard) reserve(base, n int32) {
	if len(b.slots) > 0 && int(n-base) < len(b.slots) {
		return
	}
	size := max(2*len(b.slots), 16)
	for int(n-base) >= size {
		size *= 2
	}
	grown := make([]slot, size)
	for i := base; i < n; i++ {
		grown[int(i)&(size-1)] = *b.at(i)
	}
	b.slots = grown
}

// --- retransmit queue ---

// pushLost queues segment n for retransmission.
func (b *scoreboard) pushLost(n int32) {
	b.lost = append(b.lost, n)
	b.siftUp(len(b.lost)-1, n)
}

// removeLost takes segment n out of the retransmit queue.
func (b *scoreboard) removeLost(n int32) {
	i := int(b.at(n).heapPos)
	last := len(b.lost) - 1
	m := b.lost[last]
	b.lost = b.lost[:last]
	if i == last {
		return
	}
	if i > 0 && m < b.lost[(i-1)/2] {
		b.siftUp(i, m)
	} else {
		b.siftDown(i, m)
	}
}

func (b *scoreboard) siftUp(i int, n int32) {
	for i > 0 {
		p := (i - 1) / 2
		if b.lost[p] < n {
			break
		}
		b.place(i, b.lost[p])
		i = p
	}
	b.place(i, n)
}

func (b *scoreboard) siftDown(i int, n int32) {
	for {
		c := 2*i + 1
		if c >= len(b.lost) {
			break
		}
		if c+1 < len(b.lost) && b.lost[c+1] < b.lost[c] {
			c++
		}
		if n < b.lost[c] {
			break
		}
		b.place(i, b.lost[c])
		i = c
	}
	b.place(i, n)
}

func (b *scoreboard) place(i int, n int32) {
	b.lost[i] = n
	b.at(n).heapPos = int32(i)
}

// --- retransmissions in flight, in transmit order ---

// rtxAppend links segment n as the most recent retransmission.
func (b *scoreboard) rtxAppend(n int32) {
	sl := b.at(n)
	sl.prev, sl.next = b.rtxTail, noSeg
	if b.rtxTail != noSeg {
		b.at(b.rtxTail).next = n
	} else {
		b.rtxHead = n
	}
	b.rtxTail = n
}

// leaveFlight takes a segment that is about to leave its in-flight
// state off the retransmission list, if it is on it.
func (b *scoreboard) leaveFlight(sl *slot) {
	if sl.st != stRetransInFlight {
		return
	}
	if sl.prev != noSeg {
		b.at(sl.prev).next = sl.next
	} else {
		b.rtxHead = sl.next
	}
	if sl.next != noSeg {
		b.at(sl.next).prev = sl.prev
	} else {
		b.rtxTail = sl.prev
	}
}
