package netsim

import (
	"math"
	"time"
)

// Qdisc is a pluggable queue discipline for a Link. Enqueue may refuse
// a packet (tail drop); Dequeue may additionally drop packets it
// decides to sacrifice (AQM) before handing over the next one to
// serialize.
//
// Ownership: the discipline owns queued packets. A refused or dropped
// packet's ownership returns to the Link, which releases it to the
// pool after the drop callback. The dropped slice returned by Dequeue
// is scratch storage owned by the discipline, valid only until the
// next Dequeue call.
type Qdisc interface {
	// Enqueue offers a packet at virtual time now; false means the
	// packet was dropped on arrival.
	Enqueue(now time.Duration, pkt *Packet) bool
	// Dequeue returns the next packet to serialize (nil if empty) and
	// any packets the discipline dropped while deciding.
	Dequeue(now time.Duration) (next *Packet, dropped []*Packet)
	// Bytes returns the bytes currently queued.
	Bytes() int
}

// QdiscFactory builds a discipline for a link's byte limit.
type QdiscFactory func(limitBytes int) Qdisc

// pktFIFO is a FIFO of packets threaded through Packet.next. A packet
// is in at most one queue at a time — its qdisc's, then its link's
// line — so a queue owns no storage: it never grows, copies or
// allocates.
type pktFIFO struct{ head, tail *Packet }

func (q *pktFIFO) push(p *Packet) {
	p.next = nil
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
}

// pop removes and returns the head, nil when the queue is empty.
func (q *pktFIFO) pop() *Packet {
	p := q.head
	if p == nil {
		return nil
	}
	q.head, p.next = p.next, nil
	if q.head == nil {
		q.tail = nil
	}
	return p
}

// dropTail is the default FIFO with a byte-capacity tail drop.
type dropTail struct {
	limit int
	q     pktFIFO
	bytes int
}

// NewDropTail returns the classic FIFO drop-tail discipline.
func NewDropTail(limitBytes int) Qdisc {
	return &dropTail{limit: limitBytes}
}

func (d *dropTail) Enqueue(now time.Duration, pkt *Packet) bool {
	if d.bytes+pkt.Size > d.limit {
		return false
	}
	d.q.push(pkt)
	d.bytes += pkt.Size
	return true
}

func (d *dropTail) Dequeue(now time.Duration) (*Packet, []*Packet) {
	p := d.q.pop()
	if p == nil {
		return nil, nil
	}
	d.bytes -= p.Size
	return p, nil
}

func (d *dropTail) Bytes() int { return d.bytes }

// CoDel implements the Controlled Delay AQM (RFC 8289): when packets'
// sojourn times stay above Target for a full Interval, it enters a
// dropping state and sheds packets at a rate that increases with the
// square root of the drop count, steering the standing queue back to
// Target. The paper's related work (RFC 8290 FQ-CoDel) positions AQMs
// as the network-assisted alternative to SUSS's end-host approach.
type CoDel struct {
	// Target is the acceptable standing queue delay (default 5 ms).
	Target time.Duration
	// Interval is the sliding window for detecting a persistently
	// full queue (default 100 ms).
	Interval time.Duration

	limit int
	q     pktFIFO
	bytes int

	firstAboveTime time.Duration
	dropNext       time.Duration
	count          int
	lastCount      int
	dropping       bool

	// dropScratch backs the dropped slice Dequeue returns; reused
	// across calls so dropping does not allocate.
	dropScratch []*Packet

	// Drops counts AQM (non-tail) drops.
	Drops int
}

// NewCoDel returns a CoDel discipline with RFC 8289 defaults, backed
// by a tail-drop byte limit for overload protection.
func NewCoDel(limitBytes int) Qdisc {
	return &CoDel{
		Target:   5 * time.Millisecond,
		Interval: 100 * time.Millisecond,
		limit:    limitBytes,
	}
}

// CoDelFactory adapts NewCoDel to QdiscFactory (for LinkConfig).
func CoDelFactory(limitBytes int) Qdisc { return NewCoDel(limitBytes) }

func (c *CoDel) Enqueue(now time.Duration, pkt *Packet) bool {
	if c.bytes+pkt.Size > c.limit {
		return false
	}
	pkt.at = now
	c.q.push(pkt)
	c.bytes += pkt.Size
	return true
}

func (c *CoDel) Bytes() int { return c.bytes }

// pop removes and returns the head (nil when empty).
func (c *CoDel) pop() *Packet {
	p := c.q.pop()
	if p != nil {
		c.bytes -= p.Size
	}
	return p
}

// shouldDrop runs the RFC 8289 sojourn test for one packet.
func (c *CoDel) shouldDrop(p *Packet, now time.Duration) bool {
	sojourn := now - p.at
	if sojourn < c.Target || c.bytes <= 1500 {
		c.firstAboveTime = 0
		return false
	}
	if c.firstAboveTime == 0 {
		c.firstAboveTime = now + c.Interval
		return false
	}
	return now >= c.firstAboveTime
}

// controlLaw computes the next drop time.
func (c *CoDel) controlLaw(t time.Duration) time.Duration {
	return t + time.Duration(float64(c.Interval)/math.Sqrt(float64(c.count)))
}

func (c *CoDel) Dequeue(now time.Duration) (*Packet, []*Packet) {
	dropped := c.dropScratch[:0]
	p := c.pop()
	if p == nil {
		c.dropping = false
		return nil, nil
	}
	okToDrop := c.shouldDrop(p, now)

	if c.dropping {
		if !okToDrop {
			c.dropping = false
		} else {
			for c.dropping && now >= c.dropNext {
				dropped = append(dropped, p)
				c.Drops++
				c.count++
				p = c.pop()
				if p == nil {
					c.dropping = false
					c.dropScratch = dropped
					return nil, dropped
				}
				if !c.shouldDrop(p, now) {
					c.dropping = false
				} else {
					c.dropNext = c.controlLaw(c.dropNext)
				}
			}
		}
	} else if okToDrop {
		dropped = append(dropped, p)
		c.Drops++
		c.dropping = true
		// RFC 8289 §5.4: resume close to the last drop rate if we were
		// dropping recently.
		if c.count > 2 && now-c.dropNext < 8*c.Interval {
			c.count = c.count - 2
		} else {
			c.count = 1
		}
		c.lastCount = c.count
		c.dropNext = c.controlLaw(now)
		p = c.pop()
		if p == nil {
			c.dropping = false
			c.dropScratch = dropped
			return nil, dropped
		}
	}
	c.dropScratch = dropped
	return p, dropped
}
