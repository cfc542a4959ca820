package tcp

// sackRange is a half-open byte range [Start, End): a SACKed interval
// on the sender, a received one on the receiver.
type sackRange struct {
	Start, End int64
}

// rangeSet is a sorted set of disjoint, non-touching half-open byte
// ranges: the sender's SACKed intervals and the receiver's reassembly
// set. Lookups are binary searches and updates edit the slice in
// place, so a burst that leaves thousands of ranges costs O(log n)
// per segment plus a move of whichever side of the edit is shorter —
// and the edits of loss recovery (new data at the top, holes refilled
// from the bottom) sit at an end.
//
// The live ranges are buf[off:]; removing near the head advances off
// instead of moving the tail, and the dead prefix is reclaimed when an
// append would otherwise grow the backing array, so steady-state
// operation allocates nothing.
type rangeSet struct {
	buf []sackRange
	off int
}

// view returns the live ranges in ascending order. The slice is valid
// until the next mutation.
func (s *rangeSet) view() []sackRange { return s.buf[s.off:] }

// reset empties the set, keeping its storage.
func (s *rangeSet) reset() { s.buf, s.off = s.buf[:0], 0 }

// truncate keeps only the first n ranges.
func (s *rangeSet) truncate(n int) { s.buf = s.buf[:s.off+n] }

// search returns the index of the first range whose End is >= seq
// (len when there is none).
func (s *rangeSet) search(seq int64) int {
	v := s.view()
	lo, hi := 0, len(v)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if v[m].End < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// containing returns the range holding byte seq.
func (s *rangeSet) containing(seq int64) (sackRange, bool) {
	v := s.view()
	if i := s.search(seq + 1); i < len(v) && v[i].Start <= seq {
		return v[i], true
	}
	return sackRange{}, false
}

// trimBelow drops everything below seq: whole ranges by advancing the
// head, a straddling one by clamping its start.
func (s *rangeSet) trimBelow(seq int64) {
	for s.off < len(s.buf) && s.buf[s.off].End <= seq {
		s.off++
	}
	if s.off == len(s.buf) {
		s.reset()
	} else if s.buf[s.off].Start < seq {
		s.buf[s.off].Start = seq
	}
}

// add merges iv into the set (ranges that touch are joined) and appends
// to fresh the parts of iv that were not covered before, in ascending
// order. It returns the extended fresh slice.
func (s *rangeSet) add(iv sackRange, fresh []sackRange) []sackRange {
	if iv.End <= iv.Start {
		return fresh
	}
	v := s.view()
	// At or above the top — in-order data, the newest SACKed segment —
	// needs no search.
	if n := len(v); n == 0 || v[n-1].End <= iv.Start {
		if n > 0 && v[n-1].End == iv.Start {
			v[n-1].End = iv.End
		} else {
			s.insert(n, iv)
		}
		return append(fresh, iv)
	}
	lo := s.search(iv.Start)
	hi := lo
	pos := iv.Start
	for ; hi < len(v) && v[hi].Start <= iv.End; hi++ {
		if g := v[hi]; pos < g.Start {
			fresh = append(fresh, sackRange{Start: pos, End: g.Start})
		}
		pos = max(pos, v[hi].End)
	}
	if pos < iv.End {
		fresh = append(fresh, sackRange{Start: pos, End: iv.End})
	}
	if lo == hi {
		s.insert(lo, iv)
		return fresh
	}
	v[lo] = sackRange{Start: min(iv.Start, v[lo].Start), End: max(iv.End, v[hi-1].End)}
	s.remove(lo+1, hi)
	return fresh
}

// insert places r at index i of the view, moving the shorter side.
func (s *rangeSet) insert(i int, r sackRange) {
	n := len(s.buf) - s.off
	if s.off > 0 && i < n-i {
		s.off--
		v := s.view()
		copy(v[:i], v[1:i+1])
		v[i] = r
		return
	}
	if s.off >= n && len(s.buf) == cap(s.buf) {
		// Reclaim the dead prefix instead of growing: it is at least
		// as long as the live part, so the move amortizes.
		s.buf = s.buf[:copy(s.buf, s.view())]
		s.off = 0
	}
	s.buf = append(s.buf, sackRange{})
	v := s.view()
	copy(v[i+1:], v[i:n])
	v[i] = r
}

// remove deletes view indexes [i, j), moving the shorter side.
func (s *rangeSet) remove(i, j int) {
	v := s.view()
	if k := j - i; i < len(v)-j {
		copy(v[k:j], v[:i])
		s.off += k
	} else {
		s.buf = s.buf[:s.off+i+copy(v[i:], v[j:])]
	}
}
