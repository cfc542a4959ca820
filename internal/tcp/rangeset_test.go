package tcp

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRangeSetAgainstBitmap drives add, trimBelow, truncate and
// containing with random operations over a small universe and checks
// the set, and the newly-covered parts add reports, against one bool
// per byte. Small universes with many operations reach every edit
// path: both sides of insert and remove, the head advance and the
// reclaiming of the dead prefix.
func TestRangeSetAgainstBitmap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := 16 + rng.Intn(400)
		have := make([]bool, universe)
		var s rangeSet
		var floor int // trimBelow only ever moves up
		model := func() (m []sackRange) {
			for i := 0; i < universe; i++ {
				if have[i] && (i == 0 || !have[i-1]) {
					j := i
					for j < universe && have[j] {
						j++
					}
					m = append(m, sackRange{Start: int64(i), End: int64(j)})
				}
			}
			return m
		}
		for op := 0; op < 2000; op++ {
			switch x := rng.Intn(100); {
			case x < 90:
				// Short ranges keep the set fragmented.
				a := rng.Intn(universe)
				b := min(universe, a+rng.Intn(6))
				var wantFresh []sackRange
				for i := a; i < b; i++ {
					if !have[i] {
						if n := len(wantFresh); n > 0 && wantFresh[n-1].End == int64(i) {
							wantFresh[n-1].End++
						} else {
							wantFresh = append(wantFresh, sackRange{Start: int64(i), End: int64(i + 1)})
						}
						have[i] = true
					}
				}
				fresh := s.add(sackRange{Start: int64(a), End: int64(b)}, nil)
				if !slices.Equal(fresh, wantFresh) {
					t.Fatalf("seed %d op %d: add [%d,%d) reported fresh %v, want %v", seed, op, a, b, fresh, wantFresh)
				}
			case x < 96:
				floor = max(floor, rng.Intn(universe))
				for i := 0; i < floor; i++ {
					have[i] = false
				}
				s.trimBelow(int64(floor))
			case x < 98:
				keep := rng.Intn(len(s.view()) + 1)
				m := model()
				for _, g := range m[keep:] {
					for i := g.Start; i < g.End; i++ {
						have[i] = false
					}
				}
				s.truncate(keep)
			default:
				s.reset()
				clear(have)
			}
			// The bitmap cannot tell two touching ranges from one, and
			// neither may the set: it joins them.
			if m := model(); !slices.Equal(s.view(), m) {
				t.Fatalf("seed %d op %d: set %v, bitmap %v", seed, op, s.view(), m)
			}
			q := rng.Intn(universe)
			g, ok := s.containing(int64(q))
			if ok != have[q] || (ok && (g.Start > int64(q) || int64(q) >= g.End)) {
				t.Fatalf("seed %d op %d: containing(%d) = %v %v, bitmap says %v", seed, op, q, g, ok, have[q])
			}
		}
	}
}
