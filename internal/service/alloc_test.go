package service

import (
	"context"
	"runtime"
	"testing"
)

// warmResubmitCellAllocs is the most heap allocations one cell of an
// identical resubmission of the seed-1 fig11 matrix may make, from
// Submit to the sealed batch: keying the cell, probing and reading the
// cache, decoding the record, and the cell's share of batch bookkeeping
// and the fold. The budget is this × 252 cells, under one allocation
// per cell above the count, so one allocation more per cell fails it. A change that legitimately moves
// the count edits this one number (the test logs the exact total: 2 323
// of the budget's 2 520 in every run so far).
const warmResubmitCellAllocs = 10

// TestWarmResubmitAllocBudget is the alloc gate of the daemon's warm
// path (part of `make allocgate`): once the matrix is cached, a
// resubmission runs no simulation, so what it allocates is the
// service's own per-cell cost.
func TestWarmResubmitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(context.Background()) })
	submit := func() SubmitResponse {
		resp, err := s.Submit(SubmitRequest{Kind: "fig11"})
		if err != nil {
			t.Fatal(err)
		}
		<-s.batch(resp.ID).done
		return resp
	}
	cells := submit().Cells // cold: simulates and caches every cell
	cached := 0
	got := minMallocs(6, func() { cached = submit().Cached })
	if cached != cells {
		t.Fatalf("warm resubmission found %d of %d cells cached", cached, cells)
	}
	t.Logf("min mallocs over 6 warm resubmissions: %d = %.1f per cell (budget %d per cell)", got, float64(got)/float64(cells), warmResubmitCellAllocs)
	if budget := uint64(warmResubmitCellAllocs * cells); got > budget {
		t.Fatalf("warm resubmission of %d cells made %d mallocs, budget %d (%d per cell)", cells, got, budget, warmResubmitCellAllocs)
	}
}

// minMallocs returns the fewest heap allocations any one of runs calls
// to f made, process-wide.
func minMallocs(runs int, f func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.Mallocs - before.Mallocs; d < best {
			best = d
		}
	}
	return best
}
