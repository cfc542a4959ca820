package service

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"suss/internal/runner"
)

// warmResubmitAllocs is the exact number of heap allocations an
// identical resubmission of the seed-1 fig11 matrix (252 cells) makes,
// from Submit to the sealed batch: keying the cells, probing the cache,
// parsing the records, batch bookkeeping and the fold. Every process
// reads the same count, so one allocation more anywhere on the warm
// path fails the gate. A change that legitimately moves the count reads
// the new one from the test's -v log and edits this one number.
const warmResubmitAllocs = 55

// TestWarmResubmitAllocBudget is the alloc gate of the daemon's warm
// path (part of `make allocgate`): once the matrix is cached, a
// resubmission runs no simulation, so what it allocates is the
// service's own cost.
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
	t.Logf("min mallocs over 6 warm resubmissions of %d cells: %d = %.1f per cell (pinned %d)", cells, got, float64(got)/float64(cells), warmResubmitAllocs)
	if got != warmResubmitAllocs {
		t.Fatalf("warm resubmission of %d cells made %d mallocs, pinned %d", cells, got, warmResubmitAllocs)
	}
}

// TestJobCellCodecAllocs: parsing an error-free cell record, and
// appending one to a buffer with room for it, allocate nothing.
func TestJobCellCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	r := runner.Result{DownloadResult: runner.DownloadResult{
		FCT: 1234567 * time.Microsecond, LossRate: 0.0123456789, Delivered: 8 << 20, Segments: 5800,
		Retrans: 42, RTOs: 1, Drops: 40, PeakQueue: 311, MaxG: 3, AccelRounds: 2, Completed: true,
	}}
	rec, err := appendJobCell(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(rec))
	if n := testing.AllocsPerRun(100, func() { buf, _ = appendJobCell(buf[:0], r) }); n != 0 {
		t.Errorf("appendJobCell into a sized buffer: %v allocations, want 0", n)
	}
	j := runner.Job{Algo: runner.Suss, Size: 8 << 20}
	if n := testing.AllocsPerRun(100, func() { r, err = parseJobCell(j, rec) }); n != 0 || err != nil {
		t.Errorf("parseJobCell: %v allocations (err %v), want 0", n, err)
	}
}

// minMallocs returns the fewest heap allocations any one of runs calls
// to f made, process-wide: the minimum discards whatever the runtime
// and test harness allocated alongside. The collector is off while it
// measures: a collection empties every sync.Pool (fmt's printer cache
// among them), and the refill would land in one process's count and not
// in another's.
func minMallocs(runs int, f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
