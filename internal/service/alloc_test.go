package service

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"suss/internal/runner"
)

// warmResubmitAllocs is the exact number of heap allocations a fully
// cached resubmission of the seed-1 fig11 matrix (252 cells) makes on
// the cell path, from Submit to the sealed batch: keying the cells,
// probing the cache, parsing the records, batch bookkeeping and the
// fold. replayResubmitAllocs is the same for an identical resubmission
// of a retained batch, which replays it. Every process reads the same
// counts, so one allocation more anywhere on either warm path fails the
// gate. A change that legitimately moves a count reads the new one from
// the test's -v log and edits that one number.
const (
	warmResubmitAllocs   = 59
	replayResubmitAllocs = 4
)

// TestWarmResubmitAllocBudget and TestReplayResubmitAllocBudget are the
// alloc gates of the daemon's two warm paths (part of `make
// allocgate`): once the matrix is cached, a resubmission runs no
// simulation, so what it allocates is the service's own cost.
//
// The cell path is forced by eviction: with one batch retained, two
// spellings of the same matrix take turns, and each one's batch evicts
// the other's, and with it the other's replay entry. The executor's
// retention pass runs after the seal, so each submission waits for it.
func TestWarmResubmitAllocBudget(t *testing.T) {
	s := allocServer(t, Config{Workers: 2, RetainBatches: 1})
	reqs := [2]SubmitRequest{{Kind: "fig11"}, {Kind: "fig11", Iters: 3}}
	submit := func(req SubmitRequest) SubmitResponse {
		resp, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		s.running.Wait()
		return resp
	}
	cells := submit(reqs[0]).Cells // cold: simulates and caches every cell
	turn, cached, evicted := 1, 0, s.evicted.Load()
	got := minMallocs(6, func() {
		cached = submit(reqs[turn]).Cached
		turn ^= 1
	})
	if cached != cells {
		t.Fatalf("warm resubmission found %d of %d cells cached", cached, cells)
	}
	if d := s.evicted.Load() - evicted; d != 6 {
		t.Fatalf("%d batches evicted over 6 resubmissions, want 6: the cell path was not forced", d)
	}
	t.Logf("min mallocs over 6 fully cached submissions of %d cells on the cell path: %d = %.1f per cell (pinned %d)", cells, got, float64(got)/float64(cells), warmResubmitAllocs)
	if got != warmResubmitAllocs {
		t.Fatalf("warm resubmission of %d cells made %d mallocs, pinned %d", cells, got, warmResubmitAllocs)
	}
}

func TestReplayResubmitAllocBudget(t *testing.T) {
	s := allocServer(t, Config{Workers: 2})
	submit := func() SubmitResponse {
		resp, err := s.Submit(SubmitRequest{Kind: "fig11"})
		if err != nil {
			t.Fatal(err)
		}
		<-s.batch(resp.ID).done
		return resp
	}
	cells := submit().Cells
	hits := s.cache.Hits()
	cached := 0
	got := minMallocs(6, func() { cached = submit().Cached })
	if cached != cells || s.cache.Hits()-hits != 6*int64(cells) {
		t.Fatalf("replays found %d of %d cells cached, %d hits", cached, cells, s.cache.Hits()-hits)
	}
	t.Logf("min mallocs over 6 replays of %d cells: %d (pinned %d)", cells, got, replayResubmitAllocs)
	if got != replayResubmitAllocs {
		t.Fatalf("replay of %d cells made %d mallocs, pinned %d", cells, got, replayResubmitAllocs)
	}
}

func allocServer(t *testing.T, cfg Config) *Server {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(context.Background()) })
	return s
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
