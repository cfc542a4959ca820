package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"suss/internal/runner"
)

// replayed reports whether batch id was served from the replay index:
// a replayed batch has no executor, so no context.
func replayed(t *testing.T, s *Server, id string) bool {
	t.Helper()
	b := s.batch(id)
	if b == nil {
		t.Fatalf("batch %s is not registered", id)
	}
	return b.ctx == nil
}

// cellsDetail is GET /v1/jobs/{id}?cells=1's per-cell list.
func (c *client) cellsDetail(id string) []CellInfo {
	c.t.Helper()
	_, raw := c.get("/v1/jobs/" + id + "?cells=1")
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		c.t.Fatal(err)
	}
	return st.Detail
}

// statsDelta is what one submission moved in /v1/stats.
type statsDelta struct{ hits, misses, cellRuns, simRuns int64 }

func (c *client) delta(submit func() SubmitResponse) (SubmitResponse, statsDelta) {
	c.t.Helper()
	before := c.stats()
	resp := submit()
	c.result(resp.ID)
	after := c.stats()
	return resp, statsDelta{after.CacheHits - before.CacheHits, after.CacheMisses - before.CacheMisses,
		after.CellRuns - before.CellRuns, after.SimRuns - before.SimRuns}
}

// replayCases are, per kind, a request and another spelling of the same
// cells (a field the kind ignores or defaults), which the index keeps
// apart: the second takes the cell path, fully cached.
var replayCases = []struct{ req, alt SubmitRequest }{
	{SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 61},
		SubmitRequest{Kind: "fig11", Server: "google-tokyo", Sizes: []int64{256 << 10}, Iters: 1, Seed: 61}},
	{SubmitRequest{Kind: "fleet", Flows: 80, Shards: 2, Seed: 61},
		SubmitRequest{Kind: "fleet", Flows: 80, Shards: 2, Seed: 61, Iters: 1}},
}

// A replay is indistinguishable from the fully cached cell path but for
// its ID: the same response, CSV bytes, cell keys (all cached) and
// /v1/stats movement.
func TestReplayMatchesCellPath(t *testing.T) {
	for _, tc := range replayCases {
		t.Run(tc.req.Kind, func(t *testing.T) {
			s, c := newServerClient(t, Config{Workers: 4})
			cold := c.submit(tc.req)
			coldCSV := c.result(cold.ID)

			cell, cellDelta := c.delta(func() SubmitResponse { return c.submit(tc.alt) })
			rep, repDelta := c.delta(func() SubmitResponse { return c.submit(tc.req) })
			if replayed(t, s, cell.ID) || !replayed(t, s, rep.ID) {
				t.Fatalf("cell path replayed %v, replay replayed %v", replayed(t, s, cell.ID), replayed(t, s, rep.ID))
			}
			cellID, repID := cell.ID, rep.ID
			cell.ID, rep.ID = "", ""
			if cell != rep || rep.Cached != cold.Cells {
				t.Errorf("responses differ: cell path %+v, replay %+v (cold %+v)", cell, rep, cold)
			}
			if cellDelta != repDelta || repDelta != (statsDelta{hits: int64(cold.Cells)}) {
				t.Errorf("stats moved %+v on the cell path, %+v on the replay, want hits %d alone", cellDelta, repDelta, cold.Cells)
			}
			if !bytes.Equal(c.result(cellID), coldCSV) || !bytes.Equal(c.result(repID), coldCSV) {
				t.Errorf("replayed or cell-path CSV differs from the cold one")
			}
			cellCells, repCells := c.cellsDetail(cellID), c.cellsDetail(repID)
			if len(repCells) != cold.Cells || fmt.Sprint(cellCells) != fmt.Sprint(repCells) {
				t.Errorf("?cells=1 differs:\ncell path %v\nreplay    %v", cellCells, repCells)
			}
			for _, ci := range repCells {
				if ci.Status != CellCached || ci.Err != "" {
					t.Fatalf("replayed cell %+v, want cached", ci)
				}
			}
			if st := c.status(repID); st.State != stateDone || st.Cached != cold.Cells {
				t.Errorf("replayed status %+v", st)
			}
			if resp, _ := c.cancel(repID); resp.StatusCode != http.StatusOK || c.status(repID).State != stateDone {
				t.Errorf("cancel of a replayed batch: HTTP %d", resp.StatusCode)
			}
		})
	}
}

// A batch with a stalled cell is never indexed: the stall is not cached,
// so its resubmission takes the cell path and simulates again.
func TestStalledBatchIsNotReplayed(t *testing.T) {
	for _, req := range []SubmitRequest{
		{Kind: "fig11", Sizes: []int64{64 << 20}, Iters: 1, Seed: 62},
		{Kind: "fleet", Flows: 8000, Shards: 2, Seed: 62},
	} {
		t.Run(req.Kind, func(t *testing.T) {
			s, c := newServerClient(t, Config{Workers: 4, WallLimit: time.Microsecond})
			first := c.submit(req)
			<-s.batch(first.ID).done
			if st := c.status(first.ID); st.Errors == 0 {
				t.Fatalf("no cell stalled under a 1 µs watchdog: %+v", st)
			}
			second := c.submit(req)
			<-s.batch(second.ID).done
			if replayed(t, s, second.ID) || second.Cached != 0 {
				t.Errorf("resubmission of a stalled batch: replayed %v, %d cached", replayed(t, s, second.ID), second.Cached)
			}
		})
	}
}

// A batch evicted under retention takes its index entry with it: the
// resubmission takes the cell path, still 100 % cached, and is indexed
// again.
func TestEvictedBatchIsNotReplayed(t *testing.T) {
	s, c := newServerClient(t, Config{Workers: 4, RetainBatches: 1})
	req := SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 63}
	c.result(c.submit(req).ID)
	other := c.submit(SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 64})
	c.result(other.ID)
	s.running.Wait() // the executor's retention pass runs after the seal
	if c.stats().EvictedJobs != 1 {
		t.Fatalf("evicted %d batches, want 1", c.stats().EvictedJobs)
	}

	sims := runner.SimRuns()
	again := c.submit(req)
	c.result(again.ID)
	if replayed(t, s, again.ID) || again.Cached != again.Cells || runner.SimRuns() != sims {
		t.Errorf("resubmission after eviction: replayed %v, %d/%d cached, %d simulations",
			replayed(t, s, again.ID), again.Cached, again.Cells, runner.SimRuns()-sims)
	}
	if last := c.submit(req); !replayed(t, s, last.ID) {
		t.Error("the cell-path resubmission was not indexed")
	}
}

// A resubmission sent as soon as a result wait returns replays: the
// batch joins the index before its done channel closes. Each round's
// first submission is a spelling not seen before (a field fig11
// ignores), so it takes the cell path, fully cached. The wait is
// ?wait=1 over HTTP, then the done channel it blocks on, in process,
// where nothing stands between the wake and the resubmission.
func TestResubmitAfterWaitReplays(t *testing.T) {
	s, c := newServerClient(t, Config{Workers: 4})
	req := SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 65}
	c.result(c.submit(req).ID)
	for i := 1; i <= 200; i++ {
		req.Flows = i
		if i <= 100 {
			c.result(c.submit(req).ID)
		} else if resp, err := s.Submit(req); err != nil {
			t.Fatal(err)
		} else {
			<-s.batch(resp.ID).done
		}
		if next, err := s.Submit(req); err != nil || !replayed(t, s, next.ID) {
			t.Fatalf("round %d: the resubmission after the wait took the cell path (err %v)", i, err)
		}
	}
}

// Identical submissions race from a cold start: the cell path and the
// index under -race. Every one must read the same CSV, and the stats
// must count each cell once, as a hit or a miss.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	s, c := newServerClient(t, Config{Workers: 2})
	req := SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 66}
	const clients, rounds = 4, 5
	csvs := make([][]byte, clients*rounds)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := s.Submit(req)
				if err != nil {
					t.Error(err)
					return
				}
				b := s.batch(resp.ID)
				<-b.done
				b.mu.Lock()
				csvs[g*rounds+r] = b.csv
				b.mu.Unlock()
				b.status(true)
				s.ReadStats()
			}
		}(g)
	}
	wg.Wait()
	s.running.Wait()
	st := c.stats()
	if n := int64(clients * rounds * 12); st.CacheHits+st.CacheMisses != n {
		t.Errorf("hits %d + misses %d, want %d cells", st.CacheHits, st.CacheMisses, n)
	}
	for i, csv := range csvs {
		if !bytes.Equal(csv, csvs[0]) || len(csv) == 0 {
			t.Fatalf("submission %d read a different CSV", i)
		}
	}
}
