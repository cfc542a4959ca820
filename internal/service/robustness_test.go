package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"suss/internal/runner"
)

// newServerClient exposes the Server alongside its HTTP client so
// robustness tests can reach the internals (queue gauge, drain) the
// API deliberately hides.
func newServerClient(t *testing.T, cfg Config) (*Server, *client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, &client{t: t, url: ts.URL}
}

func (c *client) get(path string) (*http.Response, []byte) {
	c.t.Helper()
	resp, err := http.Get(c.url + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

func (c *client) cancel(id string) (*http.Response, []byte) {
	c.t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, c.url+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

// Cancelling a running batch stops new cells, keeps what finished in
// the cache, seals the batch "canceled", and serves 410 on result —
// and a resubmission of the same matrix is warm for the finished part.
func TestCancelMidBatch(t *testing.T) {
	for _, req := range []SubmitRequest{
		// 64 MB cells on one worker: each takes long enough (hundreds of
		// milliseconds) that the cancel below always lands with most of
		// the 48-cell matrix still pending.
		{Kind: "fig11", Sizes: []int64{64 << 20}, Iters: 4, Seed: 11},
		// 32 shard cells of 500 flows (tens of milliseconds each): the
		// same executor, so the same contract, on the other kind.
		{Kind: "fleet", Flows: 8000, Shards: 16, Seed: 11},
	} {
		t.Run(req.Kind, func(t *testing.T) { testCancelMidBatch(t, req) })
	}
}

func testCancelMidBatch(t *testing.T, req SubmitRequest) {
	s, c := newServerClient(t, Config{Workers: 1})
	sub := c.submit(req)

	// Wait for at least one simulated cell so "partial results stay
	// cached" is actually exercised, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for s.cache.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no cell finished within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, _ := c.cancel(sub.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}

	// The batch seals promptly (the in-flight cell finishes, the rest
	// are skipped at the pool boundary).
	b := s.batch(sub.ID)
	select {
	case <-b.done:
	case <-time.After(30 * time.Second):
		t.Fatal("batch did not seal after cancel")
	}
	st := c.status(sub.ID)
	if st.State != stateCanceled {
		t.Fatalf("state after cancel: %q, want canceled (status %+v)", st.State, st)
	}
	if st.Skipped == 0 {
		t.Error("cancel skipped no cells")
	}
	if st.Done == 0 {
		t.Error("no cell recorded done before the cancel")
	}
	if got := st.Done + st.Cached + st.Errors + st.Skipped + st.Running + st.Pending; got != st.Cells {
		t.Errorf("cell accounting: %d of %d", got, st.Cells)
	}

	// result = 410 Gone with the status body, not a hang or a 500.
	resp, raw := c.get("/v1/jobs/" + sub.ID + "/result?wait=1")
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("result of canceled batch: HTTP %d: %s", resp.StatusCode, raw)
	}
	var gone JobStatus
	if err := json.Unmarshal(raw, &gone); err != nil || gone.State != stateCanceled {
		t.Errorf("410 body: %s (err %v)", raw, err)
	}

	// Cancel is idempotent.
	if resp, _ := c.cancel(sub.ID); resp.StatusCode != http.StatusOK {
		t.Errorf("second cancel: HTTP %d", resp.StatusCode)
	}

	// Partial results survive: the resubmission is warm exactly where
	// the first batch got to. Cancel it too rather than simulating the
	// remaining slow cells.
	second := c.submit(req)
	if replayed(t, s, second.ID) {
		t.Error("resubmission after cancel replayed the canceled batch")
	}
	if second.Cached == 0 {
		t.Error("resubmission after cancel found nothing cached")
	}
	if second.Cached >= second.Cells {
		t.Errorf("resubmission fully cached (%d/%d) — cancel skipped nothing?", second.Cached, second.Cells)
	}
	c.cancel(second.ID)
	b2 := s.batch(second.ID)
	select {
	case <-b2.done:
	case <-time.After(30 * time.Second):
		t.Fatal("second batch did not seal after cancel")
	}

	// The queue gauge is fully released once both executors exit (the
	// release runs in a deferred step just after the seal).
	deadline = time.Now().Add(5 * time.Second)
	for s.queued.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queued gauge %d after all batches terminal, want 0", s.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// Admission control: with a backlog at the cap, a submit that would
// exceed it is refused with 429 + Retry-After, while an idle queue
// admits any batch regardless of size.
func TestAdmissionControl(t *testing.T) {
	s, c := newServerClient(t, Config{Workers: 4, MaxQueuedCells: 8})

	// Simulate a standing backlog (no need to actually run anything —
	// the gauge is the policy input).
	s.queued.Store(8)
	body, _ := json.Marshal(SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 21})
	resp, err := http.Post(c.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over cap: HTTP %d: %s, want 429", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 Retry-After header: %q, want a positive number of seconds", ra)
	}
	if stats := c.stats(); stats.QueuedCells != 8 {
		t.Errorf("stats queued_cells %d, want the standing 8", stats.QueuedCells)
	}

	// Drop the backlog: the same submit is admitted, even though the
	// batch itself (12 cells) exceeds the cap of 8 — idle-queue batches
	// are always admitted.
	s.queued.Store(0)
	sub := c.submit(SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 21})
	if sub.Cells <= 8 {
		t.Fatalf("test premise broken: batch has %d cells, want > cap", sub.Cells)
	}
	c.result(sub.ID)
	if q := s.queued.Load(); q != 0 {
		t.Errorf("queued gauge %d after batch done, want 0", q)
	}
}

// Retention: terminal batches beyond the cap are evicted oldest-first;
// evicted IDs 404 and the eviction count survives in stats.
func TestRetentionEviction(t *testing.T) {
	_, c := newServerClient(t, Config{Workers: 4, RetainBatches: 2})
	req := SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 31}
	var ids []string
	for i := 0; i < 4; i++ {
		sub := c.submit(req) // warm after the first — these are fast
		c.result(sub.ID)
		ids = append(ids, sub.ID)
	}

	// GC runs just after each executor seals, so the last batch's
	// eviction of the second-oldest can still be pending once a result
	// is served; poll until it has landed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := c.get("/v1/jobs/" + ids[1])
		if resp.StatusCode == http.StatusNotFound && c.stats().EvictedJobs >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second-oldest batch %s: HTTP %d after 5 s, want evicted", ids[1], resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range ids[:2] {
		if resp, _ := c.get("/v1/jobs/" + id); resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted batch %s: HTTP %d, want 404", id, resp.StatusCode)
		}
	}
	for _, id := range ids[2:] {
		if resp, _ := c.get("/v1/jobs/" + id); resp.StatusCode != http.StatusOK {
			t.Errorf("retained batch %s: HTTP %d, want 200", id, resp.StatusCode)
		}
	}
	st := c.stats()
	if st.EvictedJobs != 2 {
		t.Errorf("stats evicted_jobs %d, want 2", st.EvictedJobs)
	}
	if st.Jobs != 2 {
		t.Errorf("stats jobs %d, want 2 retained", st.Jobs)
	}
}

// Lifecycle endpoints: /healthz always answers, /readyz flips to 503
// once a drain begins, draining refuses submits with 503 + Retry-After,
// and Drain cancels a running batch.
func TestHealthReadyAndDrain(t *testing.T) {
	s, c := newServerClient(t, Config{Workers: 1})

	if resp, raw := c.get("/healthz"); resp.StatusCode != http.StatusOK || string(raw) != "ok\n" {
		t.Errorf("healthz: HTTP %d %q", resp.StatusCode, raw)
	}
	if resp, raw := c.get("/readyz"); resp.StatusCode != http.StatusOK || string(raw) != "ready\n" {
		t.Errorf("readyz: HTTP %d %q", resp.StatusCode, raw)
	}

	// A slow batch (64 MB cells, one worker) to drain out from under.
	sub := c.submit(SubmitRequest{Kind: "fig11", Sizes: []int64{64 << 20}, Iters: 4, Seed: 41})

	s.BeginDrain()
	if resp, _ := c.get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: HTTP %d, want 503", resp.StatusCode)
	}
	body, _ := json.Marshal(SubmitRequest{Kind: "fig11", Iters: 1})
	resp, err := http.Post(c.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 has no Retry-After header")
	}

	ctx, cancelCtx := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelCtx()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := c.status(sub.ID)
	if st.State != stateCanceled {
		t.Errorf("batch state after drain: %q, want canceled", st.State)
	}
	if st.Skipped == 0 {
		t.Error("drained batch skipped no cells")
	}
	// Liveness stays up; readiness stays down.
	if resp, _ := c.get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after drain: HTTP %d", resp.StatusCode)
	}
	if resp, _ := c.get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: HTTP %d", resp.StatusCode)
	}
}

// The persistent cache end to end through a Server: results written by
// one server instance are replayed by its successor on the same file —
// the resubmission is all cache hits, zero simulator runs, identical
// bytes, and stats account the replay.
func TestServerCacheSurvivesRestart(t *testing.T) {
	for _, req := range []SubmitRequest{
		{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 2, Seed: 51},
		{Kind: "fleet", Flows: 80, Shards: 2, Seed: 51},
	} {
		t.Run(req.Kind, func(t *testing.T) { testServerCacheSurvivesRestart(t, req) })
	}
}

func testServerCacheSurvivesRestart(t *testing.T, req SubmitRequest) {
	path := filepath.Join(t.TempDir(), "sussd.cache")

	s1, c1 := newServerClient(t, Config{Workers: 4, CacheFile: path})
	sub1 := c1.submit(req)
	csv1 := c1.result(sub1.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	s2, c2 := newServerClient(t, Config{Workers: 4, CacheFile: path})
	if info := s2.Recovery(); info.Entries != sub1.Cells || info.Truncated {
		t.Fatalf("recovery %+v, want %d clean entries", info, sub1.Cells)
	}
	simsBefore := runner.SimRuns()
	sub2 := c2.submit(req)
	if sub2.Cached != sub2.Cells {
		t.Errorf("restarted server: %d/%d cells cached", sub2.Cached, sub2.Cells)
	}
	csv2 := c2.result(sub2.ID)
	if d := runner.SimRuns() - simsBefore; d != 0 {
		t.Errorf("restarted server ran %d simulations for a fully persisted matrix", d)
	}
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("CSV across restart differs:\nfirst:\n%s\nsecond:\n%s", csv1, csv2)
	}
	st := c2.stats()
	if st.CacheReplayed != sub1.Cells {
		t.Errorf("stats cache_replayed %d, want %d", st.CacheReplayed, sub1.Cells)
	}
}
