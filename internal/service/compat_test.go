package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The record-compatibility fixture. testdata/parent.cache is the
// -cachefile a one-worker daemon wrote at the commit before fig11 and
// fleet batches shared one executor (fe6218a), serving compatRequests
// in order; parent.<kind>.csv is the CSV it answered with. The cache
// keys and record bytes are a contract with every cache file already on
// disk, so the change must (a) write the same file for the same cells
// and (b) replay the parent's file as hits.
var compatRequests = []SubmitRequest{
	{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 1},
	{Kind: "fleet", Flows: 40, Shards: 1, Seed: 7},
}

// serveCompat runs compatRequests through a one-worker server on the
// given cache file, checks each CSV against the parent's, drains the
// server and returns the cells it reported cached and simulated.
func serveCompat(t *testing.T, path string) (cached, cells int, runs int64) {
	t.Helper()
	s, c := newServerClient(t, Config{Workers: 1, CacheFile: path})
	for _, req := range compatRequests {
		sub := c.submit(req)
		cached += sub.Cached
		cells += sub.Cells
		want, err := os.ReadFile(filepath.Join("testdata", "parent."+req.Kind+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.result(sub.ID); !bytes.Equal(got, want) {
			t.Errorf("%s CSV differs from the parent's:\n got:\n%s\nwant:\n%s", req.Kind, got, want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return cached, cells, s.cellRuns.Load()
}

func TestParentCacheFileCompat(t *testing.T) {
	parent, err := os.ReadFile(filepath.Join("testdata", "parent.cache"))
	if err != nil {
		t.Fatal(err)
	}

	// (a) Cold: one worker appends records in cell order, so the whole
	// file — every key, every record, the framing — must come out
	// byte-identical to the parent's.
	cold := filepath.Join(t.TempDir(), "cold.cache")
	cached, cells, runs := serveCompat(t, cold)
	if cached != 0 || runs != int64(cells) {
		t.Fatalf("cold pass: %d/%d cached, %d cell runs", cached, cells, runs)
	}
	got, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, parent) {
		t.Errorf("cache file written for the same cells differs from the parent's (%d vs %d bytes)", len(got), len(parent))
	}

	// (b) Warm: the parent's own file replays clean and serves every
	// cell with zero simulations.
	warm := filepath.Join(t.TempDir(), "parent.cache")
	if err := os.WriteFile(warm, parent, 0o644); err != nil {
		t.Fatal(err)
	}
	cache, info, err := NewPersistentCache(warm)
	if err != nil || info.Entries != cells || info.Truncated {
		t.Fatalf("replaying the parent's file: %+v, err %v; want %d clean entries", info, err, cells)
	}
	cache.Close()
	if cached, _, runs := serveCompat(t, warm); cached != cells || runs != 0 {
		t.Errorf("warm pass over the parent's file: %d/%d cached, %d cell runs; want all cached, 0 runs", cached, cells, runs)
	}
}
