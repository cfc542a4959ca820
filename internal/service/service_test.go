package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"suss/internal/experiments"
	"suss/internal/runner"
	"suss/internal/scenarios"
)

// client wraps an httptest server with the few calls the tests make.
type client struct {
	t   *testing.T
	url string
}

func newClient(t *testing.T) *client {
	t.Helper()
	return newClientWith(t, Config{Workers: 4})
}

func newClientWith(t *testing.T, cfg Config) *client {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &client{t: t, url: ts.URL}
}

func (c *client) submit(req SubmitRequest) SubmitResponse {
	c.t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(c.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	var out SubmitResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		c.t.Fatalf("submit response %q: %v", raw, err)
	}
	return out
}

func (c *client) result(id string) []byte {
	c.t.Helper()
	resp, err := http.Get(c.url + "/v1/jobs/" + id + "/result?wait=1")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("result %s: HTTP %d: %s", id, resp.StatusCode, raw)
	}
	return raw
}

func (c *client) status(id string) JobStatus {
	c.t.Helper()
	resp, err := http.Get(c.url + "/v1/jobs/" + id)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		c.t.Fatal(err)
	}
	return st
}

func (c *client) stats() Stats {
	c.t.Helper()
	resp, err := http.Get(c.url + "/v1/stats")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		c.t.Fatal(err)
	}
	return st
}

// The tentpole contract end to end: an identical resubmission is 100 %
// cache hits, zero simulator runs, byte-identical CSV — and the CSV
// matches what the in-process CLI sweep emits for the same config.
func TestFig11CacheRoundTrip(t *testing.T) {
	c := newClient(t)
	req := SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 1}
	wantCells := 4 * 1 * 3 * 1 // links × sizes × algos × iters

	first := c.submit(req)
	if first.Cells != wantCells || first.Cached != 0 {
		t.Fatalf("first submit: cells=%d cached=%d, want %d/0", first.Cells, first.Cached, wantCells)
	}
	csv1 := c.result(first.ID)

	simsAfterFirst := runner.SimRuns()
	second := c.submit(req)
	if second.Cached != wantCells {
		t.Errorf("second submit reported %d/%d cells cached", second.Cached, wantCells)
	}
	csv2 := c.result(second.ID)
	if d := runner.SimRuns() - simsAfterFirst; d != 0 {
		t.Errorf("warm resubmission ran %d simulations, want 0", d)
	}
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("cached CSV differs from simulated CSV:\nfirst:\n%s\nsecond:\n%s", csv1, csv2)
	}
	st := c.status(second.ID)
	if st.Cached != wantCells || st.Done != 0 || st.Errors != 0 {
		t.Errorf("second batch status: %+v, want all %d cells cached", st, wantCells)
	}

	// The daemon's CSV is the CLI's CSV: same aggregation, same bytes.
	direct := experiments.RunFig11(scenarios.GoogleTokyo, []int64{256 << 10}, 1, 1, runner.Options{}, false)
	var buf bytes.Buffer
	if err := direct.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1, buf.Bytes()) {
		t.Errorf("service CSV differs from in-process sweep:\nservice:\n%s\ndirect:\n%s", csv1, buf.Bytes())
	}
}

// Defaulted and explicit spellings of the same sweep are the same
// cells: a resubmission that spells out the defaults is still warm.
func TestFig11DefaultedFieldsShareCache(t *testing.T) {
	c := newClient(t)
	short := SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1} // seed defaults to 1
	first := c.submit(short)
	c.result(first.ID)

	explicit := SubmitRequest{Kind: "fig11", Server: "google-tokyo", Sizes: []int64{256 << 10}, Iters: 1, Seed: 1}
	second := c.submit(explicit)
	if second.Cached != second.Cells {
		t.Errorf("explicit spelling of defaults missed the cache: %d/%d cached", second.Cached, second.Cells)
	}
}

// A semantic change must miss: different seed, different cells.
func TestFig11SeedChangeMisses(t *testing.T) {
	c := newClient(t)
	first := c.submit(SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 1})
	c.result(first.ID)
	second := c.submit(SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 2})
	if second.Cached != 0 {
		t.Errorf("seed change still hit the cache: %d cells cached", second.Cached)
	}
}

// Fleet batches cache per shard: identical resubmission is warm with
// identical bytes, and growing the matrix reuses the shared cells.
func TestFleetCacheRoundTrip(t *testing.T) {
	c := newClient(t)
	req := SubmitRequest{Kind: "fleet", Flows: 80, Shards: 2, Seed: 7}

	first := c.submit(req)
	if want := 2 * 2; first.Cells != want || first.Cached != 0 {
		t.Fatalf("first submit: cells=%d cached=%d, want %d/0", first.Cells, first.Cached, want)
	}
	csv1 := c.result(first.ID)

	simsAfterFirst := runner.SimRuns()
	second := c.submit(req)
	if second.Cached != second.Cells {
		t.Errorf("second submit: %d/%d cells cached", second.Cached, second.Cells)
	}
	csv2 := c.result(second.ID)
	if d := runner.SimRuns() - simsAfterFirst; d != 0 {
		t.Errorf("warm fleet resubmission ran %d simulations, want 0", d)
	}
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("cached fleet CSV differs:\nfirst:\n%s\nsecond:\n%s", csv1, csv2)
	}
	if !strings.HasPrefix(string(csv1), "variant,class,quantile,fct_s\n") {
		t.Errorf("fleet CSV header missing: %q", string(csv1)[:40])
	}

	// Same population, same tree, one more variant dimension changed:
	// a different seed shares nothing.
	third := c.submit(SubmitRequest{Kind: "fleet", Flows: 80, Shards: 2, Seed: 8})
	if third.Cached != 0 {
		t.Errorf("different fleet seed hit the cache: %d cells", third.Cached)
	}
}

func TestSubmitValidation(t *testing.T) {
	c := newClient(t)
	for _, body := range []string{
		`{"kind":"nope"}`,
		`{"kind":"fig11","server":"mars-base"}`,
		`{"kind":"fig11","sizes":[-1]}`,
		`not json`,
		// Outside input sizes the planner's slices: a matrix or a fleet
		// that would not fit in memory is refused before any is built.
		`{"kind":"fig11","iters":100000000}`,
		`{"kind":"fleet","shards":2000000000}`,
		`{"kind":"fleet","flows":2000000000}`,
	} {
		resp, err := http.Post(c.url+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(c.url + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// The stream endpoint emits NDJSON snapshots ending in a terminal
// state, and /v1/stats accounts hits, misses and runs.
func TestStreamAndStats(t *testing.T) {
	c := newClient(t)
	req := SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 3}
	sub := c.submit(req)

	resp, err := http.Get(c.url + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lastLine []byte
	dec := json.NewDecoder(resp.Body)
	lines := 0
	for {
		var st JobStatus
		if err := dec.Decode(&st); err != nil {
			break
		}
		lines++
		lastLine, _ = json.Marshal(st)
		if st.State != "running" {
			break
		}
	}
	if lines == 0 {
		t.Fatal("stream emitted no snapshots")
	}
	var final JobStatus
	if err := json.Unmarshal(lastLine, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Errorf("final stream state %q, want done", final.State)
	}
	if got := final.Done + final.Cached; got != sub.Cells {
		t.Errorf("final snapshot accounts %d/%d cells", got, sub.Cells)
	}

	st := c.stats()
	if st.CacheEntries == 0 || st.CellRuns == 0 {
		t.Errorf("stats after a run: %+v, want nonzero entries and cell runs", st)
	}
	if st.CacheMisses < int64(sub.Cells) {
		t.Errorf("stats misses %d < first-run cells %d", st.CacheMisses, sub.Cells)
	}
	if st.SimRuns == 0 {
		t.Error("stats sim_runs is zero after simulating")
	}
	if st.Jobs == 0 {
		t.Error("stats jobs is zero")
	}
}
