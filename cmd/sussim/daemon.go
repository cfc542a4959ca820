package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"suss/internal/service"
)

// Client resilience knobs. Every non-blocking call (submit, status,
// stats, stream dial) gets a per-request timeout; only the blocking
// result?wait=1 read is unbounded, and it turns a dead daemon into a
// clear error instead of hanging. Transient failures — connection
// refused/reset, 429 with Retry-After, 503 during drain — are retried
// with exponential backoff plus jitter.
const (
	unaryTimeout  = 15 * time.Second
	retryBase     = 150 * time.Millisecond
	retryCap      = 3 * time.Second
	maxAttempts   = 6
	streamRedials = 10
)

// daemonClient is the sussd HTTP client behind sussim -submit.
type daemonClient struct {
	base  string
	unary *http.Client // bounded: submit, status, stats, cancel
	wait  *http.Client // unbounded: result?wait=1 and the progress stream
}

func newDaemonClient(baseURL string) *daemonClient {
	return &daemonClient{
		base:  strings.TrimRight(baseURL, "/"),
		unary: &http.Client{Timeout: unaryTimeout},
		wait:  &http.Client{},
	}
}

// backoff returns the jittered exponential delay for attempt n
// (0-based): base·2ⁿ capped, then uniformly jittered in [d/2, d).
func backoff(n int) time.Duration {
	d := retryBase << n
	if d > retryCap {
		d = retryCap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

// retryAfter honors an explicit Retry-After header when the server
// sent one, falling back to the client's own backoff.
func retryAfter(resp *http.Response, attempt int) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return backoff(attempt)
}

// retriableStatus marks responses worth retrying: admission-control
// pushback and drain refusals.
func retriableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// do issues fn (which must build a fresh request each call) with
// retries on transport errors and retriable statuses. The returned
// response, if any, is non-retriable; its body is open.
func (c *daemonClient) do(what string, fn func() (*http.Response, error)) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		resp, err := fn()
		if err != nil {
			lastErr = err
			time.Sleep(backoff(attempt))
			continue
		}
		if retriableStatus(resp.StatusCode) && attempt < maxAttempts-1 {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			wait := retryAfter(resp, attempt)
			fmt.Fprintf(os.Stderr, "%s: daemon busy (HTTP %d: %s), retrying in %v\n",
				what, resp.StatusCode, strings.TrimSpace(string(body)), wait.Round(time.Millisecond))
			time.Sleep(wait)
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("%s: giving up after %d attempts: %w", what, maxAttempts, lastErr)
}

func (c *daemonClient) getJSON(what, path string, out any) error {
	resp, err := c.do(what, func() (*http.Response, error) { return c.unary.Get(c.base + path) })
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("%s: HTTP %d: %s", what, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// runSubmit is the daemon client: submit a JSON job spec, follow
// progress, write the result CSV to stdout (or -o file), and print a
// machine-parseable summary line to stderr:
//
//	cells=48 cached=48 sim_runs=96 cache_hits=48 cache_misses=48
//
// sim_runs is the daemon's process-wide simulator-run counter; a warm
// resubmission leaves it unchanged.
func runSubmit(baseURL, spec, outPath string) error {
	c := newDaemonClient(baseURL)
	if err := waitHTTP(c.base, 10*time.Second); err != nil {
		return err
	}

	var req service.SubmitRequest
	if err := json.Unmarshal([]byte(spec), &req); err != nil {
		return fmt.Errorf("bad -spec JSON: %w", err)
	}
	body, _ := json.Marshal(req)
	resp, err := c.do("submit", func() (*http.Response, error) {
		return c.unary.Post(c.base+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	})
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		return fmt.Errorf("submit response %q: %w", raw, err)
	}
	fmt.Fprintf(os.Stderr, "submitted %s: %s, %d cells (%d already cached)\n", sub.ID, sub.Kind, sub.Cells, sub.Cached)

	streamDone := make(chan struct{})
	go streamProgress(c, sub.ID, streamDone)

	csv, err := c.awaitResult(sub.ID)
	close(streamDone)
	if err != nil {
		return err
	}

	if outPath != "" && outPath != "-" {
		if err := os.WriteFile(outPath, csv, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	} else {
		os.Stdout.Write(csv)
	}

	var st service.JobStatus
	if err := c.getJSON("status", "/v1/jobs/"+sub.ID, &st); err != nil {
		return err
	}
	var stats service.Stats
	if err := c.getJSON("stats", "/v1/stats", &stats); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cells=%d cached=%d sim_runs=%d cache_hits=%d cache_misses=%d\n",
		st.Cells, st.Cached, stats.SimRuns, stats.CacheHits, stats.CacheMisses)
	if st.Errors > 0 {
		return fmt.Errorf("%d cell(s) failed", st.Errors)
	}
	return nil
}

// awaitResult blocks on result?wait=1. The wait itself has no
// timeout — a cold sweep legitimately takes as long as it takes — but
// a daemon dying mid-wait surfaces as a clear error: the dropped
// connection is retried a few times (the daemon may be restarting),
// and a daemon that restarted without the job (or stays unreachable)
// is reported instead of hanging silently.
func (c *daemonClient) awaitResult(id string) ([]byte, error) {
	path := c.base + "/v1/jobs/" + id + "/result?wait=1"
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		resp, err := c.wait.Get(path)
		if err != nil {
			lastErr = err
			time.Sleep(backoff(attempt))
			continue
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			// The daemon died mid-response; retry against its successor.
			lastErr = rerr
			time.Sleep(backoff(attempt))
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return raw, nil
		case http.StatusNotFound:
			return nil, fmt.Errorf("result: job %s is gone — the daemon likely restarted and lost its batch registry; resubmit the spec (persisted cells will be cache hits)", id)
		case http.StatusGone:
			return nil, fmt.Errorf("result: job %s was canceled: %s", id, strings.TrimSpace(string(raw)))
		default:
			return nil, fmt.Errorf("result: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		}
	}
	return nil, fmt.Errorf("result: daemon became unreachable while waiting for job %s: %w", id, lastErr)
}

// streamProgress mirrors the batch's NDJSON progress stream onto
// stderr; best-effort (the result call is the authoritative wait), but
// it re-dials dropped streams so a transient hiccup doesn't silence
// the rest of a long sweep.
func streamProgress(c *daemonClient, id string, done <-chan struct{}) {
	for redial := 0; redial < streamRedials; redial++ {
		select {
		case <-done:
			return
		default:
		}
		resp, err := c.wait.Get(c.base + "/v1/jobs/" + id + "/stream")
		if err != nil {
			time.Sleep(backoff(redial))
			continue
		}
		terminal := streamSnapshots(resp.Body, id)
		resp.Body.Close()
		if terminal {
			return
		}
		time.Sleep(backoff(redial))
	}
}

// streamSnapshots prints snapshots until the stream ends, reporting
// whether a terminal state was seen (false = the connection dropped
// mid-batch and is worth re-dialing).
func streamSnapshots(body io.Reader, id string) bool {
	dec := json.NewDecoder(body)
	for {
		var st service.JobStatus
		if err := dec.Decode(&st); err != nil {
			return false
		}
		fmt.Fprintf(os.Stderr, "\r[%s] %d/%d cells (cached %d, running %d)", id,
			st.Done+st.Cached+st.Errors+st.Skipped, st.Cells, st.Cached, st.Running)
		if st.State != "running" {
			fmt.Fprintln(os.Stderr)
			return true
		}
	}
}

// waitHTTP polls the daemon's liveness endpoint until it answers —
// startup synchronization for scripted two-process runs.
func waitHTTP(baseURL string, d time.Duration) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(d)
	for {
		resp, err := hc.Get(strings.TrimRight(baseURL, "/") + "/healthz")
		if err == nil {
			resp.Body.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not answering: %w", baseURL, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
