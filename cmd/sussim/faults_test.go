package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"suss/internal/experiments"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/service"
)

// buildBins compiles the two sides of the two-process tests with the
// race detector on: the shipped daemon (cmd/sussd) and this package's
// sussim, whose -submit mode is the client.
func buildBins(t *testing.T) (sussd, sussim string) {
	t.Helper()
	dir := t.TempDir()
	build := exec.Command("go", "build", "-race", "-o", dir+string(filepath.Separator), "../sussd", ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	return filepath.Join(dir, "sussd"), filepath.Join(dir, "sussim")
}

// startDaemon launches `sussd -addr 127.0.0.1:0 args...` and returns
// its base URL (parsed from the startup handshake line), the process
// handle and its stderr, which is complete once the process has been
// waited for. The caller stops it; a cleanup reaps stragglers.
func startDaemon(t *testing.T, sussd string, args ...string) (string, *exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(sussd, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr := new(bytes.Buffer)
	cmd.Stderr = io.MultiWriter(os.Stderr, stderr)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("daemon printed no listen line (err=%v)", sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected daemon startup line %q", line)
	}
	return "http://" + strings.TrimSpace(line[i+len(marker):]), cmd, stderr
}

func daemonStats(t *testing.T, url string) service.Stats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func postJob(t *testing.T, url, spec string) service.SubmitResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub service.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	return sub
}

func submitCLI(t *testing.T, sussim, url, spec string) ([]byte, submitSummary) {
	t.Helper()
	cmd := exec.Command(sussim, "-submit", url, "-spec", spec)
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	if err := cmd.Run(); err != nil {
		t.Fatalf("-submit: %v\nstderr:\n%s", err, errBuf.String())
	}
	return outBuf.Bytes(), parseSummary(t, errBuf.String())
}

// TestSussdFaultRecovery is the kill-the-daemon harness: a daemon with
// a cache file is SIGKILL'd mid-batch (one worker, cells persisted as
// they finish), restarted on the same file, and the resubmission must
// find every persisted cell warm — re-simulating only what was in
// flight or unstarted at the kill — and still produce byte-identical
// CSV to the in-process sweep.
func TestSussdFaultRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("two-process fault test skipped in -short")
	}
	sussd, sussim := buildBins(t)
	cacheFile := filepath.Join(t.TempDir(), "sussd.cache")
	spec := `{"kind":"fig11","sizes":[4194304],"iters":2,"seed":1}`
	const wantCells = 4 * 1 * 3 * 2 // links × sizes × algos × iters

	url1, daemon1, _ := startDaemon(t, sussd, "-workers", "1", "-cachefile", cacheFile)
	sub := postJob(t, url1, spec)
	if sub.Cells != wantCells || sub.Cached != 0 {
		t.Fatalf("cold submit: cells=%d cached=%d, want %d/0", sub.Cells, sub.Cached, wantCells)
	}

	// Wait until a few cells have been simulated AND persisted, then
	// kill -9. With one worker the batch is serial, so at kill time the
	// cache file holds the finished prefix and nothing else.
	deadline := time.Now().Add(60 * time.Second)
	for daemonStats(t, url1).CacheEntries < 3 {
		if time.Now().After(deadline) {
			t.Fatal("daemon simulated fewer than 3 cells in 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := daemon1.Process.Kill(); err != nil { // SIGKILL: no drain, no flush, no goodbye
		t.Fatal(err)
	}
	daemon1.Wait()

	// Restart on the same cache file. Replay must recover at least the
	// cells we saw persisted before the kill.
	url2, _, _ := startDaemon(t, sussd, "-workers", "1", "-cachefile", cacheFile)
	st := daemonStats(t, url2)
	if st.CacheReplayed < 3 {
		t.Fatalf("restarted daemon replayed %d cells, want >= 3", st.CacheReplayed)
	}
	if st.CacheReplayed > wantCells {
		t.Fatalf("restarted daemon replayed %d cells, more than the %d submitted", st.CacheReplayed, wantCells)
	}
	t.Logf("killed daemon mid-batch; replay recovered %d/%d cells (dropped %d bytes: %s)",
		st.CacheReplayed, wantCells, st.CacheDroppedBytes, st.CacheDropReason)

	// Resubmit the identical spec through the CLI client. Every
	// persisted cell must be a cache hit; the fresh process's sim_runs
	// counter counts exactly the re-simulated remainder.
	csv, sum := submitCLI(t, sussim, url2, spec)
	if sum.cells != wantCells {
		t.Fatalf("resubmit: %d cells, want %d", sum.cells, wantCells)
	}
	if sum.cached != st.CacheReplayed {
		t.Errorf("resubmit found %d cells cached, want the %d replayed", sum.cached, st.CacheReplayed)
	}
	if want := int64(wantCells - sum.cached); sum.simRuns != want {
		t.Errorf("resubmit ran %d simulations, want exactly the %d un-persisted cells", sum.simRuns, want)
	}

	// The recovered-and-completed CSV is byte-identical to a run that
	// never crashed.
	direct := experiments.RunFig11(scenarios.GoogleTokyo, []int64{4194304}, 2, 1, runner.Options{}, false)
	var buf bytes.Buffer
	if err := direct.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv, buf.Bytes()) {
		t.Errorf("post-recovery CSV differs from the in-process sweep:\nrecovered:\n%s\ndirect:\n%s", csv, buf.Bytes())
	}
	fmt.Printf("sussd faults: killed at %d/%d persisted, resubmit cached=%d sim_runs=%d\n",
		st.CacheReplayed, wantCells, sum.cached, sum.simRuns)
}

// TestSussdCorruptCacheRecovery: a cache file with a torn tail (the
// exact artifact a crash mid-append leaves) must not take the daemon
// down — startup truncates the tail, reports what it dropped, and every
// intact record still serves as a cache hit.
func TestSussdCorruptCacheRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("two-process fault test skipped in -short")
	}
	sussd, sussim := buildBins(t)
	cacheFile := filepath.Join(t.TempDir(), "sussd.cache")
	spec := `{"kind":"fig11","sizes":[262144],"iters":1,"seed":1}`
	const wantCells = 4 * 1 * 3 * 1

	// Fill the cache with one clean batch, then kill the daemon.
	url1, daemon1, _ := startDaemon(t, sussd, "-cachefile", cacheFile)
	sub := postJob(t, url1, spec)
	resp, err := http.Get(url1 + "/v1/jobs/" + sub.ID + "/result?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", resp.StatusCode)
	}
	daemon1.Process.Kill()
	daemon1.Wait()

	// Tear the tail: a frame promising 500 payload bytes, delivering 7.
	f, err := os.OpenFile(cacheFile, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte{0, 0, 1, 0xf4}, bytes.Repeat([]byte{0xAB}, 32+7)...)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	url2, _, _ := startDaemon(t, sussd, "-cachefile", cacheFile)
	st := daemonStats(t, url2)
	if st.CacheReplayed != wantCells {
		t.Errorf("replay recovered %d cells, want all %d intact records", st.CacheReplayed, wantCells)
	}
	if st.CacheDroppedBytes != int64(len(torn)) {
		t.Errorf("replay dropped %d bytes, want the %d torn ones", st.CacheDroppedBytes, len(torn))
	}

	// The truncated file serves: full cache hits, zero simulations in
	// the fresh process.
	_, sum := submitCLI(t, sussim, url2, spec)
	if sum.cached != wantCells {
		t.Errorf("resubmit on repaired cache: %d/%d cached", sum.cached, wantCells)
	}
	if sum.simRuns != 0 {
		t.Errorf("resubmit on repaired cache ran %d simulations, want 0", sum.simRuns)
	}
}
