package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"suss/internal/experiments"
	"suss/internal/scenarios"
)

// submitSummary is the parsed trailer line a -submit run prints to
// stderr: cells=N cached=K sim_runs=M cache_hits=H cache_misses=S.
type submitSummary struct {
	cells, cached         int
	simRuns, hits, misses int64
}

func parseSummary(t *testing.T, stderr string) submitSummary {
	t.Helper()
	var line string
	for _, l := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "cells=") {
			line = strings.TrimSpace(l)
		}
	}
	if line == "" {
		t.Fatalf("no cells= summary line in stderr:\n%s", stderr)
	}
	s := submitSummary{}
	for _, f := range strings.Fields(line) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			t.Fatalf("bad summary field %q in %q", f, line)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad summary value %q: %v", f, err)
		}
		switch k {
		case "cells":
			s.cells = int(n)
		case "cached":
			s.cached = int(n)
		case "sim_runs":
			s.simRuns = n
		case "cache_hits":
			s.hits = n
		case "cache_misses":
			s.misses = n
		}
	}
	return s
}

// TestSussdSmoke is the two-process end-to-end: build the shipped
// daemon and the client with -race, submit the same small fig11 matrix
// twice from a separate client process, and require the second pass to
// be 100 % cache hits with zero additional simulator runs and
// byte-identical CSV — which must also match the in-process sweep's
// CSV. It ends the way a deployment does: SIGTERM, and the daemon must
// drain and exit 0 (66 would be a detected race) inside -draintimeout.
func TestSussdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("two-process smoke skipped in -short")
	}
	sussd, sussim := buildBins(t)
	const drainTimeout = 10 * time.Second
	url, daemon, stderr := startDaemon(t, sussd, "-draintimeout", drainTimeout.String())

	spec := `{"kind":"fig11","sizes":[262144,524288],"iters":2,"seed":1}`
	const wantCells = 4 * 2 * 3 * 2 // links × sizes × algos × iters

	csv1, sum1 := submitCLI(t, sussim, url, spec)
	if sum1.cells != wantCells {
		t.Fatalf("pass 1: %d cells, want %d", sum1.cells, wantCells)
	}
	if sum1.cached != 0 {
		t.Errorf("pass 1 on a cold daemon reported %d cached cells", sum1.cached)
	}

	csv2, sum2 := submitCLI(t, sussim, url, spec)
	if sum2.cached != wantCells {
		t.Errorf("pass 2: %d/%d cells cached, want all", sum2.cached, wantCells)
	}
	if sum2.simRuns != sum1.simRuns {
		t.Errorf("pass 2 ran %d extra simulations (sim_runs %d → %d), want 0",
			sum2.simRuns-sum1.simRuns, sum1.simRuns, sum2.simRuns)
	}
	if sum2.hits-sum1.hits != int64(wantCells) {
		t.Errorf("pass 2 recorded %d cache hits, want %d", sum2.hits-sum1.hits, wantCells)
	}
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("cached CSV differs from simulated CSV:\npass1:\n%s\npass2:\n%s", csv1, csv2)
	}

	// The daemon's CSV is the CLI's CSV: byte-identical to the
	// in-process sweep for the same config.
	direct := experiments.RunFig11(scenarios.GoogleTokyo, []int64{262144, 524288}, 2, 1)
	var buf bytes.Buffer
	if err := direct.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1, buf.Bytes()) {
		t.Errorf("daemon CSV differs from in-process sweep:\ndaemon:\n%s\ndirect:\n%s", csv1, buf.Bytes())
	}
	fmt.Printf("sussd smoke: %d cells, pass2 cached=%d sim_runs delta=%d\n",
		wantCells, sum2.cached, sum2.simRuns-sum1.simRuns)

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("sussd after SIGTERM: %v, want exit status 0", err)
		}
	case <-time.After(drainTimeout):
		daemon.Process.Kill()
		<-exited
		t.Fatalf("sussd still running %v after SIGTERM", drainTimeout)
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("sussd stderr does not announce the drain:\n%s", stderr)
	}
}
