package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"suss/internal/netem"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
)

// TestRunFig11DeterministicAcrossWorkers is the tested invariant the
// parallel engine promises: because every job is instance-seeded and
// results are collected by job index, the rendered output and the CSV
// bytes are identical with 1 worker and with a full pool.
func TestRunFig11DeterministicAcrossWorkers(t *testing.T) {
	sizes := []int64{256 << 10, 512 << 10}
	seq := RunFig11(scenarios.GoogleTokyo, sizes, 2, 1, runner.Options{Workers: 1}, false)
	par := RunFig11(scenarios.GoogleTokyo, sizes, 2, 1, runner.Options{Workers: 4}, false)

	if seq.Incomplete != 0 || par.Incomplete != 0 {
		t.Fatalf("incomplete downloads: seq=%d par=%d", seq.Incomplete, par.Incomplete)
	}
	if a, b := seq.Render(), par.Render(); a != b {
		t.Errorf("rendered output differs across worker counts:\n--- workers=1\n%s--- workers=4\n%s", a, b)
	}
	var sb, pb bytes.Buffer
	if err := seq.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteCSV(&pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Error("CSV bytes differ across worker counts")
	}
}

// TestFig11WriteCSVGolden pins the exact CSV encoding so downstream
// plotting scripts can rely on it.
func TestFig11WriteCSVGolden(t *testing.T) {
	r := Fig11Result{
		Server: scenarios.GoogleTokyo,
		Links:  []netem.LinkType{netem.Wired},
		Sizes:  []int64{1 << 20},
		Algos:  []runner.Algo{runner.BBR, runner.Suss, runner.Cubic},
		FCT: [][][]stats.Summary{{{
			{Mean: 1.5, StdDev: 0.25},
			{Mean: 0.75, StdDev: 0.125},
			{Mean: 1, StdDev: 0.5},
		}}},
		Improvement: [][]float64{{0.25}},
	}
	var b bytes.Buffer
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "link,size_bytes,algo,fct_mean_s,fct_std_s,improvement\n" +
		"wired,1048576,bbr,1.500000,0.250000,0.2500\n" +
		"wired,1048576,cubic+suss,0.750000,0.125000,0.2500\n" +
		"wired,1048576,cubic,1.000000,0.500000,0.2500\n"
	if got := b.String(); got != want {
		t.Errorf("CSV mismatch:\n got: %q\nwant: %q", got, want)
	}
}

// TestMatrixWriteCSVShape pins the matrix CSV header and row count:
// one row per (cell, size, algo).
func TestMatrixWriteCSVShape(t *testing.T) {
	sc := scenarios.New(scenarios.OracleSydney, netem.WiFi, 3)
	sc.RTT = 35 * time.Millisecond
	cell := MatrixCell{
		Scenario:    sc,
		Sizes:       []int64{512 << 10, 2 << 20},
		Algos:       matrixAlgos,
		FCT:         [][]stats.Summary{{{Mean: 1}, {Mean: 2}, {Mean: 3}, {Mean: 7}}, {{Mean: 4}, {Mean: 5}, {Mean: 6}, {Mean: 8}}},
		Loss:        [][]float64{{0.01, 0.02, 0.03, 0.07}, {0.04, 0.05, 0.06, 0.08}},
		Improvement: []float64{0.1, 0.2},
	}
	res := MatrixResult{Cells: []MatrixCell{cell, cell}}
	var b bytes.Buffer
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	wantHeader := "cell,scenario,rtt_ms,btlbw_mbps,size_bytes,algo,fct_mean_s,loss,improvement"
	if lines[0] != wantHeader {
		t.Errorf("header = %q, want %q", lines[0], wantHeader)
	}
	wantRows := len(res.Cells) * len(cell.Sizes) * len(cell.Algos)
	if len(lines)-1 != wantRows {
		t.Errorf("row count = %d, want %d", len(lines)-1, wantRows)
	}
	wantFirst := "e3,oracle-sydney/wifi,35,100,524288,bbr,1.000000,0.010000,0.1000"
	if lines[1] != wantFirst {
		t.Errorf("first row = %q, want %q", lines[1], wantFirst)
	}
}
