package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite "+quickGolden+" from what this tree prints")

const quickGolden = "testdata/quick.txt"

// wallClock matches the lines that report elapsed time, the only rows
// of sussbench's stdout that differ between two runs of one tree.
var wallClock = regexp.MustCompile(`(?m)^(\[\w+\] finished|completed) in .*\n`)

// TestQuickRenderGolden runs every experiment at the quick fidelity and
// holds stdout, less its wall-clock lines, to the committed rendering.
// The ablation, slow-start-exit, §7, Fig. 14 and testbed sweeps have no
// other test that pins their printed rows.
func TestQuickRenderGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped under -short")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-iters", "1", "-no-progress"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	got := wallClock.ReplaceAll(stdout.Bytes(), nil)
	if *update {
		if err := os.WriteFile(quickGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; ; i++ {
		if i == len(g) || i == len(w) || !bytes.Equal(g[i], w[i]) {
			t.Fatalf("stdout differs from %s at line %d (-update rewrites it if the change is meant)\ngot:  %q\nwant: %q",
				quickGolden, i+1, line(g, i), line(w, i))
		}
	}
}

func line(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return nil
}

// TestCSVWriteFailureExitsNonZero makes the -out target of fig11's CSV
// a directory: the run must report the file and exit non-zero.
func TestCSVWriteFailureExitsNonZero(t *testing.T) {
	out := t.TempDir()
	if err := os.Mkdir(filepath.Join(out, "fig11.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-iters", "1", "-no-progress", "-only", "fig11", "-out", out}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit 0 with an unwritable CSV; stderr:\n%s", stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("csv fig11.csv: ")) {
		t.Fatalf("stderr does not name the CSV:\n%s", stderr.String())
	}
}
