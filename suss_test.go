package suss

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRunBasic(t *testing.T) {
	cfg := PathConfig{RateMbps: 100, RTT: 100 * time.Millisecond, BufferBDP: 1}
	res, err := Run(cfg, CUBICWithSUSS, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredBytes != 2<<20 {
		t.Errorf("delivered %d", res.DeliveredBytes)
	}
	if res.FCT <= 0 {
		t.Errorf("FCT = %v", res.FCT)
	}
	if res.MaxG < 4 {
		t.Errorf("MaxG = %d, want ≥4 on a 100 Mbps × 100 ms path", res.MaxG)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(PathConfig{RTT: time.Second, RateMbps: 0}, CUBIC, 1); err == nil {
		t.Error("zero rate must error")
	}
	if _, err := Run(PathConfig{RateMbps: 10}, CUBIC, 1); err == nil {
		t.Error("zero RTT must error")
	}
	if _, err := Run(PathConfig{RateMbps: 10, RTT: time.Second}, CUBIC, 0); err == nil {
		t.Error("zero size must error")
	}
	if _, err := Run(PathConfig{RateMbps: 10, RTT: time.Second, Link: "carrier-pigeon"}, CUBIC, 1); err == nil {
		t.Error("unknown link type must error")
	}
}

// Regression: RunScenario used to accept a non-positive size and report
// it as a scenario that "did not complete". Both entry points share one
// validation.
func TestNonPositiveSizeRejected(t *testing.T) {
	cfg := PathConfig{RateMbps: 10, RTT: time.Second}
	entries := map[string]func(size int64) error{
		"Run": func(size int64) error { _, err := Run(cfg, CUBIC, size); return err },
		"RunScenario": func(size int64) error {
			_, err := RunScenario(Scenarios()[0], CUBIC, size, 1)
			return err
		},
	}
	for name, run := range entries {
		for _, size := range []int64{0, -5} {
			err := run(size)
			if err == nil || !strings.Contains(err.Error(), "size must be positive") {
				t.Errorf("%s(size %d) = %v, want a size-must-be-positive error", name, size, err)
			}
		}
	}
}

func TestCompareFCTHeadline(t *testing.T) {
	cfg := PathConfig{RateMbps: 100, RTT: 120 * time.Millisecond, BufferBDP: 1}
	_, _, imp, err := CompareFCT(cfg, CUBIC, CUBICWithSUSS, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if imp < 0.15 {
		t.Errorf("improvement %.1f%%, want ≥15%% (paper: >20%%)", 100*imp)
	}
}

func TestRunTrace(t *testing.T) {
	cfg := PathConfig{RateMbps: 50, RTT: 50 * time.Millisecond}
	res, pts, err := RunTrace(cfg, CUBIC, 1<<20, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no trace points")
	}
	// Sampling is rate-limited, so the last point may precede the final
	// ACK slightly — but it must be close to, and never beyond, the
	// transfer size.
	last := pts[len(pts)-1]
	if last.Delivered > res.DeliveredBytes || last.Delivered < res.DeliveredBytes*9/10 {
		t.Errorf("trace end delivered %d vs result %d", last.Delivered, res.DeliveredBytes)
	}
}

func TestScenariosCatalog(t *testing.T) {
	all := Scenarios()
	if len(all) != 28 {
		t.Fatalf("got %d scenarios", len(all))
	}
	found := false
	for _, s := range all {
		if s == "google-tokyo/4g" {
			found = true
		}
		if !strings.Contains(string(s), "/") {
			t.Errorf("malformed scenario name %q", s)
		}
	}
	if !found {
		t.Error("google-tokyo/4g missing from catalog")
	}
}

func TestRunScenario(t *testing.T) {
	res, err := RunScenario("oracle-london/5g", BBRv1, 512<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredBytes != 512<<10 {
		t.Errorf("delivered %d", res.DeliveredBytes)
	}
	if _, err := RunScenario("atlantis/6g", CUBIC, 1<<20, 1); err == nil {
		t.Error("unknown scenario must error")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	want := map[Algorithm]string{
		CUBIC: "cubic", CUBICWithSUSS: "cubic+suss", BBRv1: "bbr", BBRv2Lite: "bbr2",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), s)
		}
	}
}

func TestKmaxOverride(t *testing.T) {
	cfg := PathConfig{RateMbps: 500, RTT: 200 * time.Millisecond, BufferBDP: 1, Kmax: 2}
	res, err := Run(cfg, CUBICWithSUSS, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxG < 8 {
		t.Errorf("Kmax=2 on a huge-BDP path: MaxG = %d, want 8", res.MaxG)
	}
}

func TestRunFairnessValidation(t *testing.T) {
	if _, err := RunFairness(FairnessConfig{}); err == nil {
		t.Error("zero RTT must error")
	}
	// Defaults fill in: short run must produce a series.
	res, err := RunFairness(FairnessConfig{
		RTT:       50 * time.Millisecond,
		BufferBDP: 1,
		JoinAt:    5 * time.Second,
		Horizon:   15 * time.Second,
		WithSUSS:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jain) == 0 {
		t.Fatal("no Jain series")
	}
	for _, f := range res.Jain {
		if f < 0 || f > 1.000001 {
			t.Fatalf("Jain index %v out of range", f)
		}
	}
}

func TestRunWebWorkloadValidation(t *testing.T) {
	if _, err := RunWebWorkload(0, 1, 1); err == nil {
		t.Error("zero flows must error")
	}
	if _, err := RunWebWorkload(5, 0, 1); err == nil {
		t.Error("zero rate must error")
	}
	res, err := RunWebWorkload(10, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows != 10 || res.AllOff.MeanFCT <= 0 || res.AllOn.MeanFCT <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

// TestObservedRunExportsAreReproducible pins the flight recorder's
// determinism on a run with burst losses (229 retransmits): several
// segments are marked lost by one ACK, and their EvLossDetected records
// must land in the same (ascending sequence) order every time — they
// used to follow Go's map iteration order, so the exported log differed
// from run to run.
func TestObservedRunExportsAreReproducible(t *testing.T) {
	cfg := PathConfig{Link: LTE4G, RateMbps: 50, RTT: 100 * time.Millisecond, BufferBDP: 0.3, Seed: 3}
	var jsonl, csv [3]bytes.Buffer
	for i := range jsonl {
		res, fr, err := RunObserved(cfg, Reno, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		if res.Retransmissions == 0 {
			t.Fatal("the run lost nothing; it does not exercise loss-event ordering")
		}
		if err := fr.WriteEventsJSONL(&jsonl[i]); err != nil {
			t.Fatal(err)
		}
		if err := fr.WriteEventsCSV(&csv[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(jsonl); i++ {
		if !bytes.Equal(jsonl[0].Bytes(), jsonl[i].Bytes()) {
			t.Errorf("JSONL export of run %d differs from run 0", i)
		}
		if !bytes.Equal(csv[0].Bytes(), csv[i].Bytes()) {
			t.Errorf("CSV export of run %d differs from run 0", i)
		}
	}
}
