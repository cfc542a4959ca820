package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"suss/internal/netem"
	"suss/internal/scenarios"
)

func TestMapCollectsByIndex(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out := Map(context.Background(), items, func(_ context.Context, idx int, item int) (int, error) {
		return item * 3, nil
	}, Options{Workers: 8})
	if len(out) != len(items) {
		t.Fatalf("got %d outcomes", len(out))
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("item %d: %v", i, o.Err)
		}
		if o.Value != i*3 {
			t.Errorf("out[%d] = %d, want %d", i, o.Value, i*3)
		}
	}
}

func TestMapBoundsWorkers(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	items := make([]int, 50)
	Map(context.Background(), items, func(_ context.Context, _ int, _ int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	}, Options{Workers: workers})
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestMapCapturesPanics(t *testing.T) {
	items := []int{0, 1, 2, 3}
	out := Map(context.Background(), items, func(_ context.Context, idx int, _ int) (string, error) {
		if idx == 2 {
			panic("simulated crash")
		}
		return "ok", nil
	}, Options{Workers: 2})
	for i, o := range out {
		if i == 2 {
			var pe *PanicError
			if !errors.As(o.Err, &pe) {
				t.Fatalf("item 2: want PanicError, got %v", o.Err)
			}
			if pe.Index != 2 || pe.Value != "simulated crash" || len(pe.Stack) == 0 {
				t.Errorf("PanicError = %+v", pe)
			}
			continue
		}
		if o.Err != nil || o.Value != "ok" {
			t.Errorf("item %d: %q, %v", i, o.Value, o.Err)
		}
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 20)
	out := Map(ctx, items, func(_ context.Context, idx int, _ int) (int, error) {
		if idx == 2 {
			cancel()
		}
		return idx, nil
	}, Options{Workers: 1})
	// With one worker, jobs run in index order: the first three finish,
	// everything after the cancellation errors out.
	for i := 0; i <= 2; i++ {
		if out[i].Err != nil {
			t.Errorf("item %d: unexpected error %v", i, out[i].Err)
		}
	}
	errored := 0
	for _, o := range out[3:] {
		if errors.Is(o.Err, context.Canceled) {
			errored++
		}
	}
	if errored != len(items)-3 {
		t.Errorf("%d/%d post-cancel jobs carry ctx error", errored, len(items)-3)
	}
}

func TestMapProgress(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	total := 0
	items := make([]int, 17)
	Map(context.Background(), items, func(_ context.Context, _ int, _ int) (int, error) {
		return 0, nil
	}, Options{Workers: 4, Progress: func(done, tot int) {
		mu.Lock()
		dones = append(dones, done)
		total = tot
		mu.Unlock()
	}})
	if total != len(items) || len(dones) != len(items) {
		t.Fatalf("progress calls = %d, total = %d", len(dones), total)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("done sequence not strictly increasing: %v", dones)
		}
	}
}

func TestRunReportsIncomplete(t *testing.T) {
	// 64 MB over a ~300 Mbps wired path cannot finish inside a 100 ms
	// horizon: the job must come back as an ErrIncomplete result, not a
	// panic.
	sc := scenarios.New(scenarios.GoogleTokyo, netem.Wired, 1)
	res := Run(context.Background(), []Job{
		{Scenario: sc, Algo: Cubic, Size: 64 << 20, Horizon: 100 * time.Millisecond},
		{Scenario: sc, Algo: Cubic, Size: 64 << 10},
	}, Options{Workers: 2})
	if !errors.Is(res[0].Err, ErrIncomplete) {
		t.Errorf("short horizon: want ErrIncomplete, got %v", res[0].Err)
	}
	if res[0].Completed {
		t.Error("short horizon flow reported completed")
	}
	if res[1].Err != nil || !res[1].Completed {
		t.Errorf("64 KB flow should complete: %v", res[1].Err)
	}
}

// The retired Domains split is refused loudly, never silently run
// monolithic: through Run the panic surfaces as a *PanicError result
// naming the removal, and the rest of the sweep still completes.
func TestRunRefusesRetiredDomains(t *testing.T) {
	sc := scenarios.New(scenarios.GoogleTokyo, netem.Wired, 1)
	res := Run(context.Background(), []Job{
		{Scenario: sc, Algo: Cubic, Size: 64 << 10, Domains: 2},
		{Scenario: sc, Algo: Cubic, Size: 64 << 10, Domains: 1},
	}, Options{Workers: 2})
	var pe *PanicError
	if !errors.As(res[0].Err, &pe) || !strings.Contains(pe.Error(), "parallel event domains were removed") {
		t.Errorf("Domains=2: want a PanicError naming the removal, got %v", res[0].Err)
	}
	if res[1].Err != nil || !res[1].Completed {
		t.Errorf("Domains=1 job beside the refused one should complete: %v", res[1].Err)
	}
}

// TestDownloadUnknownBackend pins the failure mode for a backend the
// runner does not drive — a typo, or the retired wall-clock "pipe":
// loud, not a silent fallback to the simulator. "sim" spells the
// default.
func TestDownloadUnknownBackend(t *testing.T) {
	sc := scenarios.New(scenarios.GoogleTokyo, netem.Wired, 1)
	for _, be := range []string{"carrier-pigeon", "pipe"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("backend %q should panic", be)
				}
			}()
			Download(Job{Scenario: sc, Algo: Cubic, Size: 1 << 10, Backend: be})
		}()
	}
	if r := Download(Job{Scenario: sc, Algo: Cubic, Size: 1 << 10, Backend: "sim"}); !r.Completed {
		t.Errorf(`backend "sim" did not complete: %+v`, r)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	sc := scenarios.New(scenarios.GoogleTokyo, netem.LTE4G, 7)
	var jobs []Job
	for _, algo := range []Algo{Cubic, Suss} {
		for it := 0; it < 3; it++ {
			jobs = append(jobs, Job{Scenario: sc, Algo: algo, Size: 256 << 10, Iter: it})
		}
	}
	seq := Run(context.Background(), jobs, Options{Workers: 1})
	par := Run(context.Background(), jobs, Options{Workers: 4})
	for i := range jobs {
		if seq[i].DownloadResult != par[i].DownloadResult {
			t.Errorf("job %d differs across worker counts:\n  seq: %+v\n  par: %+v",
				i, seq[i].DownloadResult, par[i].DownloadResult)
		}
	}
}

func TestJobIterPerturbsSeed(t *testing.T) {
	sc := scenarios.New(scenarios.GoogleTokyo, netem.LTE4G, 5)
	a := Download(Job{Scenario: sc, Algo: Suss, Size: 1 << 20, Iter: 3})
	b := Download(Job{Scenario: sc, Algo: Suss, Size: 1 << 20, Iter: 3})
	if a != b {
		t.Errorf("same iter differs: %+v vs %+v", a, b)
	}
	c := Download(Job{Scenario: sc, Algo: Suss, Size: 1 << 20, Iter: 4})
	if c.FCT == a.FCT {
		t.Log("different iters gave identical FCT (possible but unlikely on 4G)")
	}
}
