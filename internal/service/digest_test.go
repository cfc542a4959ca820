package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"suss/internal/chaos"
	"suss/internal/netem"
	"suss/internal/runner"
	"suss/internal/scenarios"
)

// fig11GoldenSHA is the SHA-256 of the seed-1 fig11 CSV
// (`{"kind":"fig11"}`: 252 cells), the figure's reference bytes.
const fig11GoldenSHA = "b43ce3ce8986e0f06395f2ef90632bcee2ca4345666faf25131c3958775b1b37"

// behaviourDigest is the SHA-256 of the cache records the simulator
// produces for TestBehaviourDigest's inputs. The cache keys a cell by
// its config alone, so a change that moves any of these bytes makes
// every cache file written before it serve results the code no longer
// computes. A change that moves it on purpose reads the new digest from
// the test's -v log and edits this one constant.
const behaviourDigest = "2ffb86a845cab81c2c9f4286329f9049d2c6838f6d4a119e398ddbe3af41953a"

// TestBehaviourDigest pins what the code computes, through the same
// encoders the daemon persists with: the seed-1 fig11 matrix (whose CSV
// must also be the golden one), a 400-flow fleet shard per variant, a
// Reno cell losing thousands of segments at once on a wired path, and
// a hardened-transport chaos cell under burst loss.
func TestBehaviourDigest(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("simulates 256 cells")
	}
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(context.Background()) })
	h := sha256.New()
	record := func(raw []byte) {
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	for _, req := range []SubmitRequest{{Kind: "fig11"}, {Kind: "fleet", Flows: 400, Shards: 1}} {
		resp, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		b := s.batch(resp.ID)
		<-b.done
		st, _ := b.status(true)
		if st.State != stateDone {
			t.Fatalf("%s batch %s: %s", req.Kind, st.State, st.Error)
		}
		for _, c := range st.Detail {
			raw, ok := s.cache.Get(c.Key)
			if !ok {
				t.Fatalf("%s cell %s (%s) was not cached", req.Kind, c.Key, c.Status)
			}
			record(raw)
		}
		record(b.csv)
		if sum := sha256.Sum256(b.csv); req.Kind == "fig11" && hex.EncodeToString(sum[:]) != fig11GoldenSHA {
			t.Errorf("fig11 CSV sha256 %x, golden %s", sum, fig11GoldenSHA)
		}
	}

	for _, j := range digestLossJobs() {
		res, _ := jobCell(j, runner.Download(j))
		raw, err := encodeJobCell(res)
		if err != nil {
			t.Fatal(err)
		}
		record(raw)
		t.Logf("%s %s: %d segments, %d retransmitted, err %v", j.Scenario.Name(), j.Algo, res.Segments, res.Retrans, res.Err)
	}

	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("behaviour digest %s", got)
	if got != behaviourDigest {
		t.Errorf("behaviour moved: regenerate the epoch (digest %s, pinned %s)", got, behaviourDigest)
	}
}

// digestLossJobs are the digest's two loss-heavy cells: a Reno cell
// losing thousands of segments at once on a wired path, and a
// hardened-transport chaos cell under burst loss.
func digestLossJobs() []runner.Job {
	hardened := chaos.HardenedTransport()
	var burst chaos.Impairment
	for _, imp := range chaos.Catalog() {
		if imp.Name == "burst-loss" {
			burst = imp
		}
	}
	return []runner.Job{
		{Scenario: scenarios.New(scenarios.GoogleUSEast, netem.Wired, 1), Algo: runner.Reno, Size: 33 << 20},
		{
			Scenario: scenarios.New(scenarios.OracleLondon, netem.Wired, 1), Algo: runner.Suss, Size: 4 << 20,
			Observe: true, Transport: &hardened,
			Impair: func(env runner.ChaosEnv) { burst.Attach(env, rand.New(rand.NewSource(env.Seed^0x5eed0fc4a05))) },
		},
	}
}
