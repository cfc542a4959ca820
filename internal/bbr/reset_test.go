package bbr

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"suss/internal/cc/cctest"
	"suss/internal/obs"
)

// TestResetIsNew: a controller Reset after any life equals one New
// builds, field by field, and then answers the same ACKs the same way.
// Lives are seeded: a variant (v1, v2, SUSS-boosted STARTUP), a path,
// and a run with a loss, an RTO and an UndoRTO forced on it at a random
// time (which disables a boost), cut at a random time, possibly before
// the loss. A recorder is attached throughout.
func TestResetIsNew(t *testing.T) {
	opts := []Options{DefaultOptions(), V2Options(), SUSSOptions()}
	var boostOff, undone int
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lab := cctest.NewLab(rng)
		old := New(lab.Reset(), opts[rng.Intn(len(opts))])
		old.AttachRecorder(obs.NewRegistry(0).Flow(1))
		at := time.Duration(rng.Intn(1000)) * time.Millisecond
		lab.Mistreat(old, at)
		lab.Run(old, time.Duration(rng.Intn(2000))*time.Millisecond, nil)
		if old.boost.disabled {
			boostOff++
		}
		if lab.Sim.Now() > at+50*time.Millisecond {
			undone++
		}

		opt := opts[rng.Intn(len(opts))]
		env := lab.Reset()
		old.Reset(env, opt)
		fresh := New(env, opt)
		if !reflect.DeepEqual(old, fresh) {
			t.Fatalf("seed %d: reset controller differs from a new one:\nreset %+v\nnew   %+v", seed, *old, *fresh)
		}
		got := lab.Run(old, time.Minute, nil)
		lab.Reset()
		if want := lab.Run(fresh, time.Minute, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: reset and new controllers answered %d and %d ACKs differently", seed, len(got), len(want))
		}
	}
	if boostOff == 0 || undone == 0 {
		t.Fatalf("lives that disabled a boost: %d, that got past the undo: %d; want both", boostOff, undone)
	}
	t.Logf("of 24 lives, %d disabled a boost, %d got past loss, RTO and undo", boostOff, undone)
}
