package cubic

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"suss/internal/cc/cctest"
	"suss/internal/obs"
)

// TestResetIsNew: a controller Reset after any life equals one New
// builds, field by field (DeepEqual pairs the policies' pointers back
// to their hosts on its own), and then answers the same ACKs the same
// way. Lives are seeded: a slow-start policy (classic HyStart,
// HyStart++ or plain doubling), a path, and either a run cut in slow
// start once the policy holds round state, or a run with a loss, an
// RTO and an UndoRTO forced on it and cut at a random time. A recorder
// is attached throughout.
func TestResetIsNew(t *testing.T) {
	hspp, plain := DefaultOptions(), DefaultOptions()
	hspp.HyStartPP = true
	plain.HyStart = false
	opts := []Options{DefaultOptions(), hspp, plain}
	var cutSlowStart, mistreated int
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lab := cctest.NewLab(rng)
		old := New(lab.Reset(), opts[rng.Intn(len(opts))])
		old.AttachRecorder(obs.NewRegistry(0).Flow(1))
		if seed%2 == 1 {
			lab.Run(old, time.Minute, func() bool {
				return old.InSlowStart() && (old.hy.samples > 0 || old.hpp.inCSS)
			})
			if old.InSlowStart() && (old.hy.samples > 0 || old.hpp.inCSS) {
				cutSlowStart++
			}
		} else {
			at := time.Duration(rng.Intn(1000)) * time.Millisecond
			lab.Mistreat(old, at)
			lab.Run(old, at+time.Duration(50+rng.Intn(2000))*time.Millisecond, nil)
			mistreated++
		}

		opt := opts[rng.Intn(len(opts))]
		env := lab.Reset()
		old.Reset(env, opt, nil)
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
	if cutSlowStart == 0 || mistreated == 0 {
		t.Fatalf("lives cut in slow start: %d, with loss/RTO/undo: %d; want both", cutSlowStart, mistreated)
	}
	t.Logf("of 24 lives, %d were cut in slow start holding policy state, %d went through loss, RTO and undo", cutSlowStart, mistreated)
}
