package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"suss/internal/cc/cctest"
	"suss/internal/obs"
)

var resetOptions = func() []Options {
	def := DefaultOptions()
	noPacing, paceAll, noGuard, k2, k3 := def, def, def, def, def
	noPacing.NoPacing = true
	paceAll.PaceEverything = true
	noGuard.NoGuard = true
	k2.Kmax, k3.Kmax = 2, 3
	return []Options{def, noPacing, paceAll, noGuard, k2, k3}
}()

// TestResetIsNew: a controller Reset after any life equals one New
// builds, field by field, and then answers the same ACKs the same way.
// Lives are seeded: a SUSS configuration, a path, and either a run cut
// the moment a pacing period is under way (its tick and end timers
// armed), or a run with a loss, an RTO and an UndoRTO forced on it and
// cut at a random time, by which the growth cap is often set. A
// recorder is attached throughout. Func fields are the callbacks Reset
// keeps bound; DeepEqual pairs the self-pointers (the host's policy is
// the controller itself) on its own.
func TestResetIsNew(t *testing.T) {
	var cutPacing, capSet, mistreated int
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lab := cctest.NewLab(rng)
		old := New(lab.Reset(), resetOptions[rng.Intn(len(resetOptions))])
		old.AttachRecorder(obs.NewRegistry(0).Flow(1))
		if seed%2 == 1 {
			lab.Run(old, time.Minute, func() bool {
				return old.pacingActive && old.tickTimer.Active() && old.endTimer.Active()
			})
			if old.pacingActive {
				cutPacing++
			}
		} else {
			at := time.Duration(rng.Intn(1000)) * time.Millisecond
			lab.Mistreat(old, at)
			lab.Run(old, at+time.Duration(50+rng.Intn(2000))*time.Millisecond, nil)
			mistreated++
		}
		if old.capSet {
			capSet++
		}
		grown := cap(old.stats.GHistory)

		opt := resetOptions[rng.Intn(len(resetOptions))]
		env := lab.Reset()
		old.Reset(env, opt)
		fresh := New(env, opt)
		if len(old.stats.GHistory) != 0 || cap(old.stats.GHistory) != grown {
			t.Fatalf("seed %d: Reset left GHistory len %d cap %d, want len 0 cap %d", seed, len(old.stats.GHistory), cap(old.stats.GHistory), grown)
		}
		if !sameSuss(old, fresh) {
			t.Fatalf("seed %d: reset controller differs from a new one:\nreset %+v\nnew   %+v", seed, *old, *fresh)
		}
		got := lab.Run(old, time.Minute, nil)
		lab.Reset()
		if want := lab.Run(fresh, time.Minute, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: reset and new controllers answered %d and %d ACKs differently", seed, len(got), len(want))
		}
	}
	if cutPacing == 0 || capSet == 0 || mistreated == 0 {
		t.Fatalf("lives cut mid-pacing: %d, with the cap set: %d, with loss/RTO/undo: %d; want each", cutPacing, capSet, mistreated)
	}
	t.Logf("of 24 lives, %d were cut mid-pacing, %d set the cap, %d went through loss, RTO and undo", cutPacing, capSet, mistreated)
}

// sameSuss compares two controllers field by field, func fields aside
// (both must be bound) and an empty GHistory equal to a nil one.
func sameSuss(a, b *Suss) bool {
	fns := func(s *Suss) [3]func() { return [3]func(){s.openGateFn, s.tickFn, s.stopPacingFn} }
	fa, fb := fns(a), fns(b)
	for i := range fa {
		if fa[i] == nil || fb[i] == nil {
			return false
		}
	}
	ha, hb := a.stats.GHistory, b.stats.GHistory
	if len(ha) != 0 || len(hb) != 0 {
		return false
	}
	a.openGateFn, a.tickFn, a.stopPacingFn, a.stats.GHistory = nil, nil, nil, nil
	b.openGateFn, b.tickFn, b.stopPacingFn, b.stats.GHistory = nil, nil, nil, nil
	same := reflect.DeepEqual(a, b)
	a.openGateFn, a.tickFn, a.stopPacingFn, a.stats.GHistory = fa[0], fa[1], fa[2], ha
	b.openGateFn, b.tickFn, b.stopPacingFn, b.stats.GHistory = fb[0], fb[1], fb[2], hb
	return same
}
