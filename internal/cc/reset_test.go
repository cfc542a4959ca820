package cc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// renoScript drives r through n random events — ACKs in and out of
// recovery, losses, timeouts and undos — and returns the window and
// threshold after each.
func renoScript(r *Reno, rng *rand.Rand, n int) []float64 {
	out := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		switch now := time.Duration(i) * time.Millisecond; rng.Intn(10) {
		case 0:
			r.OnLoss(LossEvent{Now: now, Inflight: int64(rng.Intn(200 * 1448))})
		case 1:
			r.OnRTO(now)
		case 2:
			r.UndoRTO(now)
		default:
			r.OnAck(ack(1448*(1+rng.Intn(3)), rng.Intn(5) == 0))
		}
		out = append(out, r.CwndSegments(), r.SsthreshSegments())
	}
	return out
}

// TestRenoResetIsNew: a Reno Reset after a random life of ACKs, losses,
// timeouts and undos equals one NewReno builds, field by field, and
// then answers the same random script the same way.
func TestRenoResetIsNew(t *testing.T) {
	f := func(seed int64, life uint8, iw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		old := NewReno(renoEnv{}, RenoOptions{IW: rng.Intn(20)})
		renoScript(old, rng, int(life))
		opt := RenoOptions{IW: int(iw)}
		old.Reset(renoEnv{}, opt)
		fresh := NewReno(renoEnv{}, opt)
		if !reflect.DeepEqual(old, fresh) {
			return false
		}
		script := rng.Int63()
		return reflect.DeepEqual(renoScript(old, rand.New(rand.NewSource(script)), 200),
			renoScript(fresh, rand.New(rand.NewSource(script)), 200))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
