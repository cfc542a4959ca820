package cc

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestMinRTTTracker(t *testing.T) {
	var m MinRTTTracker
	if m.Get() != 0 {
		t.Fatal("zero tracker should report 0")
	}
	if !m.Update(100*time.Millisecond, time.Second) {
		t.Fatal("first sample should lower the minimum")
	}
	if m.Update(150*time.Millisecond, 2*time.Second) {
		t.Fatal("larger sample should not lower the minimum")
	}
	if !m.Update(80*time.Millisecond, 3*time.Second) {
		t.Fatal("smaller sample should lower the minimum")
	}
	if m.Get() != 80*time.Millisecond {
		t.Errorf("min = %v, want 80ms", m.Get())
	}
	if m.SetAt() != 3*time.Second {
		t.Errorf("setAt = %v, want 3s", m.SetAt())
	}
	if m.Update(0, 4*time.Second) {
		t.Fatal("zero sample must be ignored")
	}
}

func TestWindowedMaxBasics(t *testing.T) {
	w := MakeWindowedMax(10)
	w.Update(100, 1)
	if w.Get() != 100 {
		t.Fatalf("Get = %v, want 100", w.Get())
	}
	w.Update(50, 2) // lower sample keeps the max
	if w.Get() != 100 {
		t.Fatalf("Get = %v, want 100", w.Get())
	}
	w.Update(200, 3) // higher sample replaces immediately
	if w.Get() != 200 {
		t.Fatalf("Get = %v, want 200", w.Get())
	}
}

func TestWindowedMaxExpiry(t *testing.T) {
	w := MakeWindowedMax(10)
	w.Update(200, 0)
	for tick := uint64(1); tick <= 25; tick++ {
		w.Update(50, tick)
	}
	if w.Get() != 50 {
		t.Fatalf("stale max survived: Get = %v, want 50", w.Get())
	}
}

// Property: the filter never reports a value larger than the largest
// sample seen in the window, and never smaller than the most recent
// sample.
func TestWindowedMaxProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := MakeWindowedMax(10)
		var history []maxSample
		for tick := uint64(0); tick < 100; tick++ {
			v := rng.Float64()*100 + 1
			w.Update(v, tick)
			history = append(history, maxSample{v, tick})

			// Max over the full history is an upper bound; the latest
			// sample is a lower bound.
			var hi float64
			for _, s := range history {
				if s.v > hi {
					hi = s.v
				}
			}
			got := w.Get()
			if got > hi+1e-9 || got < v-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowedMinRTT(t *testing.T) {
	w := MakeWindowedMinRTT(10 * time.Second)
	w.Update(100*time.Millisecond, 0)
	w.Update(200*time.Millisecond, time.Second)
	if w.Get() != 100*time.Millisecond {
		t.Fatalf("min = %v, want 100ms", w.Get())
	}
	if w.Expired(5 * time.Second) {
		t.Fatal("not expired at 5s")
	}
	if !w.Expired(11 * time.Second) {
		t.Fatal("should be expired at 11s")
	}
	// After expiry, the next sample is adopted even if larger.
	w.Update(300*time.Millisecond, 12*time.Second)
	if w.Get() != 300*time.Millisecond {
		t.Fatalf("post-expiry min = %v, want 300ms", w.Get())
	}
}

func TestWindowedMinRTTIgnoresZero(t *testing.T) {
	w := MakeWindowedMinRTT(time.Second)
	w.Update(0, 0)
	if w.Get() != 0 {
		t.Fatal("zero sample should be ignored")
	}
}
