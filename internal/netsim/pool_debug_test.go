//go:build sussdebug

package netsim

import (
	"testing"
	"time"
)

// These tests exercise the lifecycle detector that only exists under
// the sussdebug build tag: go test -tags sussdebug ./internal/netsim

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestDoubleReleasePanics(t *testing.T) {
	s := NewSimulator()
	p := s.Pool().Get()
	p.Release()
	mustPanic(t, "double release", func() { p.Release() })
}

func TestRetainAfterReleasePanics(t *testing.T) {
	s := NewSimulator()
	snk := &sink{id: 1, sim: s}
	l := NewLink(s, LinkConfig{Name: "l", Rate: 1e9, Delay: time.Millisecond}, snk)

	p := s.Pool().Get()
	p.Size = 1500
	p.Dst = 1
	p.Release()
	// A component touching a released packet must fail loudly.
	mustPanic(t, "enqueue after release", func() { l.Enqueue(p) })

	h := NewHost(2, "h")
	h.SetHandler(func(*Packet) {})
	mustPanic(t, "deliver after release", func() { h.Deliver(p) })
}

func TestSequesterNeverRecycles(t *testing.T) {
	s := NewSimulator()
	pool := s.Pool()
	a := pool.Get()
	a.Release()
	b := pool.Get()
	if a == b {
		t.Fatal("sussdebug pool recycled a released packet; stale pointers would be revalidated")
	}
	b.Release()
	if got := pool.Stats().Recycled; got != 0 {
		t.Fatalf("Recycled = %d, want 0 under sussdebug", got)
	}
	if got := pool.Stats().Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d, want 0", got)
	}
}

// TestLifecycleDetectorSecondLife: Reset starts a new life for the
// pool — the packets the first life released are handed out again, live
// — and the detector is as strict in it as in the first.
func TestLifecycleDetectorSecondLife(t *testing.T) {
	s := NewSimulator()
	pool := s.Pool()
	first := pool.Get()
	first.Release()
	mustPanic(t, "double release, first life", func() { first.Release() })

	s.Reset()
	snk := &sink{id: 1, sim: s}
	l := NewLink(s, LinkConfig{Name: "l", Rate: 1e9, Delay: time.Millisecond}, snk)
	p := pool.Get()
	if p != first {
		t.Fatalf("second life's first packet is %p, want the first slab packet %p", p, first)
	}
	p.Size, p.Dst = 1500, 1
	l.Enqueue(p) // live again: must not trip the detector
	s.RunAll()
	if len(snk.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(snk.pkts))
	}
	p.Release()
	mustPanic(t, "double release, second life", func() { p.Release() })
	mustPanic(t, "enqueue after release, second life", func() { l.Enqueue(p) })

	// Still sequestered within the life: the released packet is not
	// served again, and a never-used slab-mate is not a recycled one.
	if q := pool.Get(); q == p {
		t.Fatal("second life recycled a released packet")
	}
	if got := pool.Stats().Recycled; got != 0 {
		t.Fatalf("Recycled = %d, want 0 under sussdebug", got)
	}
}
