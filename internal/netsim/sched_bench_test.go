package netsim

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkSchedulerChurn models the TCP hot path: a standing
// population of armed timers where nearly every timer is cancelled or
// rearmed before it fires (ACK-clocked RTO resets, pacing kicks).
// This is the workload a comparison heap handles worst — O(log n)
// sift per mutation — and the wheel handles best: O(1) unlink+relink.
func BenchmarkSchedulerChurn(b *testing.B) {
	const population = 4096
	s := NewSimulator()
	var nop EventFunc = func(ctx, arg any) {}
	rng := rand.New(rand.NewSource(1))
	timers := make([]Timer, population)
	for i := range timers {
		timers[i] = s.ScheduleEvent(time.Duration(1+rng.Intn(int(200*time.Millisecond))), nop, nil, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & (population - 1)
		d := time.Duration(1 + rng.Intn(int(200*time.Millisecond)))
		if nt, ok := timers[k].Reset(d); ok {
			timers[k] = nt
		} else {
			timers[k] = s.ScheduleEvent(d, nop, nil, nil)
		}
		if i&1023 == 1023 {
			// Occasionally let the clock advance so cursor motion and
			// bucket drains stay in the measured mix.
			s.Run(s.Now() + time.Millisecond)
		}
	}
}

// BenchmarkSchedulerCascade arms deadlines spread across every wheel
// level (microseconds to minutes) and drains them all, measuring the
// full insert → cascade → fire cycle rather than mutation
// churn.
func BenchmarkSchedulerCascade(b *testing.B) {
	const batch = 1024
	s := NewSimulator()
	n := 0
	var tick EventFunc = func(ctx, arg any) { n++ }
	rng := rand.New(rand.NewSource(2))
	deltas := make([]time.Duration, batch)
	for i := range deltas {
		// Log-uniform over the wheel's levels: 2^0 .. 2^41 ns.
		deltas[i] = time.Duration(1) << uint(rng.Intn(42))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range deltas {
			s.ScheduleEvent(d, tick, nil, nil)
		}
		s.RunAll()
	}
	if n != b.N*batch {
		b.Fatalf("fired %d events, want %d", n, b.N*batch)
	}
}
