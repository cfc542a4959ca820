package cc

import (
	"testing"
	"time"
)

func roundAck(now time.Duration, cum, nxt int64, rtt time.Duration) AckEvent {
	return AckEvent{Now: now, CumAck: cum, SndNxt: nxt, RTT: rtt}
}

func TestRoundTracking(t *testing.T) {
	const ms = time.Millisecond
	var r Rounds
	if r.N != 0 {
		t.Fatalf("round = %d before any ack", r.N)
	}
	if !r.Update(roundAck(100*ms, 1448, 1448*20, 50*ms)) || r.N != 1 {
		t.Fatalf("round = %d after first ack, want 1", r.N)
	}
	// ACKs at or below the round end do not advance the round (the ACK
	// carrying exactly the end sequence is the round's last ACK).
	if r.Update(roundAck(120*ms, 1448*10, 1448*40, 50*ms)) || r.N != 1 {
		t.Fatalf("round advanced early: %d", r.N)
	}
	if r.Update(roundAck(130*ms, 1448*20, 1448*50, 50*ms)) || r.N != 1 {
		t.Fatalf("round advanced on its own end sequence: %d", r.N)
	}
	// Passing strictly beyond the end sequence starts round 2.
	if !r.Update(roundAck(150*ms, 1448*21, 1448*60, 50*ms)) || r.N != 2 {
		t.Fatalf("round = %d, want 2", r.N)
	}
	if r.Start != 150*ms || r.End != 1448*60 {
		t.Errorf("round 2 start %v end %d, want 150ms and %d", r.Start, r.End, 1448*60)
	}
}

func TestRoundsFirstAckAtZero(t *testing.T) {
	var r Rounds
	if !r.Update(roundAck(time.Millisecond, 0, 1448*10, 0)) || r.N != 1 {
		t.Fatalf("an ACK at CumAck 0 left round %d, want 1", r.N)
	}
	if r.Update(roundAck(2*time.Millisecond, 0, 1448*10, 0)) || r.N != 1 {
		t.Fatalf("a second ACK at CumAck 0 moved the round to %d", r.N)
	}
}

func TestRoundsMinima(t *testing.T) {
	const ms = time.Millisecond
	var r Rounds
	r.Update(roundAck(0, 1448, 1448*10, 60*ms)) // round 1
	r.Update(roundAck(ms, 1448*2, 1448*10, 55*ms))
	r.Update(roundAck(2*ms, 1448*3, 1448*10, 0)) // no sample
	if r.RoundMin != 55*ms || r.Samples != 2 || r.Min != 55*ms || r.MinRound != 1 {
		t.Fatalf("round 1: %+v", r)
	}
	// The ACK that begins round 2 lowers the lifetime minimum in the
	// round it ends, and is round 2's first sample.
	r.Update(roundAck(3*ms, 1448*11, 1448*30, 50*ms))
	if r.N != 2 || r.Min != 50*ms || r.MinRound != 1 {
		t.Fatalf("crossing ACK: N %d Min %v MinRound %d, want 2, 50ms, 1", r.N, r.Min, r.MinRound)
	}
	if r.RoundMin != 50*ms || r.Samples != 1 || r.PrevMin != 55*ms {
		t.Fatalf("crossing ACK: RoundMin %v Samples %d PrevMin %v, want 50ms, 1, 55ms", r.RoundMin, r.Samples, r.PrevMin)
	}
	r.Update(roundAck(4*ms, 1448*12, 1448*30, 45*ms))
	if r.Min != 45*ms || r.MinRound != 2 || r.RoundMin != 45*ms || r.Samples != 2 {
		t.Fatalf("round 2 sample: %+v", r)
	}
	// A round without samples: RoundMin 0, PrevMin round 2's.
	r.Update(roundAck(5*ms, 1448*31, 1448*50, 0))
	if r.N != 3 || r.RoundMin != 0 || r.Samples != 0 || r.PrevMin != 45*ms {
		t.Fatalf("round 3: %+v", r)
	}
}
