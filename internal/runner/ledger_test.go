package runner

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/scenarios"
	"suss/internal/tcp"
)

// wiredLossy builds a fully deterministic wired path whose only loss
// source is drop-tail overflow at the last hop: no random erasures, no
// jitter, no rate variation, and a buffer well under a BDP so
// slow-start overshoot must drop.
func wiredLossy(seed int64) scenarios.Scenario {
	prof := netem.DefaultProfile(netem.Wired, 20e6)
	prof.BufferBDPs = 0.3
	return scenarios.Scenario{
		Server:   scenarios.GoogleTokyo,
		Link:     netem.Wired,
		RTT:      80 * time.Millisecond,
		LastHop:  prof,
		CoreRate: 1e9,
		Seed:     seed,
	}
}

// TestLedgerConsistencyWiredDroptail is the flight recorder's
// end-to-end books-balance check: on a deterministic wired path where
// the only losses are qdisc tail drops, the sender's loss detector
// must account for exactly the packets the path dropped, and the
// retransmit-cause partition must add up.
func TestLedgerConsistencyWiredDroptail(t *testing.T) {
	for _, algo := range []Algo{Cubic, Suss} {
		t.Run(algo.String(), func(t *testing.T) {
			res := Download(Job{Scenario: wiredLossy(3), Algo: algo, Size: 4 << 20, Observe: true})
			if !res.Completed {
				t.Fatal("flow did not complete")
			}
			l := res.Ledger
			if l == nil {
				t.Fatal("Observe job returned nil ledger")
			}
			for _, p := range l.Check() {
				t.Errorf("ledger inconsistent: %s", p)
			}
			if l.PathErasures != 0 {
				t.Fatalf("wired path recorded %d erasures, want 0", l.PathErasures)
			}
			if l.PathDataDrops == 0 {
				t.Fatal("scenario produced no drops; the consistency check is vacuous")
			}
			if l.SegsRetrans != l.RetransFast+l.RetransRTO+l.RetransTLP {
				t.Errorf("retransmit causes do not partition: retrans=%d fast=%d rto=%d tlp=%d",
					l.SegsRetrans, l.RetransFast, l.RetransRTO, l.RetransTLP)
			}
			// With neither RTOs nor TLP probes, every retransmission is
			// loss-detector driven and every qdisc drop must be seen by
			// the detector exactly once.
			if l.RTOFires == 0 && l.TLPFires == 0 {
				if l.SpuriousRetrans != 0 {
					t.Errorf("deterministic drop-tail run flagged %d spurious retransmits", l.SpuriousRetrans)
				}
				if l.PathDataDrops != l.LossDetected {
					t.Errorf("qdisc drops (%d) != sender-detected losses (%d)", l.PathDataDrops, l.LossDetected)
				}
				if l.SegsRetrans != l.LossDetected {
					t.Errorf("retransmissions (%d) != detected losses (%d)", l.SegsRetrans, l.LossDetected)
				}
			} else {
				t.Logf("recovery used RTO/TLP (rtos=%d tlps=%d); strict drop==detected identity not applicable",
					l.RTOFires, l.TLPFires)
			}
			// The ledger must agree with the legacy per-sender stats: both
			// count the same retransmissions and RTO firings.
			if int(l.SegsRetrans) != res.Retrans {
				t.Errorf("ledger retrans %d != Stats().Retransmissions %d", l.SegsRetrans, res.Retrans)
			}
			if int(l.RTOFires) != res.RTOs {
				t.Errorf("ledger RTO fires %d != Stats().RTOs %d", l.RTOFires, res.RTOs)
			}
		})
	}
}

// TestObserveDoesNotChangeOutcome pins the recorder's zero-overhead
// contract at the result level: attaching it must not perturb the
// simulation.
func TestObserveDoesNotChangeOutcome(t *testing.T) {
	base := Download(Job{Scenario: wiredLossy(3), Algo: Suss, Size: 2 << 20})
	obs := Download(Job{Scenario: wiredLossy(3), Algo: Suss, Size: 2 << 20, Observe: true})
	obs.Ledger = nil
	if base != obs {
		t.Errorf("observed run diverged from unobserved run:\n  base: %+v\n  obs:  %+v", base, obs)
	}
}

// TestAbortedFlowCounters pins the one SenderStats field that is not a
// plain copy of a counter: Stats().RTOs counts every timeout that
// fired, the one that tripped MaxConsecRTOs included, while rto_fires
// leaves that one to flow_aborts. The flow's last hop dies 50 ms in, so
// it gives up; its sender's and every link's Stats are the same whether
// the run is observed or not.
func TestAbortedFlowCounters(t *testing.T) {
	transport := tcp.DefaultConfig()
	transport.MaxConsecRTOs = 3
	run := func(observe bool) (DownloadResult, tcp.SenderStats, []netsim.LinkStats) {
		var env ChaosEnv
		res := Download(Job{
			Scenario:  scenarios.New(scenarios.OracleLondon, netem.Wired, 1),
			Algo:      Cubic,
			Size:      1 << 20,
			Observe:   observe,
			Transport: &transport,
			Impair: func(e ChaosEnv) {
				env = e
				e.Path.Fwd[len(e.Path.Fwd)-1].AttachImpairments(&netem.Outage{Windows: []netem.Window{
					{Start: 50 * time.Millisecond, End: time.Duration(math.MaxInt64)},
				}})
			},
		})
		var links []netsim.LinkStats
		for _, l := range env.Path.Fwd {
			links = append(links, l.Stats())
		}
		for _, l := range env.Path.Rev {
			links = append(links, l.Stats())
		}
		return res, env.Flow.Sender.Stats(), links
	}
	res, st, links := run(true)
	if !errors.Is(res.FlowErr, tcp.ErrRetransLimit) {
		t.Fatalf("flow error = %v, want ErrRetransLimit", res.FlowErr)
	}
	if l := res.Ledger; st.RTOs != 4 || res.RTOs != 4 || l.RTOFires != 3 || l.FlowAborts != 1 {
		t.Errorf("Stats().RTOs %d, result RTOs %d, rto_fires %d, flow_aborts %d; want 4, 4, 3, 1",
			st.RTOs, res.RTOs, l.RTOFires, l.FlowAborts)
	}
	_, offSt, offLinks := run(false)
	if offSt != st {
		t.Errorf("sender stats differ with observation off:\n on  %+v\n off %+v", st, offSt)
	}
	if !reflect.DeepEqual(offLinks, links) {
		t.Errorf("link stats differ with observation off:\n on  %+v\n off %+v", links, offLinks)
	}
}
