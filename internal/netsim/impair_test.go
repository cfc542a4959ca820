package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"suss/internal/obs"
)

// logStage writes "name:seq" to its log for every packet it judges. It
// drops the packet whose Seq is drop and otherwise adds extra.
type logStage struct {
	name  string
	log   *[]string
	drop  int64
	extra time.Duration
}

func (s *logStage) Judge(_ time.Duration, p *Packet) ImpairVerdict {
	*s.log = append(*s.log, fmt.Sprintf("%s:%d", s.name, p.Seq))
	if p.Seq == s.drop {
		return ImpairVerdict{Drop: true, Cause: obs.DropErasure}
	}
	return ImpairVerdict{ExtraDelay: s.extra}
}

// stagesAre reports whether l's pipeline is exactly want, stage by
// stage.
func stagesAre(l *Link, want ...ImpairStage) bool {
	if len(l.impair) != len(want) {
		return false
	}
	for i, s := range want {
		if l.impair[i] != s {
			return false
		}
	}
	return true
}

// TestImpairStageOrder: a link judges its configured stages first, in
// the config's order (a last hop's loss, then its jitter), then the
// attached ones in attach order; a drop stops the pipeline, so a lost
// packet reaches neither the jitter nor an attached stage; and every
// surviving stage's delay adds to the propagation delay.
func TestImpairStageOrder(t *testing.T) {
	var log []string
	loss := &logStage{name: "loss", log: &log, drop: 1}
	jitter := &logStage{name: "jitter", log: &log, drop: -1, extra: 3 * time.Millisecond}
	a1 := &logStage{name: "a1", log: &log, drop: 2, extra: time.Millisecond}
	a2 := &logStage{name: "a2", log: &log, drop: -1}

	sim := NewSimulator()
	dst := &sink{id: 1, sim: sim}
	l := NewLink(sim, LinkConfig{Name: "l", Rate: 1e9, Delay: time.Millisecond, Impair: Impairments{loss, jitter}}, dst)
	l.AttachImpairments(a1)
	l.AttachImpairments(a2)
	for i := 0; i < 4; i++ {
		l.Enqueue(&Packet{Size: 1000, Seq: int64(i), Dst: 1})
	}
	sim.RunAll()

	want := "loss:0 jitter:0 a1:0 a2:0 loss:1 loss:2 jitter:2 a1:2 loss:3 jitter:3 a1:3 a2:3"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("stages judged\n %s\nwant\n %s", got, want)
	}
	if len(dst.pkts) != 2 || dst.pkts[0].Seq != 0 || dst.pkts[1].Seq != 3 {
		t.Fatalf("delivered %d packets, want seqs 0 and 3", len(dst.pkts))
	}
	tx := time.Duration(float64(1000*8) / 1e9 * float64(time.Second))
	if want := tx + time.Millisecond + 4*time.Millisecond; dst.at[0] != want {
		t.Errorf("first arrival %v, want %v (serialization, delay, jitter and the attached stage's extra)", dst.at[0], want)
	}
	if c := l.Counters(); c.ErasedPkts != 2 {
		t.Errorf("erased %d packets, want 2", c.ErasedPkts)
	}
}

// TestResetKeepsConfiguredStages: Path.Reset and Tree.Reset drop what
// was attached and keep each link's configured stages. An ACK mirror
// shares its forward link's stages, and attaching to either link never
// writes into the shared config's spare capacity, so each keeps its
// own attachments.
func TestResetKeepsConfiguredStages(t *testing.T) {
	var log []string
	cfgStage := &logStage{name: "cfg", log: &log, drop: -1}
	fwdExtra := &logStage{name: "fwd", log: &log, drop: -1}
	revExtra := &logStage{name: "rev", log: &log, drop: -1}

	t.Run("path", func(t *testing.T) {
		impair := make(Impairments, 1, 4) // spare capacity an append could write into
		impair[0] = cfgStage
		spec := PathSpec{Forward: []LinkConfig{
			{Name: "core", Rate: 1e9, Delay: time.Millisecond, Impair: impair},
			{Name: "last", Rate: 1e8, Delay: time.Millisecond},
		}}
		p := NewPath(NewSimulator(), spec)
		mirror := p.Rev[len(p.Rev)-1]
		if !stagesAre(p.Fwd[0], cfgStage) || !stagesAre(mirror, cfgStage) {
			t.Fatal("a new path's core link or its ACK mirror does not run the configured stage")
		}
		p.Fwd[0].AttachImpairments(fwdExtra)
		mirror.AttachImpairments(revExtra)
		p.Fwd[1].AttachImpairments(fwdExtra)
		if !stagesAre(p.Fwd[0], cfgStage, fwdExtra) || !stagesAre(mirror, cfgStage, revExtra) {
			t.Fatal("attaching to the core link and its mirror mixed their pipelines")
		}
		if spare := impair[:2][1]; spare != nil {
			t.Fatalf("an attach wrote %v into the config's spare capacity", spare)
		}
		p.Reset(spec)
		if !stagesAre(p.Fwd[0], cfgStage) || !stagesAre(mirror, cfgStage) || !stagesAre(p.Fwd[1]) {
			t.Error("Path.Reset kept an attached stage or lost a configured one")
		}
	})

	t.Run("tree", func(t *testing.T) {
		spec := smallTreeSpec()
		spec.Core.Impair = Impairments{cfgStage}
		tr := NewTree(NewSimulator(), spec)
		tr.Core.AttachImpairments(fwdExtra)
		tr.CoreRev.AttachImpairments(revExtra)
		tr.AccessDown[0].AttachImpairments(fwdExtra)
		if !stagesAre(tr.Core, cfgStage, fwdExtra) || !stagesAre(tr.CoreRev, cfgStage, revExtra) {
			t.Fatal("attaching to the core link and its mirror mixed their pipelines")
		}
		tr.Reset()
		if !stagesAre(tr.Core, cfgStage) || !stagesAre(tr.CoreRev, cfgStage) || !stagesAre(tr.AccessDown[0]) {
			t.Error("Tree.Reset kept an attached stage or lost a configured one")
		}
	})
}
