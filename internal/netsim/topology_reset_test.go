package netsim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"suss/internal/obs"
)

// Path.Reset and Tree.Reset promise "a reset topology is a new one".
// These tests leave a topology mid-run — packets queued and on the
// lines, a recorder and impairments on every link —
// reset it with its engine, and hold it to a fresh build on a fresh
// engine: link by link, route by route, and under one reference script
// whose every delivery and final counter must match.

// linkSnap is what of a link a fresh build fixes. The config's funcs
// and stages cannot be compared, so only whether each func is set is,
// and how many stages the config and the link's pipeline hold.
type linkSnap struct {
	Cfg         LinkConfig
	Funcs       [2]bool // RateModel, Qdisc
	Stages      [2]int  // cfg.Impair, the link's pipeline
	Dst         NodeID
	Qdisc       Qdisc
	Busy        bool
	LastArrival time.Duration
	Line        pktFIFO
	Counters    obs.LinkCounters
	Rec         *obs.LinkRecorder
}

func snapLink(l *Link) linkSnap {
	c := l.cfg
	s := linkSnap{
		Funcs:  [2]bool{c.RateModel != nil, c.Qdisc != nil},
		Stages: [2]int{len(c.Impair), len(l.impair)},
		Dst:    l.dst.ID(), Qdisc: l.qdisc, Busy: l.busy, LastArrival: l.lastArrival, Line: l.line,
		Counters: l.c, Rec: l.rec,
	}
	c.RateModel, c.Impair, c.Qdisc = nil, nil, nil
	s.Cfg = c
	return s
}

// routeSnap lists, per router and destination, the index in links of
// the route's link (-1: none).
func routeSnap(routers []*Router, links []*Link) [][]int {
	out := make([][]int, len(routers))
	for i, r := range routers {
		for _, l := range r.routes {
			k := -1
			for j, m := range links {
				if m == l {
					k = j
				}
			}
			out[i] = append(out[i], k)
		}
	}
	return out
}

// thirdStage corrupts every third packet and sends the one after it
// out of band, late: an impairment whose verdicts the dirty phase's
// traffic cannot miss, and which leaves deliveries off the line.
type thirdStage struct{}

func (thirdStage) Judge(_ time.Duration, p *Packet) ImpairVerdict {
	if p.Seq%3 == 1 {
		return ImpairVerdict{OutOfBand: true, ExtraDelay: 300 * time.Microsecond}
	}
	return ImpairVerdict{Drop: p.Seq%3 == 0, Cause: obs.DropCorrupt}
}

// blast has every host send burst pooled packets to each host in dsts,
// one burst every millisecond from at on, three bursts in all; seq
// numbers the packets in send order.
func blast(s *Simulator, at time.Duration, hosts []*Host, dsts func(h int) []*Host, burst int) {
	seq := int64(0)
	for round := 0; round < 3; round++ {
		s.ScheduleAt(at+time.Duration(round)*time.Millisecond, func() {
			for i, h := range hosts {
				for _, d := range dsts(i) {
					for k := 0; k < burst; k++ {
						p := s.Pool().Get()
						p.Kind, p.Size, p.Flow, p.Seq, p.Dst = Data, 1500, FlowID(i+1), seq, d.ID()
						seq++
						h.Send(p)
					}
				}
			}
		})
	}
}

// dirtyTopology attaches a recorder and an impairment pipeline to every
// link, sends traffic, and stops the run with
// packets both queued and on a line.
func dirtyTopology(t *testing.T, s *Simulator, hosts []*Host, dsts func(int) []*Host, links []*Link) {
	t.Helper()
	reg := obs.NewRegistry(0)
	for i, l := range links {
		l.AttachRecorder(reg.Link(fmt.Sprintf("l%d", i)))
		l.AttachImpairments(thirdStage{})
	}
	for _, h := range hosts {
		h.SetHandler(func(p *Packet) { p.Release() })
	}
	blast(s, 0, hosts, dsts, 40)
	s.Run(2 * time.Millisecond)
	queued, onLine := false, false
	for _, l := range links {
		queued = queued || l.QueueBytes() > 0
		onLine = onLine || l.line.head != nil
	}
	if !queued || !onLine || s.Pending() == 0 {
		t.Fatalf("setup: want packets queued (%v) and on a line (%v) with events pending (%d)", queued, onLine, s.Pending())
	}
}

// script is the reference run: bursts from every host to its
// destinations, enough to fill queues and drop, run to completion. It
// returns every delivery (time, host, flow, seq) and every link's final
// counters.
func script(s *Simulator, hosts []*Host, dsts func(int) []*Host, links []*Link) []string {
	var log []string
	for i, h := range hosts {
		i := i
		h.SetHandler(func(p *Packet) {
			log = append(log, fmt.Sprintf("%v host%d flow%d seq%d", s.Now(), i, p.Flow, p.Seq))
			p.Release()
		})
	}
	blast(s, time.Millisecond, hosts, dsts, 30)
	s.RunAll()
	for i, l := range links {
		log = append(log, fmt.Sprintf("link%d %s %+v", i, l.Name(), l.Stats()))
	}
	return log
}

// sameTopology holds a reset topology to a fresh one: link state, routes,
// and the reference script on both.
func sameTopology(t *testing.T, what string,
	rs *Simulator, rHosts []*Host, rLinks []*Link, rRouters []*Router,
	fs *Simulator, fHosts []*Host, fLinks []*Link, fRouters []*Router, dsts func(int) []*Host) {
	t.Helper()
	for i := range fLinks {
		if got, want := snapLink(rLinks[i]), snapLink(fLinks[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: link %d (%s) after reset:\n%+v\nfresh:\n%+v", what, i, fLinks[i].Name(), got, want)
		}
	}
	if got, want := routeSnap(rRouters, rLinks), routeSnap(fRouters, fLinks); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: routes after reset %v, fresh %v", what, got, want)
	}
	got, want := script(rs, rHosts, dsts, rLinks), script(fs, fHosts, dsts, fLinks)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: the reference script differs after reset (%d vs %d lines)", what, len(got), len(want))
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Errorf("first difference, line %d:\nreset %s\nfresh %s", i, got[i], want[i])
				break
			}
		}
	}
	if rs.Fired != fs.Fired || rs.Placed != fs.Placed {
		t.Errorf("%s: the script fired %d events in %d placements after reset, %d in %d fresh", what, rs.Fired, rs.Placed, fs.Fired, fs.Placed)
	}
}

func treeLinks(tr *Tree) []*Link {
	var out []*Link
	out = append(out, tr.SrvUp...)
	out = append(out, tr.SrvDown...)
	out = append(out, tr.Core, tr.CoreRev)
	out = append(out, tr.AggDown...)
	out = append(out, tr.AggUp...)
	out = append(out, tr.AccessDown...)
	return append(out, tr.AccessUp...)
}

func treeHosts(tr *Tree) []*Host { return append(append([]*Host{}, tr.Servers...), tr.Clients...) }

func treeRouters(tr *Tree) []*Router { return append([]*Router{tr.Trunk, tr.Root}, tr.Aggs...) }

func TestResetTreeIsNewTree(t *testing.T) {
	spec := smallTreeSpec()
	spec.Core.QueueBytes = 30 << 10
	spec.Agg.Qdisc = CoDelFactory
	spec.Access.QueueBytes = 20 << 10

	s := NewSimulator()
	tr := NewTree(s, spec)
	hosts := treeHosts(tr)
	// Servers send to every client, clients to every server.
	dsts := func(h int) []*Host {
		if h < len(tr.Servers) {
			return tr.Clients
		}
		return tr.Servers
	}
	for round := 0; round < 2; round++ {
		dirtyTopology(t, s, hosts, dsts, treeLinks(tr))
		s.Reset()
		tr.Reset()
		fs := NewSimulator()
		fresh := NewTree(fs, spec)
		sameTopology(t, fmt.Sprintf("round %d", round),
			s, hosts, treeLinks(tr), treeRouters(tr),
			fs, treeHosts(fresh), treeLinks(fresh), treeRouters(fresh), dsts)
		s.Reset()
		tr.Reset()
	}
}

func TestResetPathIsNewPath(t *testing.T) {
	// a is a wireless-like path: a CoDel core, a last hop with a rate
	// model, jitter and loss (deterministic, so both runs agree). b is
	// plain drop-tail with other names, rates and queues.
	a := PathSpec{Forward: []LinkConfig{
		{Name: "core", Rate: 1e9, Delay: 5 * time.Millisecond, QueueBytes: 64 << 10, Qdisc: CoDelFactory},
		{Name: "last", Delay: 2 * time.Millisecond, QueueBytes: 16 << 10,
			RateModel: func(now time.Duration) float64 { return 2e7 + float64(now/time.Millisecond%7)*1e6 },
			Impair: Impairments{
				dropIf(func(p *Packet) bool { return p.Seq%11 == 0 }),
				delayBy(func(p *Packet) time.Duration { return time.Duration(p.Seq%5) * 100 * time.Microsecond }),
			}},
	}}
	b := PathSpec{Forward: []LinkConfig{
		{Name: "wan", Rate: 5e8, Delay: 8 * time.Millisecond, QueueBytes: 1 << 20},
		{Name: "fiber", Rate: 3e7, Delay: time.Millisecond, QueueBytes: 12 << 10},
	}}
	s := NewSimulator()
	p := NewPath(s, a)
	hosts := []*Host{p.Sender, p.Receiver}
	dsts := func(h int) []*Host { return hosts[1-h : 2-h] }
	links := func(p *Path) []*Link { return append(append([]*Link{}, p.Fwd...), p.Rev...) }
	for _, spec := range []struct {
		name string
		spec PathSpec
	}{{"a → b", b}, {"b → a", a}, {"a → a", a}} {
		dirtyTopology(t, s, hosts, dsts, links(p))
		s.Reset()
		p.Reset(spec.spec)
		fs := NewSimulator()
		fresh := NewPath(fs, spec.spec)
		sameTopology(t, spec.name,
			s, hosts, links(p), p.Routers,
			fs, []*Host{fresh.Sender, fresh.Receiver}, links(fresh), fresh.Routers, dsts)
		s.Reset()
		p.Reset(spec.spec)
	}

	defer func() {
		if recover() == nil {
			t.Error("Reset of a 2-hop path to a 1-hop spec did not panic")
		}
	}()
	p.Reset(PathSpec{Forward: b.Forward[:1]})
}

// TestPathResetAllocs: rewiring a path to a spec with unchanged names
// allocates nothing, because a mirrored reverse link keeps its "-rev"
// name; a changed name is still mirrored.
func TestPathResetAllocs(t *testing.T) {
	spec := PathSpec{Forward: []LinkConfig{
		{Name: "core", Rate: 1e9, Delay: time.Millisecond},
		{Name: "last", Rate: 1e8, Delay: time.Millisecond},
	}}
	p := NewPath(NewSimulator(), spec)
	if allocs := testing.AllocsPerRun(100, func() { p.Reset(spec) }); allocs != 0 {
		t.Errorf("Path.Reset to unchanged names made %.1f allocs, want 0", allocs)
	}
	spec.Forward[1].Name = "wifi"
	p.Reset(spec)
	if got := []string{p.Rev[0].Name(), p.Rev[1].Name()}; got[0] != "wifi-rev" || got[1] != "core-rev" {
		t.Errorf("reverse names after a renamed reset: %q, want [wifi-rev core-rev]", got)
	}
}
