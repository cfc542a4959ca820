package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 7; i++ {
		r.Record(Event{Kind: EvSegSent, Seq: int64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Overwritten() != 3 {
		t.Fatalf("Overwritten = %d, want 3", r.Overwritten())
	}
	got := r.Snapshot(nil)
	for i, ev := range got {
		if want := int64(i + 3); ev.Seq != want {
			t.Errorf("event %d: Seq = %d, want %d (oldest-first order)", i, ev.Seq, want)
		}
	}
}

func TestRingPartialFillAndEarlyStop(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 3; i++ {
		r.Record(Event{Seq: int64(i)})
	}
	if r.Len() != 3 || r.Overwritten() != 0 {
		t.Fatalf("Len=%d Overwritten=%d, want 3, 0", r.Len(), r.Overwritten())
	}
	var seen int
	r.Do(func(Event) bool {
		seen++
		return seen < 2
	})
	if seen != 2 {
		t.Fatalf("Do visited %d events after early stop, want 2", seen)
	}
}

func TestNilRingIsSafe(t *testing.T) {
	var r *Ring
	r.Record(Event{Kind: EvSegSent}) // must not panic
	if r.Len() != 0 || r.Overwritten() != 0 {
		t.Fatal("nil ring should report empty")
	}
	r.Do(func(Event) bool { t.Fatal("nil ring should not iterate"); return false })
	if got := r.Snapshot(nil); got != nil {
		t.Fatalf("nil ring Snapshot = %v, want nil", got)
	}
}

func TestNilRecordersAreSafe(t *testing.T) {
	var f *FlowRecorder
	f.Record(time.Millisecond, EvSegSent, 0, 1448, 0, 0)
	var l *LinkRecorder
	l.Dropped(time.Millisecond, DropTail, 1, 0, 1500)
	l.Duplicated(time.Millisecond, 1, 0, 1500)
}

func TestRegistryAttachAndOrder(t *testing.T) {
	g := NewRegistry(16)
	f2 := g.Flow(2)
	f1 := g.Flow(1)
	if g.Flow(2) != f2 {
		t.Fatal("Flow(2) not idempotent")
	}
	lb := g.Link("bottleneck")
	la := g.Link("access")
	if g.Link("bottleneck") != lb {
		t.Fatal("Link not idempotent")
	}
	flows := g.Flows()
	if len(flows) != 2 || flows[0] != f2 || flows[1] != f1 {
		t.Fatalf("Flows() not in attach order: %v", flows)
	}
	links := g.Links()
	if len(links) != 2 || links[0] != lb || links[1] != la {
		t.Fatalf("Links() not in attach order")
	}

	f1.Record(time.Second, EvSegSent, 100, 1448, 0, 0)
	lb.Dropped(2*time.Second, DropAQM, 1, 200, 1500)
	evs := g.Events().Snapshot(nil)
	if len(evs) != 2 {
		t.Fatalf("shared ring holds %d events, want 2", len(evs))
	}
	if evs[0].Kind != EvSegSent || evs[0].Flow != 1 {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Kind != EvQdiscDrop || evs[1].Aux != int64(DropAQM) {
		t.Errorf("event 1 = %+v", evs[1])
	}
}

// TestLinkRecorderCounters: a link's counter block, which a recorder
// copies after the run, splits drops by cause and counts duplicates.
func TestLinkRecorderCounters(t *testing.T) {
	var c LinkCounters
	c.CountDrop(DropTail, 1500, true)
	c.CountDrop(DropAQM, 1500, true)
	c.CountDrop(DropErasure, 1500, true)
	c.CountDrop(DropCorrupt, 1000, true)
	c.CountDrop(DropOutage, 1000, false)
	c.CountDrop(DropTail, 40, false) // ACK drop: not a data drop
	c.CountDup(1500, true)
	c.CountDup(40, false)
	if c.TailDropPkts != 2 || c.TailDropBytes != 1540 || c.AQMDropPkts != 1 || c.ErasedPkts != 1 ||
		c.CorruptPkts != 1 || c.CorruptBytes != 1000 || c.OutagePkts != 1 || c.OutageBytes != 1000 {
		t.Errorf("drop counters: %+v", c)
	}
	if c.DupPkts != 2 || c.DupBytes != 1540 || c.DupDataPkts != 1 {
		t.Errorf("duplicate counters: %+v", c)
	}
	// Congestion drops of data packets only: tail(data) + aqm(data).
	// The erasure and the ACK tail drop are excluded.
	if c.DataDropPkts != 2 {
		t.Errorf("DataDropPkts = %d, want 2", c.DataDropPkts)
	}
}

func TestLedgerCheck(t *testing.T) {
	ok := LossLedger{SegsRetrans: 5, RetransFast: 3, RetransRTO: 2, LossDetected: 4}
	if bad := ok.Check(); len(bad) != 0 {
		t.Fatalf("consistent ledger flagged: %v", bad)
	}
	unpart := LossLedger{SegsRetrans: 5, RetransFast: 3, LossDetected: 4}
	if bad := unpart.Check(); len(bad) != 1 || !strings.Contains(bad[0], "not partitioned") {
		t.Fatalf("unpartitioned ledger: %v", bad)
	}
	over := LossLedger{SegsRetrans: 5, RetransFast: 5, LossDetected: 3}
	if bad := over.Check(); len(bad) != 1 || !strings.Contains(bad[0], "exceed") {
		t.Fatalf("over-retransmitting ledger: %v", bad)
	}
}

func TestMakeLedgerAndAdd(t *testing.T) {
	f := FlowCounters{SegsSent: 100, SegsRetrans: 3, RetransFast: 2, RetransRTO: 1, LossDetected: 2, RTOFires: 1}
	l1 := LinkCounters{DataDropPkts: 2, ErasedPkts: 1}
	l2 := LinkCounters{DataDropPkts: 1}
	led := MakeLedger(&f, &l1, &l2)
	if led.PathDataDrops != 3 || led.PathErasures != 1 {
		t.Fatalf("path sums: %+v", led)
	}
	led.Add(led)
	if led.SegsSent != 200 || led.PathDataDrops != 6 {
		t.Fatalf("Add: %+v", led)
	}
}

func TestExportJSONL(t *testing.T) {
	g := NewRegistry(16)
	f := g.Flow(1)
	f.Record(1500*time.Microsecond, EvSegSent, 0, 1448, 1448, 0)
	f.Record(2*time.Millisecond, EvSegRetrans, 0, 1448, int64(CauseRTO), 0)
	g.Link("bn").Dropped(3*time.Millisecond, DropTail, 1, 2896, 1500)

	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, g.Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, ln)
		}
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &m); err != nil {
		t.Fatal(err)
	}
	if m["kind"] != "SegRetrans" || m["cause"] != "rto" {
		t.Errorf("retrans line decoded to %v", m)
	}
	if err := json.Unmarshal([]byte(lines[2]), &m); err != nil {
		t.Fatal(err)
	}
	if m["kind"] != "QdiscDrop" || m["cause"] != "tail" {
		t.Errorf("drop line decoded to %v", m)
	}
}

func TestExportCSVAndTimeline(t *testing.T) {
	g := NewRegistry(2)
	f := g.Flow(7)
	f.Record(time.Millisecond, EvAckRecvd, 1448, 1448, 0, 0)
	f.Record(2*time.Millisecond, EvCwndChanged, 0, 0, 28960, 14480)
	f.Record(3*time.Millisecond, EvHyStartExit, 0, 0, int64(ExitDelay), 500000)

	var csv bytes.Buffer
	if err := WriteEventsCSV(&csv, g.Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "t_us,kind,flow,seq,len,aux,aux2" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 3 { // header + 2 retained (cap 2, oldest overwritten)
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[1], "2000,CwndChanged,7,") {
		t.Errorf("first retained row = %q", lines[1])
	}

	var tl bytes.Buffer
	if err := WriteTimeline(&tl, g.Events()); err != nil {
		t.Fatal(err)
	}
	out := tl.String()
	for _, want := range []string{"CwndChanged", "cwnd=28960 (was 14480)", "reason=delay", "ring overwrote 1 older events"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCounters(t *testing.T) {
	g := NewRegistry(4)
	f := g.Flow(1)
	f.C.SegsSent = 42
	f.C.SpuriousRetrans = 2
	l := g.Link("bn")
	l.C.DataDropPkts = 5
	var buf bytes.Buffer
	if err := WriteCounters(&buf, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"flow 1:", "segs_sent", "42", "spurious_retrans", "link bn:", "data_drop_pkts"} {
		if !strings.Contains(out, want) {
			t.Errorf("counters dump missing %q:\n%s", want, out)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EvNone; k < numEventKinds; k++ {
		if k.String() == "" || k.String() == "Unknown" {
			t.Errorf("EventKind %d has no name", k)
		}
	}
	if EventKind(200).String() != "Unknown" {
		t.Error("out-of-range kind should be Unknown")
	}
}

// TestRecordingAllocsZero is the recorder-path zero-alloc gate: once a
// registry is attached, recording events and counting must not
// allocate, so observation never disturbs the pooled hot path.
func TestRecordingAllocsZero(t *testing.T) {
	g := NewRegistry(1024)
	f := g.Flow(1)
	l := g.Link("bn")
	var c LinkCounters
	var seq int64
	allocs := testing.AllocsPerRun(500, func() {
		f.Record(time.Duration(seq)*time.Microsecond, EvSegSent, seq, 1448, 0, 0)
		c.CountDrop(DropTail, 1500, true)
		l.Dropped(time.Duration(seq)*time.Microsecond, DropTail, 1, seq, 1500)
		seq += 1448
	})
	if allocs > 0 {
		t.Errorf("recording path allocates %.1f per run, want 0", allocs)
	}
}

// TestNilRecorderAllocsZero proves the detached case costs nothing:
// nil-receiver calls neither allocate nor panic.
func TestNilRecorderAllocsZero(t *testing.T) {
	var f *FlowRecorder
	var l *LinkRecorder
	allocs := testing.AllocsPerRun(500, func() {
		f.Record(0, EvSegSent, 0, 1448, 0, 0)
		l.Dropped(0, DropTail, 1, 0, 1500)
	})
	if allocs > 0 {
		t.Errorf("nil recorder allocates %.1f per run, want 0", allocs)
	}
}
