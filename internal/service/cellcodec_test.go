package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
	"unicode/utf8"

	"suss/internal/experiments"
	"suss/internal/runner"
	"suss/internal/scenarios"
)

// cellDownload is the struct whose encoding/json form defined the fig11
// cell record before appendJobCell/parseJobCell. It stays here as their
// oracle, the way confhash's tests keep the reflective key renderer.
type cellDownload struct {
	FCT         time.Duration `json:"fct"`
	LossRate    float64       `json:"loss_rate,omitempty"`
	Delivered   int64         `json:"delivered,omitempty"`
	Segments    int           `json:"segments,omitempty"`
	Retrans     int           `json:"retrans,omitempty"`
	RTOs        int           `json:"rtos,omitempty"`
	Drops       int           `json:"drops,omitempty"`
	PeakQueue   int           `json:"peak_queue,omitempty"`
	MaxG        int           `json:"max_g,omitempty"`
	AccelRounds int           `json:"accel_rounds,omitempty"`
	Completed   bool          `json:"completed"`
	Err         string        `json:"err,omitempty"`
}

func oracleMarshal(r runner.Result) ([]byte, error) {
	c := cellDownload{
		FCT: r.FCT, LossRate: r.LossRate, Delivered: r.Delivered, Segments: r.Segments,
		Retrans: r.Retrans, RTOs: r.RTOs, Drops: r.Drops, PeakQueue: r.PeakQueue,
		MaxG: r.MaxG, AccelRounds: r.AccelRounds, Completed: r.Completed,
	}
	if r.Err != nil {
		c.Err = r.Err.Error()
	}
	return json.Marshal(c)
}

func oracleUnmarshal(j runner.Job, raw []byte) (runner.Result, error) {
	var c cellDownload
	if err := json.Unmarshal(raw, &c); err != nil {
		return runner.Result{}, err
	}
	res := runner.Result{Job: j, DownloadResult: runner.DownloadResult{
		Algo: j.Algo, Size: j.Size, FCT: c.FCT, LossRate: c.LossRate, Delivered: c.Delivered,
		Segments: c.Segments, Retrans: c.Retrans, RTOs: c.RTOs, Drops: c.Drops,
		PeakQueue: c.PeakQueue, MaxG: c.MaxG, AccelRounds: c.AccelRounds, Completed: c.Completed,
	}}
	if c.Err != "" {
		res.Err = errors.New(c.Err)
	}
	return res, nil
}

// sameCell compares what a record carries. Jobs are left out: a chaos
// job holds a closure, which reflect.DeepEqual never finds equal.
func sameCell(a, b runner.Result) bool {
	if (a.Err == nil) != (b.Err == nil) || a.Err != nil && a.Err.Error() != b.Err.Error() {
		return false
	}
	return reflect.DeepEqual(a.DownloadResult, b.DownloadResult)
}

// syntheticCells are the codec's edge cases: float formatting cutoffs,
// integer extremes, and error messages encoding/json escapes.
func syntheticCells() []runner.Result {
	var rs []runner.Result
	base := runner.DownloadResult{FCT: 1234567 * time.Microsecond, Completed: true, Segments: 180, Delivered: 262144}
	for _, f := range []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, 1.5e-7, 9.99e-7, 1e-6, 0.1,
		1.0 / 3, 2.5e-5, 1e20, 123456789012345678901, 1e21, -1e21, 1.7976931348623157e308} {
		d := base
		d.LossRate = f
		rs = append(rs, runner.Result{DownloadResult: d})
	}
	for _, v := range []int64{0, -1, math.MaxInt64, math.MinInt64} {
		d := base
		d.FCT, d.Delivered = time.Duration(v), v
		d.Segments, d.Retrans, d.RTOs, d.Drops = int(v), int(v), int(v), int(v)
		d.PeakQueue, d.MaxG, d.AccelRounds, d.Completed = int(v), int(v), int(v), v > 0
		rs = append(rs, runner.Result{DownloadResult: d})
	}
	for _, msg := range []string{"", "incomplete", `say "hi"`, `back\slash`, "<a>&b", "line\u2028para\u2029",
		"\x00\x01\x1f\b\f\n\r\t\x7f", "ünïcødé ✓", "\ufffd", "bad \xff\xfe utf-8"} {
		d := base
		d.Completed = false
		rs = append(rs, runner.Result{DownloadResult: d, Err: errors.New(msg)})
	}
	return rs
}

// checkAgainstOracle holds one cell to the oracle: the same record
// bytes, and the same value back.
func checkAgainstOracle(t *testing.T, what string, j runner.Job, r runner.Result) {
	t.Helper()
	want, werr := oracleMarshal(r)
	got, gerr := appendJobCell(nil, r)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: appendJobCell err %v, json.Marshal err %v", what, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: appendJobCell\n %s\njson.Marshal\n %s", what, got, want)
	}
	parsed, perr := parseJobCell(j, want)
	if r.Err != nil && !utf8.ValidString(r.Err.Error()) {
		// json.Marshal writes invalid UTF-8 as \ufffd, which json.Unmarshal
		// reads as a valid U+FFFD that re-encodes as other bytes: not a
		// canonical record, so it is recomputed rather than served.
		if perr == nil {
			t.Fatalf("%s: parseJobCell accepted %s, which does not re-encode to itself", what, want)
		}
		return
	}
	oracle, oerr := oracleUnmarshal(j, want)
	if perr != nil || oerr != nil {
		t.Fatalf("%s: parseJobCell err %v, json.Unmarshal err %v on %s", what, perr, oerr, want)
	}
	if !sameCell(parsed, oracle) || parsed.Algo != j.Algo || parsed.Size != j.Size {
		t.Fatalf("%s: parseJobCell %+v, json.Unmarshal %+v", what, parsed, oracle)
	}
}

func TestJobCellCodecMatchesJSON(t *testing.T) {
	j := runner.Job{Algo: runner.Suss, Size: 1 << 20}
	for k, r := range syntheticCells() {
		checkAgainstOracle(t, "synthetic cell "+string(rune('a'+k)), j, r)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendJobCell(nil, runner.Result{DownloadResult: runner.DownloadResult{LossRate: f}}); err == nil {
			t.Errorf("appendJobCell accepted loss rate %v", f)
		}
	}
	if testing.Short() || raceEnabled {
		return // the rest simulates 506 cells
	}
	for _, seed := range []int64{1, 7} {
		jobs := experiments.Fig11Jobs(scenarios.GoogleTokyo, experiments.DefaultSizes, 3, seed)
		for _, o := range runner.Run(context.Background(), jobs, runner.Options{Workers: 2}) {
			r, _ := jobCell(o.Job, o.DownloadResult)
			checkAgainstOracle(t, o.Job.Scenario.Name()+" "+o.Job.Algo.String(), o.Job, r)
		}
	}
	for _, j := range digestLossJobs() {
		r, _ := jobCell(j, runner.Download(j))
		checkAgainstOracle(t, j.Scenario.Name()+" "+j.Algo.String(), j, r)
	}
}

// nonCanonical are records encoding/json reads but appendJobCell never
// writes; each must be refused.
var nonCanonical = []string{
	`{ "fct":1,"completed":true}`,
	`{"fct":1,"completed":true} `,
	`{"fct":1,"loss_rate":-0,"completed":true}`,
	`{"fct":-0,"completed":true}`,
	`{"fct":1,"loss_rate":1000000000000000000000,"completed":true}`,
	`{"fct":1,"loss_rate":0,"completed":true}`,
	`{"fct":1,"loss_rate":1e-07,"completed":true}`,
	`{"fct":1,"loss_rate":0.10,"completed":true}`,
	`{"fct":1,"loss_rate":1E-7,"completed":true}`,
	`{"fct":1,"segments":0,"completed":true}`,
	`{"fct":1,"retrans":2,"segments":1,"completed":true}`,
	`{"fct":1,"segments":1,"segments":1,"completed":true}`,
	`{"fct":1,"completed":true,"extra":1}`,
	`{"FCT":1,"completed":true}`,
	`{"fct":1}`,
	`{"fct":1,"completed":true,"err":""}`,
	`{"fct":1,"completed":false,"err":"\u0041"}`,
	`{"fct":1,"completed":false,"err":"<"}`,
	`{"fct":1,"completed":false,"err":"\ufffd"}`,
	`{"fct":1,"completed":false,"err":"a\/b"}`,
}

func TestJobCellParseRefusesNonCanonical(t *testing.T) {
	for _, rec := range nonCanonical {
		if _, err := oracleUnmarshal(runner.Job{}, []byte(rec)); err != nil {
			t.Fatalf("%s: not even JSON the oracle reads: %v", rec, err)
		}
		if r, err := parseJobCell(runner.Job{}, []byte(rec)); err == nil {
			t.Errorf("parseJobCell accepted non-canonical %s as %+v", rec, r)
		}
	}
}

// canonicalInts are integer tokens strconv.AppendInt writes, the int64
// extremes among them; nonCanonicalInts are tokens it never writes.
var (
	canonicalInts    = []string{"0", "7", "-7", "1000", "9223372036854775807", "-9223372036854775808"}
	nonCanonicalInts = []string{"-0", "007", "-07", "+5", "1e3", "5.0", " 5", "-", "--5", "9223372036854775808",
		"-9223372036854775809", "18446744073709551616", "12345678901234567890", ""}
)

// TestRecordIntEdgeCases: the record scanner reads every canonical
// integer back as its value and refuses every other token, in a cell
// record as errNotCanonical.
func TestRecordIntEdgeCases(t *testing.T) {
	for _, tok := range canonicalInts {
		s := recordScanner{rest: []byte(tok)}
		if v := s.int(); s.bad || strconv.FormatInt(v, 10) != tok {
			t.Errorf("int(%q) = %d, bad %v", tok, v, s.bad)
		}
		rec := `{"fct":` + tok + `,"completed":true}`
		if r, err := parseJobCell(runner.Job{}, []byte(rec)); err != nil || strconv.FormatInt(int64(r.FCT), 10) != tok {
			t.Errorf("%s: fct %d, err %v", rec, r.FCT, err)
		}
	}
	for _, tok := range nonCanonicalInts {
		s := recordScanner{rest: []byte(tok)}
		if v := s.int(); !s.bad {
			t.Errorf("int(%q) accepted as %d", tok, v)
		}
		for _, rec := range []string{`{"fct":` + tok + `,"completed":true}`, `{"fct":1,"delivered":` + tok + `,"completed":true}`} {
			if r, err := parseJobCell(runner.Job{}, []byte(rec)); !errors.Is(err, errNotCanonical) {
				t.Errorf("%s: parsed as %+v, err %v; want errNotCanonical", rec, r.DownloadResult, err)
			}
		}
	}
}

// FuzzJobCellRecord: whatever parseJobCell accepts, encoding/json reads
// as the same cell and appendJobCell writes back byte for byte; and
// every record that is a fixed point of encoding/json is accepted.
func FuzzJobCellRecord(f *testing.F) {
	for _, r := range syntheticCells() {
		if rec, err := appendJobCell(nil, r); err == nil {
			f.Add(rec)
		}
	}
	for _, rec := range nonCanonical {
		f.Add([]byte(rec))
	}
	for _, tok := range append(append([]string(nil), canonicalInts...), nonCanonicalInts...) {
		f.Add([]byte(`{"fct":` + tok + `,"completed":true}`))
		f.Add([]byte(`{"fct":1,"delivered":` + tok + `,"completed":true}`))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := parseJobCell(runner.Job{}, raw)
		oracle, oerr := oracleUnmarshal(runner.Job{}, raw)
		if err != nil {
			if oerr == nil {
				if again, _ := oracleMarshal(oracle); bytes.Equal(again, raw) {
					t.Fatalf("parseJobCell refused %q, which encoding/json writes back unchanged: %v", raw, err)
				}
			}
			return
		}
		if oerr != nil {
			t.Fatalf("parseJobCell accepted %q, json.Unmarshal refused it: %v", raw, oerr)
		}
		if !sameCell(got, oracle) {
			t.Fatalf("%q: parseJobCell %+v, json.Unmarshal %+v", raw, got, oracle)
		}
		if again, err := appendJobCell(nil, got); err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("%q parsed, but re-encodes as %q (err %v)", raw, again, err)
		}
	})
}

// A record that is present but does not decode is a miss, not a hit:
// the cell is simulated, re-cached in canonical bytes, and counted once.
func TestUndecodableRecordIsAMiss(t *testing.T) {
	req := compatRequests[0] // fig11, 12 cells, with the parent's CSV
	want, err := os.ReadFile(filepath.Join("testdata", "parent.fig11.csv"))
	if err != nil {
		t.Fatal(err)
	}
	parent, err := os.ReadFile(filepath.Join("testdata", "parent.cache"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.cache")
	if err := os.WriteFile(path, parent, 0o644); err != nil {
		t.Fatal(err)
	}
	pl, err := planFig11(&Server{}, req, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	key := pl.keys[5]

	// A framed, checksummed record under a real key, whose body is valid
	// JSON for the right value but not in canonical form.
	c, _, err := NewPersistentCache(path)
	if err != nil {
		t.Fatal(err)
	}
	canon, ok := c.Get(key)
	if !ok {
		t.Fatalf("the parent's cache file has no record for %s", key)
	}
	c.Put(key, append([]byte(`{ `), canon[1:]...))
	c.Close()

	s, cl := newServerClient(t, Config{Workers: 1, CacheFile: path})
	sub := cl.submit(req)
	if got := cl.result(sub.ID); !bytes.Equal(got, want) {
		t.Errorf("CSV differs from the parent's:\n got:\n%s\nwant:\n%s", got, want)
	}
	n := int64(sub.Cells)
	if st := cl.stats(); st.CacheHits != n-1 || st.CacheMisses != 1 || st.CellRuns != 1 {
		t.Errorf("stats %d hits, %d misses, %d cell runs; want %d, 1, 1", st.CacheHits, st.CacheMisses, st.CellRuns, n-1)
	}
	if sub.Cached != sub.Cells-1 {
		t.Errorf("submit reported %d of %d cells cached; the undecodable one is a miss", sub.Cached, sub.Cells)
	}
	if st := cl.status(sub.ID); st.Cached != sub.Cells-1 || st.Done != 1 {
		t.Errorf("batch %d cached, %d done; want %d, 1", st.Cached, st.Done, sub.Cells-1)
	}
	if got, _ := s.cache.Get(key); !bytes.Equal(got, canon) {
		t.Errorf("re-cached record %s, want canonical %s", got, canon)
	}

	again := cl.submit(req)
	if got := cl.result(again.ID); !bytes.Equal(got, want) {
		t.Error("resubmission's CSV differs from the parent's")
	}
	if st := cl.stats(); again.Cached != again.Cells || st.CacheHits != 2*n-1 || st.CellRuns != 1 {
		t.Errorf("resubmission: %d/%d cached, stats %d hits, %d cell runs; want all cached, %d hits, 1 run",
			again.Cached, again.Cells, st.CacheHits, st.CellRuns, 2*n-1)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The canonical record was appended after the bad one, so it is what
	// a restart replays.
	c, _, err = NewPersistentCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, _ := c.Get(key); !bytes.Equal(got, canon) {
		t.Errorf("after restart the record is %s, want canonical %s", got, canon)
	}
}
