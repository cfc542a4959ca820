package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"suss/internal/runner"
)

// CellStatus is one matrix cell's lifecycle state.
type CellStatus string

const (
	// CellPending: not yet looked up or scheduled.
	CellPending CellStatus = "pending"
	// CellRunning: simulating now.
	CellRunning CellStatus = "running"
	// CellDone: simulated this batch (and cached for the next one).
	CellDone CellStatus = "done"
	// CellCached: served from the content-addressed cache, zero
	// simulator runs.
	CellCached CellStatus = "cached"
	// CellError: the cell carries an error (incomplete flow, stall,
	// panic); it still participates in aggregation the way the CLI
	// sweep treats failed downloads.
	CellError CellStatus = "error"
	// CellSkipped: the batch was cancelled before this cell started;
	// it was never simulated and is not cached.
	CellSkipped CellStatus = "skipped"
)

// CellInfo is one cell's public state: its content-addressed key and
// where it is in the pipeline.
type CellInfo struct {
	Key    string     `json:"key"`
	Status CellStatus `json:"status"`
	Err    string     `json:"err,omitempty"`
}

const (
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// batch is one submitted job matrix: the unit /v1/jobs tracks.
type batch struct {
	id      string
	kind    string
	created time.Time

	// ctx governs the batch's executor; cancel is fired by
	// DELETE /v1/jobs/{id} and by daemon drain. In-flight cells run to
	// completion (a simulation cannot be interrupted mid-run), but no
	// new cell starts once the context is cancelled.
	ctx    context.Context
	cancel context.CancelFunc

	// queuedLeft tracks this batch's share of the server's global
	// queued-cell count: initialized to the submit-time miss estimate,
	// decremented as cells leave the queue (start simulating or are
	// skipped), drained wholesale when the executor exits.
	queuedLeft atomic.Int64

	mu      sync.Mutex
	cells   []CellInfo
	state   string
	csv     []byte
	failure string
	version int // bumped on every visible transition; the stream endpoint polls it

	done chan struct{} // closed exactly once, by finish
}

func newBatch(id, kind string, keys []string, parent context.Context) *batch {
	ctx, cancel := context.WithCancel(parent)
	b := &batch{
		id:      id,
		kind:    kind,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		cells:   make([]CellInfo, len(keys)),
		state:   stateRunning,
		done:    make(chan struct{}),
	}
	for i, k := range keys {
		b.cells[i] = CellInfo{Key: k, Status: CellPending}
	}
	return b
}

func (b *batch) setCell(i int, st CellStatus, msg string) {
	b.mu.Lock()
	b.cells[i].Status = st
	b.cells[i].Err = msg
	b.version++
	b.mu.Unlock()
}

// terminal reports whether the batch has sealed (any non-running
// state) — the retention GC's eviction criterion.
func (b *batch) terminal() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != stateRunning
}

// finish seals the batch. Idempotent: a recovery path may call it after
// the normal path already has.
func (b *batch) finish(csv []byte, err error) {
	st := stateDone
	msg := ""
	if err != nil {
		st, msg = stateFailed, err.Error()
		csv = nil
	}
	b.seal(st, csv, msg)
}

func (b *batch) seal(state string, csv []byte, failure string) {
	b.mu.Lock()
	if b.state != stateRunning {
		b.mu.Unlock()
		return
	}
	b.state = state
	b.csv = csv
	b.failure = failure
	b.version++
	b.mu.Unlock()
	b.cancel() // release the context; no-op if already cancelled
	close(b.done)
}

// JobStatus is the poll/stream view of a batch.
type JobStatus struct {
	ID      string     `json:"id"`
	Kind    string     `json:"kind"`
	State   string     `json:"state"` // running | done | failed | canceled
	Cells   int        `json:"cells"`
	Pending int        `json:"pending"`
	Running int        `json:"running"`
	Done    int        `json:"done"`
	Cached  int        `json:"cached"`
	Errors  int        `json:"errors"`
	Skipped int        `json:"skipped,omitempty"`
	Error   string     `json:"error,omitempty"`
	Created time.Time  `json:"created"`
	Detail  []CellInfo `json:"cells_detail,omitempty"`
}

// status snapshots the batch; withCells includes the per-cell list.
// The returned version orders snapshots for the stream endpoint.
func (b *batch) status(withCells bool) (JobStatus, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := JobStatus{
		ID:      b.id,
		Kind:    b.kind,
		State:   b.state,
		Cells:   len(b.cells),
		Error:   b.failure,
		Created: b.created,
	}
	for _, c := range b.cells {
		switch c.Status {
		case CellPending:
			st.Pending++
		case CellRunning:
			st.Running++
		case CellDone:
			st.Done++
		case CellCached:
			st.Cached++
		case CellError:
			st.Errors++
		case CellSkipped:
			st.Skipped++
		}
	}
	if withCells {
		st.Detail = append([]CellInfo(nil), b.cells...)
	}
	return st, b.version
}

// The fig11 cell record is a frozen on-disk contract like its key: the
// JSON object encoding/json wrote for the result fields the fold reads,
// in order, all but fct and completed omitted when zero (DESIGN.md,
// "Cache policy"). encoding/json stays the oracle (cellcodec_test.go).

// jobCellInts are the record's integer fields after loss_rate, in
// record order; each is omitted when zero.
var jobCellInts = [...]string{`,"delivered":`, `,"segments":`, `,"retrans":`, `,"rtos":`,
	`,"drops":`, `,"peak_queue":`, `,"max_g":`, `,"accel_rounds":`}

// errNotCanonical refuses a record that is not byte for byte what
// appendJobCell writes for the value it spells; execute serves it as a
// miss, so an unknown record is recomputed and never mis-served.
var errNotCanonical = errors.New("service: cell record is not in canonical form")

// appendJobCell appends r's cell record to b. Like json.Marshal, it
// refuses a NaN or infinite loss rate, which JSON cannot spell.
func appendJobCell(b []byte, r runner.Result) ([]byte, error) {
	d := &r.DownloadResult
	b = strconv.AppendInt(append(b, `{"fct":`...), int64(d.FCT), 10)
	if d.LossRate != 0 {
		if math.IsNaN(d.LossRate) || math.IsInf(d.LossRate, 0) {
			return b, fmt.Errorf("service: loss rate %v has no JSON form", d.LossRate)
		}
		b = appendJSONFloat(append(b, `,"loss_rate":`...), d.LossRate)
	}
	ints := [len(jobCellInts)]int64{d.Delivered, int64(d.Segments), int64(d.Retrans), int64(d.RTOs),
		int64(d.Drops), int64(d.PeakQueue), int64(d.MaxG), int64(d.AccelRounds)}
	for k, v := range ints {
		if v != 0 {
			b = strconv.AppendInt(append(b, jobCellInts[k]...), v, 10)
		}
	}
	b = strconv.AppendBool(append(b, `,"completed":`...), d.Completed)
	if r.Err != nil {
		if msg := r.Err.Error(); msg != "" {
			b = append(append(b, `,"err":`...), quoteErr(msg)...)
		}
	}
	return append(b, '}'), nil
}

// encodeJobCell is a fresh cell's record in a slice of its own length,
// since the cache keeps it.
func encodeJobCell(r runner.Result) ([]byte, error) {
	var buf [256]byte
	b, err := appendJobCell(buf[:0], r)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// appendJSONFloat writes f as encoding/json does: 'f' form for
// 1e-6 ≤ |f| < 1e21, else 'e' form with a one-digit negative exponent
// unpadded (1e-7, not 1e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// quoteErr quotes an error cell's message by encoding/json's rules
// (HTML-safe escapes, U+2028/U+2029 escaped, invalid UTF-8 as \ufffd).
func quoteErr(msg string) []byte {
	q, _ := json.Marshal(msg) // a string always marshals
	return q
}

// parseJobCell is appendJobCell's inverse on exactly the bytes it
// writes: any other text — a space, a reordered, duplicated, unknown or
// zero-valued optional field, a non-shortest number — is
// errNotCanonical. A record without an error parses without
// allocating.
//
// An error message with invalid UTF-8 does not survive encoding/json
// (it reads back as \ufffd), so its record is refused too and the cell
// recomputed each time; simulator errors are ASCII.
func parseJobCell(j runner.Job, raw []byte) (runner.Result, error) {
	res := runner.Result{Job: j}
	d := &res.DownloadResult
	d.Algo, d.Size = j.Algo, j.Size
	s := recordScanner{rest: raw}
	s.want(`{"fct":`)
	d.FCT = time.Duration(s.int())
	if s.field(`,"loss_rate":`) {
		d.LossRate = s.float()
		s.check(d.LossRate != 0)
	}
	var ints [len(jobCellInts)]int64
	for k, name := range jobCellInts {
		if s.field(name) {
			ints[k] = s.int()
			s.check(ints[k] != 0)
		}
	}
	s.want(`,"completed":`)
	d.Completed = s.bool()
	if s.field(`,"err":`) {
		res.Err = errors.New(s.errString())
	}
	s.want("}")
	d.Delivered = ints[0]
	for k, dst := range [...]*int{&d.Segments, &d.Retrans, &d.RTOs, &d.Drops, &d.PeakQueue, &d.MaxG, &d.AccelRounds} {
		*dst = int(ints[k+1])
		s.check(int64(*dst) == ints[k+1])
	}
	if s.bad || len(s.rest) != 0 {
		return runner.Result{}, errNotCanonical
	}
	return res, nil
}

// recordScanner walks a cell record left to right. Every value must
// re-encode to the bytes it was read from; the first mismatch sets bad,
// and the steps after it read garbage that parseJobCell discards.
type recordScanner struct {
	rest []byte
	bad  bool
}

func (s *recordScanner) check(ok bool) { s.bad = s.bad || !ok }

// field consumes lit if the record continues with it.
func (s *recordScanner) field(lit string) bool {
	if len(s.rest) < len(lit) || string(s.rest[:len(lit)]) != lit {
		return false
	}
	s.rest = s.rest[len(lit):]
	return true
}

func (s *recordScanner) want(lit string) { s.check(s.field(lit)) }

// token consumes a scalar: the bytes up to the next ',' or '}'.
func (s *recordScanner) token() []byte {
	n := 0
	for n < len(s.rest) && s.rest[n] != ',' && s.rest[n] != '}' {
		n++
	}
	t := s.rest[:n]
	s.rest = s.rest[n:]
	return t
}

// maxNumLen bounds a canonical float's text (the longest, a negative
// subnormal in 'e' form, is 24 bytes), so the string conversions below
// stay on the stack.
const maxNumLen = 32

// int scans strconv.AppendInt's spelling of an int64: '-' or not, then
// 0 alone or up to 19 digits without a leading zero, in range.
func (s *recordScanner) int() int64 {
	t := s.token()
	neg := len(t) > 1 && t[0] == '-'
	if neg {
		t = t[1:]
	}
	ok := len(t) > 0 && len(t) <= 19 && (t[0] != '0' || len(t) == 1 && !neg)
	var u uint64 // 19 digits cannot overflow it
	for _, c := range t {
		ok = ok && '0' <= c && c <= '9'
		u = u*10 + uint64(c-'0')
	}
	if neg {
		s.check(ok && u <= 1<<63)
		return -int64(u)
	}
	s.check(ok && u <= math.MaxInt64)
	return int64(u)
}

func (s *recordScanner) float() float64 {
	t := s.token()
	if len(t) > maxNumLen {
		s.bad = true
		return 0
	}
	v, err := strconv.ParseFloat(string(t), 64)
	var buf [maxNumLen]byte
	s.check(err == nil && !math.IsNaN(v) && !math.IsInf(v, 0) && string(appendJSONFloat(buf[:0], v)) == string(t))
	return v
}

func (s *recordScanner) bool() bool {
	switch string(s.token()) {
	case "true":
		return true
	case "false":
		return false
	}
	s.bad = true
	return false
}

// errString consumes the record's last value, the quoted, non-empty
// error message, leaving the closing brace.
func (s *recordScanner) errString() string {
	if len(s.rest) < 3 || s.rest[0] != '"' {
		s.bad = true
		return ""
	}
	q := s.rest[:len(s.rest)-1]
	s.rest = s.rest[len(q):]
	var msg string
	s.check(json.Unmarshal(q, &msg) == nil && msg != "" && bytes.Equal(quoteErr(msg), q))
	return msg
}

// cellShard is the serializable form of one fleet cell. ShardResult is
// plain data (its error channels are excluded from JSON and a shard is
// only cached when they are nil), so the whole record round-trips.
type cellShard struct {
	Shard runner.ShardResult `json:"shard"`
	Err   string             `json:"err,omitempty"`
}

func encodeShardCell(r runner.FleetResult) ([]byte, error) {
	c := cellShard{Shard: r.ShardResult}
	if r.Err != nil {
		c.Err = r.Err.Error()
	}
	return json.Marshal(c)
}

// loadShardCell is the fleet plan's load: every hit decodes its record
// anew, since a shard's record holds thousands of flows.
func loadShardCell(c *Cache, key string, _ int, r *runner.FleetResult) bool {
	raw, ok := c.Get(key)
	var cs cellShard
	if !ok || json.Unmarshal(raw, &cs) != nil {
		return false
	}
	if r.ShardResult = cs.Shard; cs.Err != "" {
		r.Err = errors.New(cs.Err)
	}
	return true
}

// plan is what a matrix kind is, as its planner returns it for one
// validated submission: the per-cell cache keys plus everything execute
// needs to run, cache and fold the cells. R is the kind's typed cell
// result; fresh results stay typed in memory and only the cache sees
// the encoded form.
type plan[R any] struct {
	keys []string
	// run simulates cell i — on the pool worker's engine, which it finds
	// in ctx (runner.ScratchFrom) — and gives the kind's verdict on it:
	// whether the result may be cached (the cache policy, as data) and
	// the error the cell carries (nil = clean). No kind caches a stall —
	// a wall-clock artifact, not a property of the config.
	run    func(ctx context.Context, i int) (res R, cacheable bool, cellErr error)
	encode func(R) ([]byte, error)
	// load reads cell i's record, cached under key, into its result slot
	// and reports whether it serves the cell.
	load func(c *Cache, key string, i int, res *R) bool
	// unrun stands in for a cell the pool never ran to completion (a
	// captured panic), so fold sees a full matrix.
	unrun func(i int, err error) R
	// fold aggregates the matrix exactly the way the in-process sweep
	// does and writes its CSV, the batch's result.
	fold func(results []R, csv io.Writer) error
}

// planner validates a submission of one kind and returns its cell keys,
// the cells the cache cannot serve, and its executor. Adding a kind is
// one planFoo returning a plan and one row in kinds.
type planner func(s *Server, req SubmitRequest, seed int64) (keys []string, miss []int, run func(*batch), err error)

var kinds = map[string]planner{
	"fig11": kindOf(planFig11),
	"fleet": kindOf(planFleet),
}

// kindOf erases a typed planner's cell type by binding it to execute.
// It probes and loads each cell once, at submit: a cell is a miss if
// the cache has no record for it or one that does not decode.
func kindOf[R any](p func(*Server, SubmitRequest, int64) (plan[R], error)) planner {
	return func(s *Server, req SubmitRequest, seed int64) ([]string, []int, func(*batch), error) {
		pl, err := p(s, req, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		results := make([]R, len(pl.keys))
		var miss []int
		for i, key := range pl.keys {
			if !pl.load(s.cache, key, i, &results[i]) {
				miss = append(miss, i)
			}
		}
		return pl.keys, miss, func(b *batch) { execute(s, b, pl, results, miss) }, nil
	}
}

// execute runs a batch of any kind: serve the warm cells from results,
// simulate the misses on the worker pool, cache what the misses
// produced, and fold. Cancellation stops new cells at the pool
// boundary; whatever finished before the cancel stays cached for the
// next submission.
func execute[R any](s *Server, b *batch, p plan[R], results []R, miss []int) {
	defer func() {
		if r := recover(); r != nil {
			b.finish(nil, fmt.Errorf("%s executor panicked: %v", b.kind, r))
		}
	}()
	for i, m := 0, 0; i < len(p.keys); i++ {
		if m < len(miss) && miss[m] == i {
			m++
		} else {
			b.setCell(i, CellCached, "")
		}
	}
	s.cache.hits.Add(int64(len(p.keys) - len(miss)))
	s.cache.misses.Add(int64(len(miss)))
	outs := runner.Map(b.ctx, miss, func(ctx context.Context, _ int, i int) (R, error) {
		s.dequeueCell(b)
		b.setCell(i, CellRunning, "")
		s.cellRuns.Add(1)
		res, cacheable, cellErr := p.run(ctx, i)
		// Cache (and with a cache file, persist) the cell the moment it
		// finishes, not when the batch does: a crash or cancel mid-batch
		// then loses only the cells still in flight.
		if cacheable {
			if raw, err := p.encode(res); err == nil {
				s.cache.Put(p.keys[i], raw)
			}
		}
		if cellErr != nil {
			b.setCell(i, CellError, cellErr.Error())
		} else {
			b.setCell(i, CellDone, "")
		}
		return res, nil
	}, runner.Options{Workers: s.cfg.Workers})
	skipped := 0
	for k, o := range outs {
		i := miss[k]
		if o.Err == nil {
			results[i] = o.Value
			continue
		}
		// Pool-level failure: the cell never ran because the batch was
		// cancelled, or the pool captured its panic.
		if errors.Is(o.Err, context.Canceled) || errors.Is(o.Err, context.DeadlineExceeded) {
			s.dequeueCell(b)
			b.setCell(i, CellSkipped, "")
			skipped++
		} else {
			b.setCell(i, CellError, o.Err.Error())
		}
		results[i] = p.unrun(i, o.Err)
	}
	if skipped > 0 { // what ran before the cancel is cached for the next submission
		b.seal(stateCanceled, nil, fmt.Sprintf("canceled: %d cell(s) skipped", skipped))
		return
	}
	var buf bytes.Buffer
	err := p.fold(results, &buf)
	b.finish(buf.Bytes(), err)
}
