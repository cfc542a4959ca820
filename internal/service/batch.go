package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// cellDownload is the serializable form of one fig11 cell: the subset
// of a download result the figure's aggregation and CSV consume.
// Floats round-trip exactly through encoding/json (shortest-form
// encoding), so a result reassembled from cache produces byte-identical
// CSV output.
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

func encodeJobCell(r runner.Result) ([]byte, error) {
	c := cellDownload{
		FCT:         r.FCT,
		LossRate:    r.LossRate,
		Delivered:   r.Delivered,
		Segments:    r.Segments,
		Retrans:     r.Retrans,
		RTOs:        r.RTOs,
		Drops:       r.Drops,
		PeakQueue:   r.PeakQueue,
		MaxG:        r.MaxG,
		AccelRounds: r.AccelRounds,
		Completed:   r.Completed,
	}
	if r.Err != nil {
		c.Err = r.Err.Error()
	}
	return json.Marshal(c)
}

func decodeJobCell(j runner.Job, raw []byte) (runner.Result, error) {
	var c cellDownload
	if err := json.Unmarshal(raw, &c); err != nil {
		return runner.Result{}, err
	}
	res := runner.Result{
		Job: j,
		DownloadResult: runner.DownloadResult{
			Algo:        j.Algo,
			Size:        j.Size,
			FCT:         c.FCT,
			LossRate:    c.LossRate,
			Delivered:   c.Delivered,
			Segments:    c.Segments,
			Retrans:     c.Retrans,
			RTOs:        c.RTOs,
			Drops:       c.Drops,
			PeakQueue:   c.PeakQueue,
			MaxG:        c.MaxG,
			AccelRounds: c.AccelRounds,
			Completed:   c.Completed,
		},
	}
	if c.Err != "" {
		res.Err = errors.New(c.Err)
	}
	return res, nil
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

func decodeShardCell(raw []byte) (runner.FleetResult, error) {
	var c cellShard
	if err := json.Unmarshal(raw, &c); err != nil {
		return runner.FleetResult{}, err
	}
	res := runner.FleetResult{ShardResult: c.Shard}
	if c.Err != "" {
		res.Err = errors.New(c.Err)
	}
	return res, nil
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
	decode func(i int, raw []byte) (R, error)
	// unrun stands in for a cell the pool never ran to completion (a
	// captured panic), so fold sees a full matrix.
	unrun func(i int, err error) R
	// fold aggregates the matrix exactly the way the in-process sweep
	// does and writes its CSV, the batch's result.
	fold func(results []R, csv io.Writer) error
}

// planner validates a submission of one kind and returns its cell keys
// and its executor. Adding a kind is one planFoo returning a plan and
// one row in kinds.
type planner func(s *Server, req SubmitRequest, seed int64) (keys []string, run func(*batch), err error)

var kinds = map[string]planner{
	"fig11": kindOf(planFig11),
	"fleet": kindOf(planFleet),
}

// kindOf erases a typed planner's cell type by binding it to execute.
func kindOf[R any](p func(*Server, SubmitRequest, int64) (plan[R], error)) planner {
	return func(s *Server, req SubmitRequest, seed int64) ([]string, func(*batch), error) {
		pl, err := p(s, req, seed)
		return pl.keys, func(b *batch) { execute(s, b, pl) }, err
	}
}

// execute runs a batch of any kind: serve every warm cell from the
// cache, simulate the misses on the worker pool, cache what the misses
// produced, and fold. Cancellation stops new cells at the pool
// boundary; whatever finished before the cancel stays cached for the
// next submission.
func execute[R any](s *Server, b *batch, p plan[R]) {
	defer func() {
		if r := recover(); r != nil {
			b.finish(nil, fmt.Errorf("%s executor panicked: %v", b.kind, r))
		}
	}()
	results := make([]R, len(p.keys))
	var miss []int
	for i, key := range p.keys {
		if raw, ok := s.cache.Get(key); ok {
			if res, err := p.decode(i, raw); err == nil {
				results[i] = res
				b.setCell(i, CellCached, "")
				continue
			}
		}
		miss = append(miss, i)
	}
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
