// Package service is the warm experiment daemon behind cmd/sussd: the
// CLI's sweeps (the fig11 FCT matrix, the fleet comparison) behind an
// HTTP/JSON API, each matrix cell cached under a content-addressed key
// (internal/service/confhash), so a resubmission simulates only the
// cells that changed. DESIGN.md ("Experiment service", "Service
// robustness") gives its API, cache, persistence and admission rules.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"suss/internal/experiments"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/service/confhash"
)

// Defaults for the admission-control and retention knobs (Config value
// 0; negative disables the bound entirely).
const (
	DefaultMaxQueuedCells = 4096
	DefaultRetainBatches  = 64
)

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrently simulating cells (≤0 = GOMAXPROCS).
	Workers int
	// WallLimit arms the per-cell wall-clock watchdog (0 = off). A
	// stalled cell is reported as an error and never cached.
	WallLimit time.Duration
	// CacheFile backs the result cache with an append-only record log:
	// Put appends, New replays, a torn/corrupt tail is truncated. Empty
	// = memory-only (a restart re-simulates everything).
	CacheFile string
	// MaxQueuedCells bounds queued-but-unsimulated cells across all
	// batches. A submit that would exceed it is refused with 429 +
	// Retry-After — except on an idle queue, where any single batch is
	// admitted so one big sweep is never unsubmittable. 0 = the
	// default; negative = unlimited.
	MaxQueuedCells int
	// RetainBatches caps terminal (done/failed/canceled) batches kept
	// in the registry; the oldest beyond the cap are evicted and
	// counted in Stats.EvictedJobs. 0 = the default; negative =
	// unlimited.
	RetainBatches int
}

func (c Config) maxQueued() int64 {
	switch {
	case c.MaxQueuedCells < 0:
		return 0 // unlimited
	case c.MaxQueuedCells == 0:
		return DefaultMaxQueuedCells
	default:
		return int64(c.MaxQueuedCells)
	}
}

func (c Config) retainBatches() int {
	switch {
	case c.RetainBatches < 0:
		return -1 // unlimited
	case c.RetainBatches == 0:
		return DefaultRetainBatches
	default:
		return c.RetainBatches
	}
}

// Server is the experiment service. Create with New, expose with
// Handler; safe for concurrent requests.
type Server struct {
	cfg      Config
	cache    *Cache
	recovery RecoveryInfo
	start    time.Time
	cellRuns atomic.Int64 // cells this daemon actually simulated
	queued   atomic.Int64 // cells admitted but not yet simulating
	evicted  atomic.Int64 // terminal batches GC'd from the registry
	draining atomic.Bool

	// rootCtx parents every batch context; Drain cancels it so daemon
	// shutdown stops all running batches. running counts live batch
	// executors.
	rootCtx    context.Context
	rootCancel context.CancelFunc
	running    sync.WaitGroup

	mu      sync.Mutex
	batches map[string]*batch
	order   []string
	nextID  int
	// replays maps a request encoded whole (no field aliases two matrices)
	// to its newest retained batch that may replay (DESIGN.md, "The warm path").
	replays map[string]*batch
}

// New returns an idle server. With Config.CacheFile set it replays the
// record log first — Recovery reports what it found — and every result
// cached from then on survives a crash.
func New(cfg Config) (*Server, error) {
	cache := NewCache()
	var info RecoveryInfo
	if cfg.CacheFile != "" {
		var err error
		cache, info, err = NewPersistentCache(cfg.CacheFile)
		if err != nil {
			return nil, fmt.Errorf("opening cache file: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		cache:      cache,
		recovery:   info,
		start:      time.Now(),
		rootCtx:    ctx,
		rootCancel: cancel,
		batches:    make(map[string]*batch),
		replays:    make(map[string]*batch),
	}, nil
}

// Recovery reports what replaying the cache file found at startup
// (zero value for a memory-only server).
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// Ready reports whether the server accepts new work (false once a
// drain has begun) — the /readyz answer.
func (s *Server) Ready() bool { return !s.draining.Load() }

// BeginDrain flips the server unready: /readyz turns 503 and new
// submissions are refused with ErrDraining. Running batches continue.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain shuts the server down: stop admitting work, cancel every
// running batch (in-flight cells finish, queued cells are skipped),
// wait for the executors to seal their batches, and close the cache
// log. Returns ctx's error if the executors outlive it.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	s.rootCancel()
	done := make(chan struct{})
	go func() {
		s.running.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if cerr := s.cache.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrDraining refuses submissions during shutdown.
var ErrDraining = errors.New("service is draining, not accepting new jobs")

// OverloadError is the admission-control refusal: the queue of
// unsimulated cells is full. Clients should back off RetryAfter.
type OverloadError struct {
	Queued, Limit int64
	RetryAfter    time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("queue full: %d cell(s) queued, limit %d; retry in %v", e.Queued, e.Limit, e.RetryAfter)
}

// retryAfter estimates how long the backlog needs to shrink: the queue
// drains at worker speed, and even a fast cell is tens of
// milliseconds, so a second per 32 queued cells is a usable floor.
func retryAfter(queued int64) time.Duration {
	d := time.Duration(queued/32+1) * time.Second
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// SubmitRequest is the POST /v1/jobs body. Kind selects the matrix:
//
//   - "fig11": Server (scenario server name, default google-tokyo),
//     Sizes (bytes, default experiments.DefaultSizes), Iters (default
//     3), Seed (default 1). Cells are links × sizes × algos × iters.
//   - "fleet": Flows/Shards/Arrival override the smoke-tier
//     DefaultFleetConfig; FullMix swaps in the heavy-tailed default
//     mix. Cells are 2 variants × shards.
type SubmitRequest struct {
	Kind    string  `json:"kind"`
	Server  string  `json:"server,omitempty"`
	Sizes   []int64 `json:"sizes,omitempty"`
	Iters   int     `json:"iters,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	Flows   int     `json:"flows,omitempty"`
	Shards  int     `json:"shards,omitempty"`
	Arrival float64 `json:"arrival,omitempty"`
	FullMix bool    `json:"fullmix,omitempty"`
}

// SubmitResponse acknowledges a submission. Cached counts the cells
// already warm at submit time; the batch runs only the rest.
type SubmitResponse struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Cells  int    `json:"cells"`
	Cached int    `json:"cached"`
}

// Stats is the GET /v1/stats body. SimRuns is the process-wide
// simulator-run counter (runner.SimRuns): on a warm resubmission it
// does not move — the proof the cache served every cell.
type Stats struct {
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheEntries int     `json:"cache_entries"`
	CellRuns     int64   `json:"cell_runs"`
	SimRuns      int64   `json:"sim_runs"`
	Jobs         int     `json:"jobs"`
	QueuedCells  int64   `json:"queued_cells"`
	EvictedJobs  int64   `json:"evicted_jobs"`
	Draining     bool    `json:"draining,omitempty"`
	UptimeSec    float64 `json:"uptime_s"`

	// Cache-file accounting: what startup replay found and whether any
	// appends have failed since (0 on a healthy or memory-only cache).
	CacheReplayed     int    `json:"cache_replayed,omitempty"`
	CacheDroppedBytes int64  `json:"cache_dropped_bytes,omitempty"`
	CacheDropReason   string `json:"cache_drop_reason,omitempty"`
	PersistErrors     int64  `json:"cache_persist_errors,omitempty"`
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	resp, err := s.Submit(req)
	if err != nil {
		var oe *OverloadError
		switch {
		case errors.As(err, &oe):
			w.Header().Set("Retry-After", strconv.Itoa(int(oe.RetryAfter/time.Second)))
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "10")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Submit validates a request, applies admission control, registers the
// batch, and starts it in the background. The POST /v1/jobs handler
// calls it; it is exported for in-process embedding, and the service's
// own tests submit through it without HTTP.
func (s *Server) Submit(req SubmitRequest) (SubmitResponse, error) {
	if s.draining.Load() {
		return SubmitResponse{}, ErrDraining
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	plan, ok := kinds[req.Kind]
	if !ok {
		return SubmitResponse{}, fmt.Errorf("unknown kind %q (want fig11 or fleet)", req.Kind)
	}
	canon, err := json.Marshal(req)
	if err != nil {
		canon = nil // a request that does not encode is never indexed
	}
	if resp, ok, err := s.serveReplay(req.Kind, canon); ok {
		return resp, err
	}
	keys, miss, run, err := plan(s, req, req.Seed)
	if err != nil {
		return SubmitResponse{}, err
	}
	est := int64(len(miss))
	if err := s.admit(est); err != nil {
		return SubmitResponse{}, err
	}
	s.queued.Add(est)

	s.mu.Lock()
	s.nextID++
	id := "j" + strconv.Itoa(s.nextID)
	b := newBatch(id, req.Kind, keys, s.rootCtx)
	b.canon = string(canon)
	b.queuedLeft.Store(est)
	s.batches[id] = b
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.running.Add(1)
	go s.runBatch(b, run)
	return SubmitResponse{ID: id, Kind: req.Kind, Cells: len(keys), Cached: len(keys) - len(miss)}, nil
}

// admit bounds the backlog of admitted, unsimulated cells. An idle queue
// admits any batch, so one bigger than the cap can still run.
func (s *Server) admit(est int64) error {
	if cap := s.cfg.maxQueued(); cap > 0 {
		if q := s.queued.Load(); q > 0 && q+est > cap {
			return &OverloadError{Queued: q, Limit: cap, RetryAfter: retryAfter(q)}
		}
	}
	return nil
}

// serveReplay registers an indexed request as a batch sealed at birth that
// shares its source's cells (all cached), CSV and done channel; ok = indexed.
func (s *Server) serveReplay(kind string, canon []byte) (_ SubmitResponse, ok bool, err error) {
	s.mu.Lock()
	src, ok := s.replays[string(canon)]
	if err = s.admit(0); !ok || err != nil { // Submit ignores err unless ok
		s.mu.Unlock()
		return SubmitResponse{}, ok, err
	}
	s.nextID++
	b := &batch{id: "j" + strconv.Itoa(s.nextID), kind: kind, canon: src.canon, created: time.Now(),
		cancel: func() {}, cells: src.cells, state: stateDone, csv: src.csv, done: src.done}
	if src.ctx != nil { // the source ran the cell path: list its keys as cached
		b.cells = make([]CellInfo, len(src.cells))
		for i := range b.cells {
			b.cells[i] = CellInfo{Key: src.cells[i].Key, Status: CellCached}
		}
	}
	s.replays[b.canon], s.batches[b.id] = b, b
	s.order = append(s.order, b.id)
	s.mu.Unlock()
	s.cache.hits.Add(int64(len(b.cells)))
	s.gcBatches()
	return SubmitResponse{ID: b.id, Kind: kind, Cells: len(b.cells), Cached: len(b.cells)}, true, nil
}

// runBatch wraps a batch executor with the lifecycle bookkeeping every
// kind shares: the drain waitgroup, release of queue slots the
// executor never consumed (cancelled cells, estimate drift), and the
// retention GC once the batch is terminal.
func (s *Server) runBatch(b *batch, run func(*batch)) {
	defer s.running.Done()
	defer s.gcBatches()
	defer s.drainQueue(b)
	run(b)
}

// dequeueCell moves one of b's cells out of the admission queue — it
// is now simulating (or was skipped by cancellation). The guard keeps
// a cell that was never counted (cache estimate drift) from driving
// the global gauge negative.
func (s *Server) dequeueCell(b *batch) {
	if b.queuedLeft.Add(-1) < 0 {
		b.queuedLeft.Add(1)
		return
	}
	s.queued.Add(-1)
}

// drainQueue releases whatever share of the admission queue the batch
// still holds — the executor exited (normally, cancelled, or by
// panic), so nothing of it is queued anymore.
func (s *Server) drainQueue(b *batch) {
	if left := b.queuedLeft.Swap(-1 << 40); left > 0 {
		s.queued.Add(-left)
	}
}

// gcBatches evicts the oldest terminal batches beyond the retention
// cap. Evicted IDs 404 afterwards; the count survives in Stats.
func (s *Server) gcBatches() {
	keep := s.cfg.retainBatches()
	if keep < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	terminal := 0
	for _, id := range s.order {
		if s.batches[id].terminal() {
			terminal++
		}
	}
	evict := terminal - keep
	if evict <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if b := s.batches[id]; evict > 0 && b.terminal() {
			if s.replays[b.canon] == b {
				delete(s.replays, b.canon)
			}
			delete(s.batches, id)
			s.evicted.Add(1)
			evict--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Bounds on what one submission may ask for, refused with 400 before
// anything is allocated: the body is outside input, and a planner sizes
// slices from it.
const (
	maxBatchCells = 1 << 16
	maxFleetFlows = 1 << 20
)

// checkCells refuses a matrix whose (positive) dimensions multiply out
// past maxBatchCells.
func checkCells(dims ...int) error {
	n := 1
	for _, d := range dims {
		if d > maxBatchCells/n {
			return fmt.Errorf("matrix too large: more than %d cells", maxBatchCells)
		}
		n *= d
	}
	return nil
}

func planFig11(s *Server, req SubmitRequest, seed int64) (plan[runner.Result], error) {
	var p plan[runner.Result]
	srv, err := parseServer(req.Server)
	if err != nil {
		return p, err
	}
	sizes := req.Sizes
	if len(sizes) == 0 {
		sizes = experiments.DefaultSizes
	}
	for _, sz := range sizes {
		if sz <= 0 {
			return p, fmt.Errorf("bad size %d: must be positive bytes", sz)
		}
	}
	iters := req.Iters
	if iters <= 0 {
		iters = 3
	}
	if err := checkCells(len(experiments.Fig11Links()), len(sizes), len(experiments.Fig11Algos()), iters); err != nil {
		return p, err
	}
	jobs := experiments.Fig11Jobs(srv, sizes, iters, seed)
	for i := range jobs {
		jobs[i].WallLimit = s.cfg.WallLimit
	}
	if p.keys, err = confhash.JobKeys(jobs); err != nil {
		return p, err
	}
	p.run = func(ctx context.Context, i int) (runner.Result, bool, error) {
		res, cacheable := jobCell(jobs[i], runner.ScratchFrom(ctx).Download(jobs[i]))
		return res, cacheable, res.Err
	}
	p.encode = encodeJobCell
	p.load = func(c *Cache, key string, i int, r *runner.Result) bool {
		v, ok := c.parsedCell(key)
		if ok {
			r.Job, r.DownloadResult, r.Err = jobs[i], v.DownloadResult, v.err
			r.Algo, r.Size = jobs[i].Algo, jobs[i].Size
		}
		return ok
	}
	p.unrun = func(i int, err error) runner.Result { return runner.Result{Job: jobs[i], Err: err} }
	p.fold = func(rs []runner.Result, csv io.Writer) error {
		return experiments.Fig11FromResults(srv, sizes, iters, rs, false).WriteCSV(csv)
	}
	return p, nil
}

// jobCell is a simulated download as a fig11 cell: the result with the
// error the cell carries, and whether it may be cached. A deterministic
// incomplete flow is a property of the config and is cached with its
// error; a stall is not.
func jobCell(j runner.Job, r runner.DownloadResult) (runner.Result, bool) {
	return runner.Result{Job: j, DownloadResult: r, Err: r.Verdict()}, r.Stall == nil
}

// planFleet caches per shard: cells are variant-major (cell i = variant
// i/Shards, shard i%Shards), each an independent deterministic
// simulation, so a resubmission that only grew the shard count still
// reuses every shard it shares with a previous run.
func planFleet(s *Server, req SubmitRequest, seed int64) (plan[runner.FleetResult], error) {
	var p plan[runner.FleetResult]
	fc := experiments.FleetConfigFor(seed, req.Flows, req.Shards, req.Arrival, req.FullMix).Normalized()
	if fc.Flows > maxFleetFlows {
		return p, fmt.Errorf("fleet too large: %d flows, limit %d", fc.Flows, maxFleetFlows)
	}
	n := fc.Shards
	if err := checkCells(2, n); err != nil {
		return p, err
	}
	jobs := experiments.FleetJobs(fc)
	jobs[0].WallLimit, jobs[1].WallLimit = s.cfg.WallLimit, s.cfg.WallLimit
	cell := func(i int) runner.FleetJob {
		sj := jobs[i/n]
		sj.Shard = i % n
		return sj
	}
	p.keys = make([]string, 2*n)
	for i := range p.keys {
		var err error
		if p.keys[i], err = confhash.FleetKey(cell(i)); err != nil {
			return p, err
		}
	}
	p.run = func(ctx context.Context, i int) (runner.FleetResult, bool, error) {
		r := runner.ScratchFrom(ctx).RunFleetShard(cell(i))
		res := runner.FleetResult{ShardResult: r, Err: r.Err}
		if res.Err == nil && r.Stall != nil {
			res.Err = r.Stall
		}
		// Only a clean shard is cached.
		return res, res.Err == nil, res.Err
	}
	p.encode = encodeShardCell
	p.load = loadShardCell
	p.unrun = func(_ int, err error) runner.FleetResult { return runner.FleetResult{Err: err} }
	p.fold = func(rs []runner.FleetResult, csv io.Writer) error {
		return experiments.FleetFromShards(fc, [2][]runner.FleetResult{rs[:n], rs[n:]}, false).WriteCSV(csv)
	}
	return p, nil
}

func parseServer(name string) (scenarios.Server, error) {
	if name == "" {
		return scenarios.GoogleTokyo, nil
	}
	for _, srv := range scenarios.Servers {
		if srv.String() == name {
			return srv, nil
		}
	}
	return 0, fmt.Errorf("unknown server %q", name)
}

func (s *Server) batch(id string) *batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches[id]
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if b := s.batch(id); b != nil {
			st, _ := b.status(false)
			out = append(out, st)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	b := s.batch(r.PathValue("id"))
	if b == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	st, _ := b.status(true)
	writeJSON(w, http.StatusOK, st)
}

// handleCancel is DELETE /v1/jobs/{id}: after it returns, no new cell
// of the batch starts. Cells already simulating finish (and stay
// cached); queued cells are skipped; the batch seals as "canceled".
// Idempotent, and a no-op on an already-terminal batch.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	b := s.batch(r.PathValue("id"))
	if b == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	b.cancel()
	st, _ := b.status(false)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	b := s.batch(r.PathValue("id"))
	if b == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-b.done:
		case <-r.Context().Done():
			return
		}
	}
	b.mu.Lock()
	state, csv, failure := b.state, b.csv, b.failure
	b.mu.Unlock()
	switch state {
	case stateDone:
		w.Header().Set("Content-Type", "text/csv")
		w.Write(csv)
	case stateFailed:
		writeError(w, http.StatusInternalServerError, "%s", failure)
	case stateCanceled:
		st, _ := b.status(false)
		writeJSON(w, http.StatusGone, st)
	default:
		st, _ := b.status(false)
		writeJSON(w, http.StatusConflict, st)
	}
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	b := s.batch(r.PathValue("id"))
	if b == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	last := -1
	for {
		st, ver := b.status(false)
		if ver != last {
			if err := enc.Encode(st); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
			last = ver
		}
		if st.State != stateRunning {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-b.done:
			// loop once more to emit the terminal snapshot
		case <-time.After(150 * time.Millisecond):
		}
	}
}

// ReadStats snapshots the counters (also served at GET /v1/stats).
func (s *Server) ReadStats() Stats {
	s.mu.Lock()
	jobs := len(s.batches)
	s.mu.Unlock()
	return Stats{
		CacheHits:         s.cache.Hits(),
		CacheMisses:       s.cache.Misses(),
		CacheEntries:      s.cache.Len(),
		CellRuns:          s.cellRuns.Load(),
		SimRuns:           runner.SimRuns(),
		Jobs:              jobs,
		QueuedCells:       s.queued.Load(),
		EvictedJobs:       s.evicted.Load(),
		Draining:          s.draining.Load(),
		UptimeSec:         time.Since(s.start).Seconds(),
		CacheReplayed:     s.recovery.Entries,
		CacheDroppedBytes: s.recovery.DroppedBytes,
		CacheDropReason:   s.recovery.Reason,
		PersistErrors:     s.cache.PersistErrors(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.ReadStats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.Ready() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n"))
}
