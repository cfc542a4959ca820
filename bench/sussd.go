package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"suss/internal/runner"
	"suss/internal/service"
	"suss/internal/service/confhash"
)

// sussdInstance is the daemon behind real loopback HTTP with a
// persistent cache file, driven by one closed-loop client connection:
// each request is sent only after the previous reply was read whole.
type sussdInstance struct {
	seed   int64
	warm   int // identical resubmissions per round
	dir    string
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	// rounds keeps each round's matrix seed and cold CSV so finish can
	// check one of them against an in-process reference.
	rounds map[int]sussdRound

	// In-process stand-ins for the daemon's own layers, spanned in
	// traced rounds: the reference results the fold consumes and a
	// cache holding one record per cell.
	refResults []runner.Result
	refKeys    []string
	refCache   *service.Cache
	// refLaps and refWall are the reference run's per-cell latencies
	// and wall time: the only view of single cells this workload has.
	refLaps []float64
	refWall time.Duration
}

type sussdRound struct {
	matrixSeed int64
	csv        []byte
}

func setupSussd(seed int64, o runOpts) (instance, error) {
	dir, err := os.MkdirTemp(o.outDir, "sussd-")
	if err != nil {
		return nil, err
	}
	// One worker: with two on this two-vCPU guest the cold time's spread
	// across runs was 17–20 %, against 13 % with one. What the second
	// core gives the pool is priced apart, as runner.pool.speedup_w2.
	srv, err := service.New(service.Config{Workers: 1, CacheFile: filepath.Join(dir, "cache.log")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	in := &sussdInstance{
		seed:   seed,
		warm:   o.warmResubmits,
		dir:    dir,
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		rounds: make(map[int]sussdRound),
	}
	return in, nil
}

// matrixSeed is seed + round, stepping over zero: the daemon reads a
// zero seed as 1, which would make one round a resubmission of another.
func (in *sussdInstance) matrixSeed(round int) int64 {
	s := in.seed + int64(round)
	if in.seed <= 0 && s >= 0 {
		s++
	}
	return s
}

// submit posts the matrix and reads the CSV, returning the daemon's
// acknowledgment, the CSV, and the time from the POST to the last CSV
// byte. The three spans are the client's view of the daemon.
func (in *sussdInstance) submit(body []byte, rec *spanRecorder) (service.SubmitResponse, []byte, time.Duration, error) {
	var (
		ack service.SubmitResponse
		csv []byte
		err error
	)
	spanned := func(name string, fn func()) {
		if rec == nil {
			fn()
			return
		}
		rec.in(name, fn)
	}
	t0 := time.Now()
	spanned("service.submit", func() {
		var resp *http.Response
		resp, err = in.client.Post(in.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body) // diagnostic only
			err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
			return
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
	})
	if err != nil {
		return ack, nil, 0, err
	}
	var resp *http.Response
	spanned("service.wait", func() {
		resp, err = in.client.Get(in.ts.URL + "/v1/jobs/" + ack.ID + "/result?wait=1")
	})
	if err != nil {
		return ack, nil, 0, err
	}
	spanned("service.read_csv", func() {
		defer resp.Body.Close()
		csv, err = io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(csv))
		}
	})
	return ack, csv, time.Since(t0), err
}

func (in *sussdInstance) pass(i int, rec *spanRecorder) passStats {
	mseed := in.matrixSeed(i)
	body, err := json.Marshal(service.SubmitRequest{Kind: "fig11", Seed: mseed})
	if err != nil {
		panic(err) // a struct of ints and strings always marshals
	}
	var (
		p    passStats
		cold []byte
	)
	fail := func(format string, args ...any) { p.errs = append(p.errs, fmt.Sprintf(format, args...)) }
	if rec != nil {
		rec.pass = i
		if in.refResults == nil {
			in.prepareInProcess()
		}
	}
	p.wall, p.allocs = measured(func() {
		if rec != nil {
			root := rec.begin(passRoot)
			defer rec.end(root)
		}
		ack, csv, d, err := in.submit(body, rec)
		p.ops++
		p.opMs = append(p.opMs, float64(d)/1e6)
		p.coldWall, cold = d, csv
		switch {
		case err != nil:
			fail("cold submit: %v", err)
			return
		case ack.Cached != 0:
			fail("cold round found %d of %d cells cached: the matrix was seen before", ack.Cached, ack.Cells)
		case ack.Cells != 252:
			fail("matrix has %d cells, want 252", ack.Cells)
		}
		p.cells = ack.Cells
		runs := runner.SimRuns()
		for k := 0; k < in.warm; k++ {
			ack, csv, d, err := in.submit(body, rec)
			p.ops++
			p.opMs = append(p.opMs, float64(d)/1e6)
			switch {
			case err != nil:
				fail("warm submit %d: %v", k, err)
				return
			case ack.Cached != ack.Cells:
				fail("warm submit %d: %d of %d cells cached", k, ack.Cached, ack.Cells)
			case !bytes.Equal(csv, cold):
				fail("warm submit %d: CSV differs from the cold one", k)
			}
		}
		if d := runner.SimRuns() - runs; d != 0 {
			fail("%d simulator runs during the warm phase, want 0", d)
		}
		if rec != nil {
			in.inProcessSpans(mseed, rec)
		}
	})
	if mseed == 1 && cold != nil {
		if s := sha(cold); s != fig11GoldenSHA {
			fail("seed-1 matrix CSV sha %s, want %s", s, fig11GoldenSHA)
		}
	}
	in.rounds[i] = sussdRound{matrixSeed: mseed, csv: cold}
	return p
}

// reference computes a matrix in process, serially, the way the CLI
// would: the oracle for the daemon's CSV and the only place the
// segment count of a matrix can be read.
func reference(matrixSeed int64, laps *lapTimer) ([]runner.Result, []byte) {
	opt := runner.Options{Workers: 1}
	if laps != nil {
		opt.Progress = laps.lap
		laps.start()
	}
	res := runner.Run(context.Background(), fig11Jobs(matrixSeed), opt)
	return res, fig11CSV(res)
}

// finish checks the round whose cold time is the median against the
// in-process reference, and takes that matrix's segment count so the
// round can report simulated packets per second like the simulator
// workloads do. The daemon's API does not expose segments.
func (in *sussdInstance) finish(timed []passStats) []string {
	if len(timed) == 0 {
		return nil
	}
	cold := make([]float64, len(timed))
	for k, p := range timed {
		cold[k] = p.coldWall.Seconds()
	}
	s := sorted(cold)
	mid := s[(len(s)-1)/2]
	k := 0
	for k < len(cold) && cold[k] != mid {
		k++
	}
	round := in.rounds[timed[k].index]
	res, csv := reference(round.matrixSeed, nil)
	for _, r := range res {
		timed[k].segs += int64(r.Segments)
		timed[k].retrans += int64(r.Retrans)
		timed[k].simSec += r.FCT.Seconds()
	}
	if !bytes.Equal(csv, round.csv) {
		return []string{fmt.Sprintf("daemon CSV for matrix seed %d differs from the in-process fold", round.matrixSeed)}
	}
	return nil
}

// prepareInProcess builds what the in-process spans of a traced round
// consume. The results come from the warm-up round's matrix: the fold
// and the cache read cost the same whatever the FCTs are.
func (in *sussdInstance) prepareInProcess() {
	var laps lapTimer
	t0 := time.Now()
	in.refResults, _ = reference(in.matrixSeed(0), &laps)
	in.refWall, in.refLaps = time.Since(t0), laps.ms
	in.refCache = service.NewCache()
	val := bytes.Repeat([]byte{'x'}, 256)
	for _, r := range in.refResults {
		key, err := confhash.JobKey(r.Job)
		if err != nil {
			panic(err) // fig11 jobs carry no closures; they always hash
		}
		in.refKeys = append(in.refKeys, key)
		in.refCache.Put(key, val)
	}
}

// inProcessSpans prices, inside a traced round, the three steps every
// resubmission repeats inside the daemon: key the cells, read the
// cache, fold the results.
func (in *sussdInstance) inProcessSpans(matrixSeed int64, rec *spanRecorder) {
	jobs := fig11Jobs(matrixSeed)
	keys := make([]string, len(jobs))
	rec.in("confhash.keys", func() {
		for k := range jobs {
			keys[k], _ = confhash.JobKey(jobs[k]) // cannot fail, see prepareInProcess
		}
	})
	rec.in("cache.get", func() {
		for _, k := range in.refKeys {
			in.refCache.Get(k)
		}
	})
	rec.in("experiments.fold", func() { fig11CSV(in.refResults) })
}

func (in *sussdInstance) close() error {
	in.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.srv.Drain(ctx)
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}
