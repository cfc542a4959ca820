package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"suss/internal/experiments"
	"suss/internal/netem"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/service"
	"suss/internal/service/confhash"
	"suss/internal/stats"
)

// --- runner ---

func (p *pricer) runner() {
	// A one-segment download: everything a cell costs besides its
	// packets.
	floor := func() int {
		r := runner.Download(runner.Job{Scenario: scenarios.New(scenarios.GoogleTokyo, netem.Wired, 1), Algo: runner.Cubic, Size: 1448})
		if !r.Completed {
			panic("bench: one-segment download did not complete")
		}
		return 1
	}
	p.ns("runner.download.floor_ns", timed(floor))
	p.allocs("runner.download.floor_allocs", floor)

	items := make([]int, 1024)
	p.ns("runner.map.dispatch_ns", timed(func() int {
		runner.Map(context.Background(), items, func(context.Context, int, int) (int, error) { return 0, nil }, runner.Options{Workers: 1})
		return len(items)
	}))

	// The fig11 matrix at one iteration per cell, one worker against
	// two: what the pool gains from the second core.
	jobs := experiments.Fig11Jobs(scenarios.GoogleTokyo, experiments.DefaultSizes, 1, 1)
	sweep := func(workers int) float64 {
		t0 := time.Now()
		runner.Run(context.Background(), jobs, runner.Options{Workers: workers})
		return float64(time.Since(t0))
	}
	rounds := p.o.layerRounds
	if rounds > 3 {
		rounds = 3
	}
	var ratio []float64
	for r := 0; r < rounds; r++ {
		one := sweep(1)
		ratio = append(ratio, one/sweep(2))
	}
	p.vals["runner.pool.speedup_w2"], p.n["runner.pool.speedup_w2"] = median(ratio), len(ratio)
}

// --- workload, experiments, stats ---

// syntheticFleet fabricates shard results for the fold: the real
// population with made-up completion times. The fold's cost depends on
// how many records there are, not on what they say.
func syntheticFleet(fc experiments.FleetConfig) [2][]runner.FleetResult {
	rng := rand.New(rand.NewSource(1))
	pop := fc.Population()
	var out [2][]runner.FleetResult
	for v := range out {
		for s := 0; s < fc.Shards; s++ {
			flows := pop.Shard(s, fc.Shards)
			sr := runner.ShardResult{Shard: s, Flows: make([]runner.FlowRecord, len(flows)), JainGoodput: 0.5}
			for i, f := range flows {
				sr.Flows[i] = runner.FlowRecord{
					ID: f.ID, Class: f.Class, Size: f.Size, Start: f.Start, Completed: true,
					FCT: time.Duration(40+rng.Intn(400)) * time.Millisecond,
				}
			}
			out[v] = append(out[v], runner.FleetResult{ShardResult: sr})
		}
	}
	return out
}

func (p *pricer) folds() {
	fc := experiments.DefaultFleetConfig(1).Normalized()
	pop := fc.Population()
	p.ns("workload.shard_gen_ns", timed(func() int { return len(pop.Shard(0, fc.Shards)) }))

	shards := syntheticFleet(fc)
	p.ns("experiments.fleet.fold_ns", timed(func() int {
		res := experiments.FleetFromShards(fc, shards, false)
		if err := res.WriteCSV(io.Discard); err != nil {
			panic(err)
		}
		return 2 * fc.Flows
	}))

	rng := rand.New(rand.NewSource(2))
	samples := make([]float64, 10000)
	for i := range samples {
		samples[i] = rng.ExpFloat64()
	}
	p.ns("stats.cdf.build_ns", timed(func() int {
		stats.NewCDF(samples)
		return len(samples)
	}))

	jobs := fig11Jobs(1)
	results := make([]runner.Result, len(jobs))
	for i, j := range jobs {
		results[i] = runner.Result{Job: j, DownloadResult: runner.DownloadResult{
			Algo: j.Algo, Size: j.Size, Completed: true, Delivered: j.Size,
			FCT: time.Duration(200+rng.Intn(2000)) * time.Millisecond,
		}}
	}
	p.ns("experiments.fig11.fold_ns", timed(func() int {
		fig11CSV(results)
		return len(results)
	}))
}

// --- service ---

// get fetches a URL and reads the body whole, so the connection is
// reused by the next request.
func get(c *http.Client, url string) []byte {
	resp, err := c.Get(url)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(err)
	}
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("bench: GET %s: %s", url, resp.Status))
	}
	return body
}

func (p *pricer) service() {
	jobs := fig11Jobs(1)
	k := 0
	p.ns("service.confhash.jobkey_ns", timed(func() int {
		for i := 0; i < 64; i++ {
			if _, err := confhash.JobKey(jobs[k%len(jobs)]); err != nil {
				panic(err)
			}
			k++
		}
		return 64
	}))
	fleet := experiments.FleetJobs(experiments.DefaultFleetConfig(1))[1]
	p.ns("service.confhash.fleetkey_ns", timed(func() int {
		for i := 0; i < 64; i++ {
			fleet.Shard = i % 4
			if _, err := confhash.FleetKey(fleet); err != nil {
				panic(err)
			}
		}
		return 64
	}))

	// Records of 256 bytes under keys shaped like the real ones.
	val := bytes.Repeat([]byte{'x'}, 256)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("job:%064x", i)
	}
	warm := service.NewCache()
	for _, key := range keys[:252] {
		warm.Put(key, val)
	}
	p.ns("service.cache.get_ns", timed(func() int {
		for _, key := range keys[:252] {
			if _, ok := warm.Get(key); !ok {
				panic("bench: cache lost a key")
			}
		}
		return 252
	}))
	p.ns("service.cache.put_mem_ns", func() (int, time.Duration) {
		c := service.NewCache()
		t0 := time.Now()
		for _, key := range keys {
			c.Put(key, val)
		}
		return len(keys), time.Since(t0)
	})

	dir, err := os.MkdirTemp(p.o.outDir, "cache-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	fill := func(path string, n int) time.Duration {
		c, _, err := service.NewPersistentCache(path)
		if err != nil {
			panic(err)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c.Put(fmt.Sprintf("job:%064x", i), val)
		}
		d := time.Since(t0)
		if c.PersistErrors() != 0 {
			panic("bench: cache log append failed")
		}
		if err := c.Close(); err != nil {
			panic(err)
		}
		return d
	}
	scratch := filepath.Join(dir, "put.log")
	p.ns("service.cache.put_persist_ns", func() (int, time.Duration) {
		if err := os.Remove(scratch); err != nil && !os.IsNotExist(err) {
			panic(err)
		}
		return 1024, fill(scratch, 1024)
	})
	// What a restarted daemon pays per record it finds in its log.
	const logged = 10000
	big := filepath.Join(dir, "replay.log")
	fill(big, logged)
	p.ns("service.cache.replay_ns", func() (int, time.Duration) {
		t0 := time.Now()
		c, info, err := service.NewPersistentCache(big)
		d := time.Since(t0)
		if err != nil || info.Entries != logged {
			panic(fmt.Sprintf("bench: replay found %d of %d records: %v", info.Entries, logged, err))
		}
		if err := c.Close(); err != nil {
			panic(err)
		}
		return logged, d
	})

	// The daemon itself, memory-only, over loopback: an empty request,
	// then one cold fig11 matrix and its identical resubmissions.
	srv, err := service.New(service.Config{Workers: 2})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	in := &sussdInstance{srv: srv, ts: ts, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	p.ns("service.http_floor_ms", timed(func() int {
		for i := 0; i < 16; i++ {
			get(in.client, ts.URL+"/healthz")
		}
		return 16
	}))
	p.vals["service.http_floor_ms"] /= 1e6 // ns → ms
	body := []byte(`{"kind":"fig11","seed":1}`)
	if _, _, _, err := in.submit(body, nil); err != nil {
		panic(err)
	}
	resubmits := 12 * p.o.layerRounds
	var ms []float64
	for i := 0; i < resubmits; i++ {
		ack, _, d, err := in.submit(body, nil)
		if err != nil || ack.Cached != ack.Cells {
			panic(fmt.Sprintf("bench: warm resubmission: %d of %d cached: %v", ack.Cached, ack.Cells, err))
		}
		ms = append(ms, float64(d)/1e6)
	}
	p.vals["service.warm_hit_ms_p99"], p.n["service.warm_hit_ms_p99"] = stats.Percentile(ms, 99), len(ms)
	p.vals["service.warm_us_per_cell"] = (median(ms) - p.vals["service.http_floor_ms"]) * 1000 / float64(len(jobs))
	p.n["service.warm_us_per_cell"] = len(ms)
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		panic(err)
	}
}
