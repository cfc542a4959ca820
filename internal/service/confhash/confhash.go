// Package confhash computes the content-addressed cache keys of
// experiment jobs: two configs that would produce byte-identical
// results share a key, and any difference that could change a result
// changes it. A job is normalized (every default the runner would fill
// is filled), rendered by one explicit append function per type of the
// key graph, and hashed with SHA-256. The rendered text is a frozen
// on-disk contract, held byte-equal to the reflective reference in the
// tests; DESIGN.md ("Cache keys") gives its form and what is refused.
package confhash

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"suss/internal/core"
	"suss/internal/cubic"
	"suss/internal/netem"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/tcp"
	"suss/internal/workload"
)

// JobKey returns the cache key of a download job, or why it has none.
func JobKey(j runner.Job) (string, error) {
	if err := normalizeJob(&j); err != nil {
		return "", err
	}
	var buf [1024]byte
	var k [keyLen]byte
	return string(appendKey(k[:0], "job:", appendJob(buf[:0], &j))), nil
}

// JobKeys returns JobKey of every job, or the first refusal. A matrix
// repeats a few scenarios and run tails, so JobKeys renders each once
// and splices its text into every cell's; a cell then costs one hash.
// The keys are slices of one string.
func JobKeys(jobs []runner.Job) ([]string, error) {
	text := jobText{&memo[scenarioKey]{}, &memo[runTail]{}}
	var all strings.Builder
	all.Grow(len(jobs) * keyLen)
	var buf [1024]byte
	var n runner.Job
	for i := range jobs {
		n = jobs[i]
		if err := normalizeJob(&n); err != nil {
			return nil, err
		}
		var k [keyLen]byte
		all.Write(appendKey(k[:0], "job:", text.append(buf[:0], &n)))
	}
	s, keys := all.String(), make([]string, len(jobs))
	for i := range keys {
		keys[i] = s[i*keyLen:][:keyLen]
	}
	return keys, nil
}

// FleetKey returns the cache key of one fleet shard job.
func FleetKey(j runner.FleetJob) (string, error) {
	n, err := normalizeFleetJob(j)
	var buf [1024]byte
	b := buf[:0]
	if err == nil {
		b, err = appendFleetJob(b, n)
	}
	if err != nil {
		return "", err
	}
	var k [len("fleet:") + 2*sha256.Size]byte
	return string(appendKey(k[:0], "fleet:", b)), nil
}

const keyLen = len("job:") + 2*sha256.Size // a job key's length

func appendKey(b []byte, prefix string, canonical []byte) []byte {
	sum := sha256.Sum256(canonical)
	return hex.AppendEncode(append(b, prefix...), sum[:])
}

// The defaults normalization fills in: shared and only ever read, so
// filling them allocates nothing.
var (
	defaultTransport = tcp.DefaultConfig()
	defaultSussOpt   = core.DefaultOptions()
	defaultMix       = workload.DefaultMix()
	defaultArrivals  = workload.ArrivalDist(workload.PoissonArrivals{Rate: 100})
)

// normalizeJob fills what the runner defaults: Backend "sim" (the
// retired field's other values are refused, as the runner refuses
// them), DefaultHorizon, tcp.DefaultConfig, and core.DefaultOptions for
// Suss; other algorithms ignore SussOpt, so it is cleared. WallLimit
// folds into Observe (a watchdogged job runs observed) and is cleared:
// it only matters to stalled runs, which are never cached.
func normalizeJob(j *runner.Job) error {
	if j.Impair != nil {
		return errors.New("confhash: job with an Impair hook is not cacheable")
	}
	if j.Backend != "" && j.Backend != "sim" {
		return fmt.Errorf("confhash: backend %q is not the simulator and is not cacheable", j.Backend)
	}
	j.Backend = "sim"
	if j.Horizon <= 0 {
		j.Horizon = runner.DefaultHorizon
	}
	if j.Transport == nil {
		j.Transport = &defaultTransport
	}
	if j.Algo != runner.Suss {
		j.SussOpt = nil
	} else if j.SussOpt == nil {
		j.SussOpt = &defaultSussOpt
	}
	j.Observe = j.Observe || j.WallLimit > 0
	j.WallLimit = 0
	return nil
}

// normalizeFleetJob treats the knobs a shard shares with a download job
// alike, and fills what workload.Shard and the runner default.
func normalizeFleetJob(j runner.FleetJob) (runner.FleetJob, error) {
	if j.Impair != nil {
		return j, errors.New("confhash: fleet job with an Impair hook is not cacheable")
	}
	if j.Shards <= 0 {
		j.Shards = 1
	}
	if j.Shard < 0 || j.Shard >= j.Shards {
		return j, fmt.Errorf("confhash: shard %d out of range [0,%d)", j.Shard, j.Shards)
	}
	r := runner.Job{Algo: j.Algo, SussOpt: j.SussOpt, Transport: j.Transport, Horizon: j.Horizon, Observe: j.Observe, WallLimit: j.WallLimit}
	normalizeJob(&r) // no hook, no backend: cannot fail
	j.SussOpt, j.Transport, j.Horizon, j.Observe, j.WallLimit = r.SussOpt, r.Transport, r.Horizon, r.Observe, r.WallLimit
	if len(j.Pop.Mix) == 0 {
		j.Pop.Mix = defaultMix
	}
	if j.Pop.Arrivals == nil {
		j.Pop.Arrivals = defaultArrivals
	}
	return j, nil
}

// The append functions write fields in sorted-name order; a name
// carries the punctuation before it ("{Algo:", ",Size:").

func appendInt(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(b, name...), v, 10)
}

func appendFloat(b []byte, name string, v float64) []byte {
	return strconv.AppendFloat(append(b, name...), v, 'g', -1, 64)
}

func appendBool(b []byte, name string, v bool) []byte {
	return strconv.AppendBool(append(b, name...), v)
}

// appendJob renders a download job whose Impair is nil.
func appendJob(b []byte, j *runner.Job) []byte { return jobText{}.append(b, j) }

// jobText renders download jobs; with memos (JobKeys) it copies the
// text of a scenario or run tail it rendered before.
type jobText struct {
	scens *memo[scenarioKey]
	tails *memo[runTail]
}

func (t jobText) append(b []byte, j *runner.Job) []byte {
	b = appendInt(b, "{Algo:", int64(j.Algo))
	b = strconv.AppendQuote(append(b, ",Backend:"...), j.Backend)
	b = appendInt(b, ",Domains:", int64(j.Domains))
	b = appendInt(b, ",Horizon:", int64(j.Horizon))
	b = appendInt(b, ",Impair:null,Iter:", int64(j.Iter))
	b = appendBool(b, ",Observe:", j.Observe)
	sc, ok := keyScenario(j.Scenario), false
	if b, ok = t.scens.get(append(b, ",Scenario:"...), sc); !ok {
		b = t.scens.put(sc, len(b), appendScenario(b, j.Scenario))
	}
	b = appendInt(b, ",Size:", j.Size)
	tail := runTail{j.SussOpt, j.Transport, j.WallLimit}
	if b, ok = t.tails.get(b, tail); !ok {
		b = t.tails.put(tail, len(b), appendRunTail(b, tail))
	}
	return b
}

// scenarioKey is a scenario with its floats' bits: == on scenarios
// alone would take -0 for 0, which renders differently.
type scenarioKey struct {
	s    scenarios.Scenario
	bits [5]uint64
}

func keyScenario(s scenarios.Scenario) scenarioKey {
	h, bits := s.LastHop, math.Float64bits
	return scenarioKey{s, [...]uint64{bits(s.CoreRate), bits(h.BufferBDPs), bits(h.Loss), bits(h.MeanRate), bits(h.RelStdDev)}}
}

// memo holds the first few distinct keys' texts; a nil memo holds none.
type memo[K comparable] struct {
	n     int
	keys  [8]K
	texts [8][]byte
}

// get appends k's text to b if the memo holds it.
func (m *memo[K]) get(b []byte, k K) ([]byte, bool) {
	for i := 0; m != nil && i < m.n; i++ {
		if m.keys[i] == k {
			return append(b, m.texts[i]...), true
		}
	}
	return b, false
}

// put remembers b[from:] as k's text, if there is room, and returns b.
func (m *memo[K]) put(k K, from int, b []byte) []byte {
	if m != nil && m.n < len(m.keys) {
		m.keys[m.n], m.texts[m.n] = k, bytes.Clone(b[from:])
		m.n++
	}
	return b
}

// appendFleetJob renders a fleet shard job whose Impair is nil.
func appendFleetJob(b []byte, j runner.FleetJob) ([]byte, error) {
	b = appendInt(b, "{Algo:", int64(j.Algo))
	b = appendInt(b, ",Domains:", int64(j.Domains))
	b = appendFleet(append(b, ",Fleet:"...), j.Fleet)
	b = appendInt(b, ",Horizon:", int64(j.Horizon))
	b = appendBool(b, ",Impair:null,Observe:", j.Observe)
	b, err := appendPopulation(append(b, ",Pop:"...), j.Pop)
	b = appendInt(b, ",Shard:", int64(j.Shard))
	b = appendInt(b, ",Shards:", int64(j.Shards))
	return appendRunTail(b, runTail{j.SussOpt, j.Transport, j.WallLimit}), err
}

// runTail is the fields both job types end on. As a memo key it
// compares pointers: equal options behind two pointers render twice.
type runTail struct {
	opt  *core.Options
	cfg  *tcp.Config
	wall time.Duration
}

func appendRunTail(b []byte, t runTail) []byte {
	if b = append(b, ",SussOpt:"...); t.opt == nil {
		b = append(b, "null"...)
	} else {
		b = appendSussOptions(b, *t.opt)
	}
	if b = append(b, ",Transport:"...); t.cfg == nil {
		b = append(b, "null"...)
	} else {
		b = appendTransport(b, *t.cfg)
	}
	return append(appendInt(b, ",WallLimit:", int64(t.wall)), '}')
}

func appendScenario(b []byte, s scenarios.Scenario) []byte {
	b = appendFloat(b, "{CoreRate:", s.CoreRate)
	b = appendProfile(append(b, ",LastHop:"...), s.LastHop)
	b = appendInt(b, ",Link:", int64(s.Link))
	b = appendInt(b, ",RTT:", int64(s.RTT))
	b = appendInt(b, ",Seed:", s.Seed)
	return append(appendInt(b, ",Server:", int64(s.Server)), '}')
}

func appendProfile(b []byte, p netem.Profile) []byte {
	b = appendFloat(b, "{BufferBDPs:", p.BufferBDPs)
	b = appendInt(b, ",JitterMax:", int64(p.JitterMax))
	b = appendFloat(b, ",Loss:", p.Loss)
	b = appendFloat(b, ",MeanRate:", p.MeanRate)
	b = appendFloat(b, ",RelStdDev:", p.RelStdDev)
	return append(appendInt(b, ",Type:", int64(p.Type)), '}')
}

func appendSussOptions(b []byte, o core.Options) []byte {
	b = appendFloat(b, "{AckTrainFrac:", o.AckTrainFrac)
	b = appendCubicOptions(append(b, ",Cubic:"...), o.Cubic)
	b = appendFloat(b, ",DelayFactor:", o.DelayFactor)
	b = appendInt(b, ",Kmax:", int64(o.Kmax))
	b = appendBool(b, ",NoGuard:", o.NoGuard)
	b = appendBool(b, ",NoPacing:", o.NoPacing)
	return append(appendBool(b, ",PaceEverything:", o.PaceEverything), '}')
}

func appendCubicOptions(b []byte, o cubic.Options) []byte {
	b = appendFloat(b, "{Beta:", o.Beta)
	b = appendFloat(b, ",C:", o.C)
	b = appendBool(b, ",FastConvergence:", o.FastConvergence)
	b = appendBool(b, ",HyStart:", o.HyStart)
	b = appendBool(b, ",HyStartPP:", o.HyStartPP)
	b = appendInt(b, ",IW:", int64(o.IW))
	return append(appendBool(b, ",TCPFriendly:", o.TCPFriendly), '}')
}

func appendTransport(b []byte, c tcp.Config) []byte {
	b = appendInt(b, "{AckBytes:", int64(c.AckBytes))
	b = appendInt(b, ",AckEvery:", int64(c.AckEvery))
	b = appendBool(b, ",AdaptReoWnd:", c.AdaptReoWnd)
	b = appendInt(b, ",DelAckTimeout:", int64(c.DelAckTimeout))
	b = appendInt(b, ",DupThresh:", int64(c.DupThresh))
	b = appendBool(b, ",FRTO:", c.FRTO)
	b = appendInt(b, ",HeaderBytes:", int64(c.HeaderBytes))
	b = appendInt(b, ",IW:", int64(c.IW))
	b = appendInt(b, ",MSS:", int64(c.MSS))
	b = appendInt(b, ",MaxConsecRTOs:", int64(c.MaxConsecRTOs))
	b = appendInt(b, ",MaxRTO:", int64(c.MaxRTO))
	return append(appendInt(b, ",MinRTO:", int64(c.MinRTO)), '}')
}

func appendFleet(b []byte, f scenarios.Fleet) []byte {
	b = appendFloat(b, "{AccessRate:", f.AccessRate)
	b = appendFloat(b, ",AggRate:", f.AggRate)
	b = appendFloat(b, ",BufferBDP:", f.BufferBDP)
	b = appendFloat(b, ",CoreRate:", f.CoreRate)
	b = appendInt(b, ",Groups:", int64(f.Groups))
	b = appendInt(b, ",HostsPerGroup:", int64(f.HostsPerGroup))
	b = appendInt(b, ",RTT:", int64(f.RTT))
	b = appendInt(b, ",Seed:", f.Seed)
	return append(appendInt(b, ",Servers:", int64(f.Servers)), '}')
}

// From here on an error comes with partial text, which FleetKey drops.
func appendPopulation(b []byte, p workload.PopulationSpec) ([]byte, error) {
	b, err := appendArrivals(append(b, "{Arrivals:"...), p.Arrivals)
	b = appendInt(b, ",Flows:", int64(p.Flows))
	b = append(b, ",Mix:["...)
	for i := 0; i < len(p.Mix) && err == nil; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b, err = appendClassMix(b, p.Mix[i])
	}
	b = appendInt(b, "],Seed:", p.Seed)
	return append(appendInt(b, ",Start:", int64(p.Start)), '}'), err
}

func appendClassMix(b []byte, m workload.ClassMix) ([]byte, error) {
	b = appendInt(b, "{Class:", int64(m.Class))
	b, err := appendSizeDist(append(b, ",Sizes:"...), m.Sizes)
	return append(appendFloat(b, ",Weight:", m.Weight), '}'), err
}

// appendArrivals and appendSizeDist tag an interface value with its
// concrete type and refuse every type they do not list.
func appendArrivals(b []byte, a workload.ArrivalDist) ([]byte, error) {
	switch a := a.(type) {
	case workload.PoissonArrivals:
		return append(appendFloat(b, "<workload.PoissonArrivals>{Rate:", a.Rate), '}'), nil
	case workload.LognormalArrivals:
		b = appendInt(b, "<workload.LognormalArrivals>{MaxGap:", int64(a.MaxGap))
		b = appendFloat(b, ",Mu:", a.Mu)
		return append(appendFloat(b, ",Sigma:", a.Sigma), '}'), nil
	}
	return b, fmt.Errorf("confhash: %T is not cacheable", a)
}

func appendSizeDist(b []byte, d workload.SizeDist) (_ []byte, err error) {
	switch d := d.(type) {
	case nil:
		return append(b, "null"...), nil
	case workload.Lognormal:
		b = appendInt(b, "<workload.Lognormal>{Max:", d.Max)
		b = appendInt(b, ",Min:", d.Min)
		b = appendFloat(b, ",Mu:", d.Mu)
		return append(appendFloat(b, ",Sigma:", d.Sigma), '}'), nil
	case workload.BoundedPareto:
		b = appendFloat(b, "<workload.BoundedPareto>{Alpha:", d.Alpha)
		b = appendInt(b, ",Max:", d.Max)
		return append(appendInt(b, ",Min:", d.Min), '}'), nil
	case workload.Mixture: // the unexported label only names it in reports
		b = append(b, "<workload.Mixture>{Dists:["...)
		for i := 0; i < len(d.Dists) && err == nil; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b, err = appendSizeDist(b, d.Dists[i])
		}
		b = append(b, "],Weights:["...)
		for i, w := range d.Weights {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, w, 'g', -1, 64)
		}
		return append(b, "]}"...), err
	}
	return b, fmt.Errorf("confhash: %T is not cacheable", d)
}
