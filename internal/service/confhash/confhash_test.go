package confhash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"suss/internal/chaos"
	"suss/internal/core"
	"suss/internal/experiments"
	"suss/internal/netem"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/tcp"
	"suss/internal/workload"
)

func mustJobKey(t *testing.T, j runner.Job) string {
	t.Helper()
	k, err := JobKey(j)
	if err != nil {
		t.Fatalf("JobKey(%+v): %v", j, err)
	}
	return k
}

func mustFleetKey(t *testing.T, j runner.FleetJob) string {
	t.Helper()
	k, err := FleetKey(j)
	if err != nil {
		t.Fatalf("FleetKey: %v", err)
	}
	return k
}

func baseJob() runner.Job {
	return runner.Job{
		Scenario: scenarios.New(scenarios.GoogleTokyo, netem.LTE4G, 1),
		Algo:     runner.Suss,
		Size:     1 << 20,
	}
}

// The cache-correctness heart: a config relying on defaults and one
// spelling every default out must be the same key, field by field.
func TestJobKeyDefaultedEqualsExplicit(t *testing.T) {
	short := baseJob()
	long := baseJob()
	long.Backend = "sim"
	long.Horizon = runner.DefaultHorizon
	cfg := tcp.DefaultConfig()
	long.Transport = &cfg
	opt := core.DefaultOptions()
	long.SussOpt = &opt

	if got, want := mustJobKey(t, long), mustJobKey(t, short); got != want {
		t.Errorf("explicit defaults hash differently:\n defaulted %s\n explicit  %s", want, got)
	}
}

// Execution knobs the determinism contract covers must not key the
// cache: the watchdog produces identical records.
func TestJobKeyIgnoresExecutionKnobs(t *testing.T) {
	j := baseJob()

	// WallLimit folds into Observe: a guarded job is an observed job.
	j.WallLimit = time.Minute
	withWall := mustJobKey(t, j)
	j.WallLimit = 0
	j.Observe = true
	if withWall != mustJobKey(t, j) {
		t.Error("WallLimit>0 must hash like Observe=true (the runner attaches the recorder for both)")
	}
}

// A retired-field value can never share a key with a runnable job: the
// runner refuses Domains > 1, so such a config must not alias a cached
// result computed for the config the runner does accept.
func TestRetiredDomainsNeverSharesKey(t *testing.T) {
	j := baseJob()
	j.Domains = 2
	if mustJobKey(t, j) == mustJobKey(t, baseJob()) {
		t.Error("Job{Domains: 2} shares a key with the runnable job")
	}
	fj := baseFleetJob()
	fj.Domains = 2
	if mustFleetKey(t, fj) == mustFleetKey(t, baseFleetJob()) {
		t.Error("FleetJob{Domains: 2} shares a key with the runnable job")
	}
}

// The same for the retired Backend field: the runner refuses every
// value but ""/"sim", so no other value may produce a key at all, let
// alone the runnable job's.
func TestRetiredBackendNeverSharesKey(t *testing.T) {
	base := mustJobKey(t, baseJob())
	for _, be := range []string{"pipe", "udp", "carrier-pigeon"} {
		j := baseJob()
		j.Backend = be
		if k, err := JobKey(j); err == nil {
			t.Errorf("Job{Backend: %q} got key %s (runnable job's: %v); the runner refuses it", be, k, k == base)
		}
	}
}

func TestJobKeySemanticFieldsChangeKey(t *testing.T) {
	base := mustJobKey(t, baseJob())
	mutate := []struct {
		name string
		fn   func(*runner.Job)
	}{
		{"algo", func(j *runner.Job) { j.Algo = runner.Cubic }},
		{"size", func(j *runner.Job) { j.Size = 2 << 20 }},
		{"iter", func(j *runner.Job) { j.Iter = 1 }},
		{"seed", func(j *runner.Job) { j.Scenario.Seed++ }},
		{"rtt", func(j *runner.Job) { j.Scenario.RTT += time.Millisecond }},
		{"horizon", func(j *runner.Job) { j.Horizon = time.Minute }},
		{"observe", func(j *runner.Job) { j.Observe = true }},
		{"kmax", func(j *runner.Job) {
			opt := core.DefaultOptions()
			opt.Kmax = 3
			j.SussOpt = &opt
		}},
		{"transport", func(j *runner.Job) {
			cfg := tcp.DefaultConfig()
			cfg.FRTO = true
			j.Transport = &cfg
		}},
	}
	for _, m := range mutate {
		j := baseJob()
		m.fn(&j)
		if mustJobKey(t, j) == base {
			t.Errorf("%s: semantic change did not change the key", m.name)
		}
	}
}

// SussOpt only feeds the controller when Algo is Suss; for every other
// algorithm it must not key the cache.
func TestJobKeySussOptIgnoredForNonSuss(t *testing.T) {
	j := baseJob()
	j.Algo = runner.BBR
	base := mustJobKey(t, j)
	opt := core.DefaultOptions()
	opt.Kmax = 4
	j.SussOpt = &opt
	if mustJobKey(t, j) != base {
		t.Error("SussOpt keyed a non-Suss job the runner ignores it for")
	}
}

func TestJobKeyRejectsUncacheable(t *testing.T) {
	j := baseJob()
	j.Impair = func(runner.ChaosEnv) {}
	if _, err := JobKey(j); err == nil {
		t.Error("Impair hook accepted: arbitrary code is not content-addressable")
	}
	j = baseJob()
	j.Backend = "pipe"
	if _, err := JobKey(j); err == nil || !strings.Contains(err.Error(), "pipe") {
		t.Errorf("pipe backend accepted (err=%v): wall-clock results must not be cached", err)
	}
}

func baseFleetJob() runner.FleetJob {
	fc := experiments.DefaultFleetConfig(1)
	jobs := experiments.FleetJobs(fc)
	return jobs[0]
}

func TestFleetKeyDefaultedEqualsExplicit(t *testing.T) {
	short := baseFleetJob()
	short.Pop.Mix = nil // rely on workload.Shard's default
	short.Pop.Arrivals = nil
	short.Horizon = 0

	long := short
	long.Pop.Mix = workload.DefaultMix()
	long.Pop.Arrivals = workload.PoissonArrivals{Rate: 100}
	long.Horizon = runner.DefaultHorizon
	cfg := tcp.DefaultConfig()
	long.Transport = &cfg

	if got, want := mustFleetKey(t, long), mustFleetKey(t, short); got != want {
		t.Errorf("explicit fleet defaults hash differently:\n defaulted %s\n explicit  %s", want, got)
	}
}

func TestFleetKeySemanticFieldsChangeKey(t *testing.T) {
	base := mustFleetKey(t, baseFleetJob())
	mutate := []struct {
		name string
		fn   func(*runner.FleetJob)
	}{
		{"shard", func(j *runner.FleetJob) { j.Shard = 1 }},
		{"shards", func(j *runner.FleetJob) { j.Shards++ }},
		{"algo", func(j *runner.FleetJob) { j.Algo = runner.Suss }},
		{"flows", func(j *runner.FleetJob) { j.Pop.Flows++ }},
		{"seed", func(j *runner.FleetJob) { j.Pop.Seed++ }},
		{"rate", func(j *runner.FleetJob) { j.Pop.Arrivals = workload.PoissonArrivals{Rate: 42} }},
		{"tree", func(j *runner.FleetJob) { j.Fleet.HostsPerGroup++ }},
		{"mix", func(j *runner.FleetJob) { j.Pop.Mix = workload.DefaultMix() }}, // base uses SmokeMix
	}
	for _, m := range mutate {
		j := baseFleetJob()
		m.fn(&j)
		if mustFleetKey(t, j) == base {
			t.Errorf("%s: semantic change did not change the key", m.name)
		}
	}
}

// The arrival process's concrete type is part of the identity even when
// the rendered fields could collide.
func TestFleetKeyArrivalTypeTagged(t *testing.T) {
	j := baseFleetJob()
	j.Pop.Arrivals = workload.PoissonArrivals{Rate: 100}
	poisson := mustFleetKey(t, j)
	j.Pop.Arrivals = workload.LognormalArrivals{Mu: 100} // same leading float
	if mustFleetKey(t, j) == poisson {
		t.Error("different arrival process types collided")
	}
}

// opaqueSizes is a size distribution whose one parameter is
// unexported: a reflective walk sees no fields in it, so any two values
// would render alike.
type opaqueSizes struct{ size int64 }

func (o opaqueSizes) Sample(*rand.Rand) int64 { return o.size }

// A distribution type the renderer does not list is refused, never
// rendered from what it happens to export — directly in the mix, nested
// in a Mixture, or as a pointer variant of a listed type.
func TestUnlistedDistNotCacheable(t *testing.T) {
	withSizes := func(d workload.SizeDist) runner.FleetJob {
		j := baseFleetJob()
		j.Pop.Mix = []workload.ClassMix{{Class: workload.Web, Weight: 1, Sizes: d}}
		return j
	}
	nested := func(size int64) workload.SizeDist {
		return workload.NewMixture([]workload.SizeDist{workload.Lognormal{Mu: 9}, opaqueSizes{size}}, []float64{1, 1})
	}
	for _, c := range []struct {
		name string
		a, b runner.FleetJob
	}{
		{"in the mix", withSizes(opaqueSizes{1 << 10}), withSizes(opaqueSizes{1 << 20})},
		{"in a mixture", withSizes(nested(1 << 10)), withSizes(nested(1 << 20))},
	} {
		ka, errA := FleetKey(c.a)
		kb, errB := FleetKey(c.b)
		if errA == nil && errB == nil && ka == kb {
			t.Errorf("%s: two different opaque sizes share the key %s", c.name, ka)
		}
		for _, err := range []error{errA, errB} {
			if err == nil || !strings.Contains(err.Error(), "confhash.opaqueSizes is not cacheable") {
				t.Errorf("%s: got error %v, want one naming confhash.opaqueSizes as not cacheable", c.name, err)
			}
		}
	}

	j := baseFleetJob()
	for _, d := range []workload.SizeDist{&workload.Lognormal{Mu: 9}, &workload.BoundedPareto{Alpha: 1}, &workload.Mixture{}} {
		j.Pop.Mix = []workload.ClassMix{{Weight: 1, Sizes: d}}
		if _, err := FleetKey(j); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%T is not cacheable", d)) {
			t.Errorf("sizes %T: got error %v, want not cacheable", d, err)
		}
	}
	j = baseFleetJob()
	for _, a := range []workload.ArrivalDist{&workload.PoissonArrivals{Rate: 100}, &workload.LognormalArrivals{}} {
		j.Pop.Arrivals = a
		if _, err := FleetKey(j); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%T is not cacheable", a)) {
			t.Errorf("arrivals %T: got error %v, want not cacheable", a, err)
		}
	}
}

// The reference renderer must not depend on how a value was reached:
// pointer vs value, and map iteration order.
func TestCanonicalStability(t *testing.T) {
	type inner struct{ B, A int }
	v := inner{A: 1, B: 2}
	c1, err := canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := canonical(&v)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("pointer changed rendering: %q vs %q", c1, c2)
	}
	if c1 != "{A:1,B:2}" {
		t.Errorf("fields not sorted by name: %q", c1)
	}

	m := map[string]int{"z": 26, "a": 1, "m": 13}
	want := `{"a":1,"m":13,"z":26}`
	for i := 0; i < 20; i++ { // map order is randomized per iteration
		got, err := canonical(m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("map rendering unstable: %q", got)
		}
	}

	if _, err := canonical(struct{ F func() }{F: func() {}}); err == nil {
		t.Error("non-nil func rendered canonically")
	}
}

// canonical and render are the reflective renderer the keys were first
// defined by, kept as the reference the explicit append functions are
// held to: the same bytes for every config.
func canonical(v any) (string, error) {
	var b strings.Builder
	if err := render(&b, reflect.ValueOf(v)); err != nil {
		return "", err
	}
	return b.String(), nil
}

func render(b *strings.Builder, v reflect.Value) error {
	if !v.IsValid() {
		b.WriteString("null")
		return nil
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			b.WriteString("null")
			return nil
		}
		return render(b, v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("null")
			return nil
		}
		// The concrete type is part of the identity: two arrival
		// processes with coincidentally equal field renderings must not
		// collide.
		b.WriteByte('<')
		b.WriteString(v.Elem().Type().String())
		b.WriteByte('>')
		return render(b, v.Elem())
	case reflect.Struct:
		t := v.Type()
		names := make([]string, 0, t.NumField())
		byName := make(map[string]reflect.Value, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" { // unexported: not part of a config's identity
				continue
			}
			names = append(names, f.Name)
			byName[f.Name] = v.Field(i)
		}
		sort.Strings(names)
		b.WriteByte('{')
		for i, n := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(n)
			b.WriteByte(':')
			if err := render(b, byName[n]); err != nil {
				return fmt.Errorf("%s.%s: %w", t, n, err)
			}
		}
		b.WriteByte('}')
		return nil
	case reflect.Map:
		keys := v.MapKeys()
		type kv struct{ k, val string }
		ents := make([]kv, 0, len(keys))
		for _, k := range keys {
			var kb, vb strings.Builder
			if err := render(&kb, k); err != nil {
				return err
			}
			if err := render(&vb, v.MapIndex(k)); err != nil {
				return err
			}
			ents = append(ents, kv{kb.String(), vb.String()})
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].k < ents[j].k })
		b.WriteByte('{')
		for i, e := range ents {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(e.k)
			b.WriteByte(':')
			b.WriteString(e.val)
		}
		b.WriteByte('}')
		return nil
	case reflect.Slice, reflect.Array:
		// A nil slice and an empty one render identically: both mean
		// "nothing here", and normalization decides what that defaults to.
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			if err := render(b, v.Index(i)); err != nil {
				return err
			}
		}
		b.WriteByte(']')
		return nil
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
		return nil
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
		return nil
	case reflect.Float32, reflect.Float64:
		// Shortest round-trip form: exact, platform-independent.
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
		return nil
	case reflect.Func:
		if v.IsNil() {
			b.WriteString("null")
			return nil
		}
		return errors.New("func value has no canonical form")
	default:
		return fmt.Errorf("%s value has no canonical form", v.Kind())
	}
}

func mustCanonical(t *testing.T, v any) string {
	t.Helper()
	c, err := canonical(v)
	if err != nil {
		t.Fatalf("reference renderer: %v", err)
	}
	return c
}

// oracleKey is the key the reference renderer gives an already
// normalized job.
func oracleKey(t *testing.T, prefix string, normalized any) string {
	t.Helper()
	sum := sha256.Sum256([]byte(mustCanonical(t, normalized)))
	return prefix + hex.EncodeToString(sum[:])
}

// corpusJobs is the download-job half of the corpus the explicit
// renderer is held to: every server's fig11 matrix at seeds 1 and 7,
// then every algorithm under the ablation SUSS options, the chaos
// hardened transport and the Observe/WallLimit/Horizon knobs.
func corpusJobs() []runner.Job {
	var jobs []runner.Job
	for _, seed := range []int64{1, 7} {
		for _, srv := range scenarios.Servers {
			jobs = append(jobs, experiments.Fig11Jobs(srv, experiments.DefaultSizes, 3, seed)...)
		}
	}
	hardened := chaos.HardenedTransport()
	variants := []func(*runner.Job){
		func(j *runner.Job) {},
		func(j *runner.Job) { j.Observe = true },
		func(j *runner.Job) { j.WallLimit = 30 * time.Second },
		func(j *runner.Job) { j.Horizon = time.Minute },
		func(j *runner.Job) { j.Transport = &hardened },
		func(j *runner.Job) { j.Transport, j.Observe, j.WallLimit = &hardened, true, 30*time.Second },
		func(j *runner.Job) { j.Scenario = scenarios.New(scenarios.OracleLondon, netem.Wired, 3) },
		func(j *runner.Job) { j.Scenario.LastHop.BufferBDPs = 0.6 },
	}
	for _, mutate := range []func(*core.Options){
		func(o *core.Options) {},
		func(o *core.Options) { o.NoPacing = true },
		func(o *core.Options) { o.PaceEverything = true },
		func(o *core.Options) { o.NoGuard = true },
		func(o *core.Options) { o.Kmax = 2 },
		func(o *core.Options) { o.Kmax = 3 },
		func(o *core.Options) { o.Cubic.HyStartPP, o.Cubic.C = true, 0.3 },
	} {
		opt := core.DefaultOptions()
		mutate(&opt)
		variants = append(variants, func(j *runner.Job) { j.SussOpt = &opt })
	}
	for algo := runner.Cubic; algo <= runner.Reno; algo++ {
		for _, v := range variants {
			j := baseJob()
			j.Algo = algo
			v(&j)
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// corpusFleetJobs is the fleet half: every shard of both variants of
// DefaultFleetConfig at Shards 1–4, with SmokeMix, DefaultMix and the
// defaulted mix, Poisson and lognormal arrivals, with and without the
// daemon's watchdog.
func corpusFleetJobs() []runner.FleetJob {
	var jobs []runner.FleetJob
	for _, seed := range []int64{1, 7} {
		for _, mix := range [][]workload.ClassMix{experiments.SmokeMix(), workload.DefaultMix(), nil} {
			for shards := 1; shards <= 4; shards++ {
				fc := experiments.DefaultFleetConfig(seed)
				fc.Mix, fc.Shards = mix, shards
				for _, arrivals := range []workload.ArrivalDist{nil, workload.LognormalArrivals{Mu: -4.5, Sigma: 1.2}} {
					for _, wall := range []time.Duration{0, 30 * time.Second} {
						for _, tmpl := range experiments.FleetJobs(fc) {
							for shard := 0; shard < shards; shard++ {
								j := tmpl
								j.Shard, j.WallLimit = shard, wall
								if arrivals != nil {
									j.Pop.Arrivals = arrivals
								}
								jobs = append(jobs, j)
							}
						}
					}
				}
			}
		}
	}
	return jobs
}

// corpusKeysDigest is the SHA-256 of every corpus key, one per line,
// jobs then fleet jobs. It pins normalization as well as rendering:
// keys address every cache file on disk, so if this moves, every cached
// cell is orphaned.
const corpusKeysDigest = "5d1a8a0734456b2896360e220e147496f07ee4e42a2bfeb13052055d809aed7a"

// TestKeysMatchOracle holds the explicit renderer to the reflective
// reference over the corpus, byte for byte. Because the reference
// renders every exported field it finds, a field added to any type of
// the key graph fails this test until its append function writes it.
func TestKeysMatchOracle(t *testing.T) {
	all := sha256.New()
	jobs := corpusJobs()
	for _, j := range jobs {
		n := j
		if err := normalizeJob(&n); err != nil {
			t.Fatal(err)
		}
		want := mustCanonical(t, n)
		if got := string(appendJob(nil, &n)); got != want {
			t.Fatalf("canonical form differs from the reference renderer:\n got %s\nwant %s", got, want)
		}
		k := mustJobKey(t, j)
		if want := oracleKey(t, "job:", n); k != want {
			t.Fatalf("JobKey %s, reference %s", k, want)
		}
		fmt.Fprintln(all, k)
	}
	fleet := corpusFleetJobs()
	for _, j := range fleet {
		n, err := normalizeFleetJob(j)
		if err != nil {
			t.Fatal(err)
		}
		want := mustCanonical(t, n)
		got, err := appendFleetJob(nil, n)
		if err != nil || string(got) != want {
			t.Fatalf("canonical form differs from the reference renderer (err %v):\n got %s\nwant %s", err, got, want)
		}
		k := mustFleetKey(t, j)
		if want := oracleKey(t, "fleet:", n); k != want {
			t.Fatalf("FleetKey %s, reference %s", k, want)
		}
		fmt.Fprintln(all, k)
	}
	digest := hex.EncodeToString(all.Sum(nil))
	t.Logf("%d job and %d fleet keys match the reference renderer; digest %s", len(jobs), len(fleet), digest)
	if digest != corpusKeysDigest {
		t.Errorf("corpus keys digest %s, pinned %s: the keys moved, orphaning every cache file on disk", digest, corpusKeysDigest)
	}
}

// words feeds a fuzz input to fill as a cyclic stream of 64-bit words.
type words struct {
	raw []byte
	at  int
}

func (w *words) next() uint64 {
	if len(w.raw) == 0 {
		return 0
	}
	var b [8]byte
	for i := range b {
		b[i] = w.raw[w.at%len(w.raw)]
		w.at++
	}
	return binary.LittleEndian.Uint64(b[:])
}

// fill sets every scalar reachable from v, in declaration order: an
// integer takes a word, a float its bits, a bool its low bit, a string
// s; a pointer is allocated unless its word is zero. Funcs stay nil
// (normalizeJob refuses a hook).
func fill(t *testing.T, v reflect.Value, w *words, s string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), w, s)
			}
		}
	case reflect.Pointer:
		if w.next() != 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(t, v.Elem(), w, s)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(w.next()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(w.next())
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Float64frombits(w.next()))
	case reflect.Bool:
		v.SetBool(w.next()&1 != 0)
	case reflect.String:
		v.SetString(s)
	case reflect.Func:
	default:
		t.Fatalf("fill does not know how to fuzz a %s", v.Type())
	}
}

// FuzzJobKeyMatchesOracle fuzzes every scalar reachable from a Job: the
// explicit renderer must match the reference on the raw job, and JobKey
// must either refuse it exactly when normalization does or give the
// reference's key.
func FuzzJobKeyMatchesOracle(f *testing.F) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, 1e21, 0.1}
	var mixed []byte
	for _, x := range specials {
		mixed = binary.LittleEndian.AppendUint64(mixed, math.Float64bits(x))
	}
	for _, backend := range []string{"", "sim", `q"u\o'te`, "日本\x00\xff "} {
		f.Add(backend, mixed)
		for _, x := range specials {
			f.Add(backend, binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}
	f.Fuzz(func(t *testing.T, backend string, raw []byte) {
		var j runner.Job
		fill(t, reflect.ValueOf(&j).Elem(), &words{raw: raw}, backend)
		want := mustCanonical(t, j)
		if got := string(appendJob(nil, &j)); got != want {
			t.Fatalf("canonical form differs from the reference renderer:\n got %s\nwant %s", got, want)
		}
		n := j
		nerr := normalizeJob(&n)
		k, err := JobKey(j)
		switch {
		case (err == nil) != (nerr == nil):
			t.Fatalf("JobKey err %v, normalization err %v", err, nerr)
		case err == nil && k != oracleKey(t, "job:", n):
			t.Fatalf("JobKey %s, reference %s", k, oracleKey(t, "job:", n))
		}
	})
}

// Keying a cell is on the daemon's warm path (252 keys a fig11
// submission): the returned string is the one allocation it needs.
func TestJobKeyAllocs(t *testing.T) {
	j := baseJob()
	if n := testing.AllocsPerRun(100, func() { mustJobKey(t, j) }); n > 1 {
		t.Errorf("JobKey made %.0f allocations, budget 1", n)
	}
}

func BenchmarkJobKey(b *testing.B) {
	jobs := experiments.Fig11Jobs(scenarios.GoogleTokyo, experiments.DefaultSizes, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := JobKey(jobs[i%len(jobs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetKey(b *testing.B) {
	j := baseFleetJob()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FleetKey(j); err != nil {
			b.Fatal(err)
		}
	}
}

// scalarLeaves returns every settable int, float and bool reachable
// from v through exported fields and non-nil pointers.
func scalarLeaves(v reflect.Value) (out []reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				out = append(out, scalarLeaves(v.Field(i))...)
			}
		}
	case reflect.Pointer:
		if !v.IsNil() {
			out = scalarLeaves(v.Elem())
		}
	case reflect.Int, reflect.Int64, reflect.Float64, reflect.Bool:
		out = append(out, v)
	}
	return out
}

// floatEdgeJobs returns a SUSS job once per float reachable from its
// scenario, SUSS (and so CUBIC) options and transport, with that float
// set in turn to 0, -0 and two NaNs that differ in their bits: values
// that == takes for equal (±0) or never equal (NaN), where a memo of
// rendered text must still give each its own text.
func floatEdgeJobs() []runner.Job {
	var jobs []runner.Job
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001)}
	for k := 0; ; k++ {
		for _, x := range specials {
			j := baseJob()
			opt, cfg := core.DefaultOptions(), tcp.DefaultConfig()
			j.SussOpt, j.Transport = &opt, &cfg
			var floats []reflect.Value
			for _, v := range scalarLeaves(reflect.ValueOf(&j).Elem()) {
				if v.Kind() == reflect.Float64 {
					floats = append(floats, v)
				}
			}
			if k == len(floats) {
				return jobs
			}
			floats[k].SetFloat(x)
			jobs = append(jobs, j)
		}
	}
}

// TestJobKeysMatchJobKey holds the memoized matrix keying to JobKey and
// the reference renderer: over the corpus in order, and shuffled and
// repeated with the float edge variants mixed in, so the
// memos are hit, missed and overflowed.
func TestJobKeysMatchJobKey(t *testing.T) {
	corpus := corpusJobs()
	mixed := append(append(append([]runner.Job(nil), corpus...), corpus...), floatEdgeJobs()...)
	rand.New(rand.NewSource(1)).Shuffle(len(mixed), func(a, b int) { mixed[a], mixed[b] = mixed[b], mixed[a] })
	for _, jobs := range [][]runner.Job{corpus, mixed, floatEdgeJobs()} {
		keys, err := JobKeys(jobs)
		if err != nil || len(keys) != len(jobs) {
			t.Fatalf("JobKeys: %d keys for %d jobs, err %v", len(keys), len(jobs), err)
		}
		for i, j := range jobs {
			n := j
			normalizeJob(&n)
			if want := mustJobKey(t, j); keys[i] != want || keys[i] != oracleKey(t, "job:", n) {
				t.Fatalf("job %d: JobKeys %s, JobKey %s, reference %s", i, keys[i], want, oracleKey(t, "job:", n))
			}
		}
	}
	bad := baseJob()
	bad.Backend = "pipe"
	if keys, err := JobKeys([]runner.Job{baseJob(), bad}); err == nil {
		t.Errorf("JobKeys keyed a pipe-backend job: %v", keys)
	}
}

// FuzzJobKeysMatchOracle keys two jobs with JobKeys: one filled from
// the fuzzer's words, and a copy of it with one scalar changed, so a
// memo that conflates two values shows as a wrong second key.
func FuzzJobKeysMatchOracle(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), math.NaN(), 0.1} {
		f.Add(binary.LittleEndian.AppendUint64([]byte{1, 0, 0, 0, 0, 0, 0, 0}, math.Float64bits(x)))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var jobs [2]runner.Job
		for i := range jobs { // the same words: equal jobs, pointers apart
			fill(t, reflect.ValueOf(&jobs[i]).Elem(), &words{raw: raw}, "sim")
		}
		w := words{raw: raw, at: len(raw) / 2}
		leaves := scalarLeaves(reflect.ValueOf(&jobs[1]).Elem())
		switch v, x := leaves[w.next()%uint64(len(leaves))], w.next(); v.Kind() {
		case reflect.Float64:
			v.SetFloat(math.Float64frombits(x))
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			v.SetInt(int64(x))
		}
		keys, err := JobKeys(jobs[:])
		for i, j := range jobs {
			n := j
			nerr := normalizeJob(&n)
			switch {
			case nerr != nil:
				if err == nil {
					t.Fatalf("JobKeys keyed job %d, which normalization refuses: %v", i, nerr)
				}
			case err == nil && keys[i] != oracleKey(t, "job:", n):
				t.Fatalf("job %d: JobKeys %s, reference %s", i, keys[i], oracleKey(t, "job:", n))
			}
		}
	})
}

// Keying a matrix takes a fixed number of allocations however many
// cells it has: the keys' string and slice, and the memos' text.
func TestJobKeysAllocs(t *testing.T) {
	counts := map[int]float64{}
	for _, iters := range []int{1, 3, 9} {
		jobs := experiments.Fig11Jobs(scenarios.GoogleTokyo, experiments.DefaultSizes, iters, 1)
		for i := range jobs {
			jobs[i].WallLimit = time.Minute // as the daemon's are
		}
		counts[len(jobs)] = testing.AllocsPerRun(20, func() {
			if _, err := JobKeys(jobs); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("allocations keying a fig11 matrix, by cells: %v", counts)
	for cells, n := range counts {
		if n != jobKeysAllocs {
			t.Errorf("JobKeys made %.0f allocations keying %d cells, want %d at every length", n, cells, jobKeysAllocs)
		}
	}
}

// jobKeysAllocs is JobKeys' exact allocation count on a fig11 matrix.
const jobKeysAllocs = 8

func BenchmarkJobKeys(b *testing.B) {
	jobs := experiments.Fig11Jobs(scenarios.GoogleTokyo, experiments.DefaultSizes, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := JobKeys(jobs); err != nil {
			b.Fatal(err)
		}
	}
}
