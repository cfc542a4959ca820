// Package confhash computes canonical, content-addressed keys for
// experiment job configurations. The experiment service caches results
// under these keys, so the contract is semantic identity: two configs
// that would produce byte-identical simulation results must hash
// identically, and any config difference that could change a result
// must change the hash.
//
// Two mechanisms deliver that:
//
//   - Canonicalization: a config is rendered into a deterministic
//     textual form by reflection — struct fields sorted by name, maps
//     sorted by key, pointers dereferenced (nil renders as null),
//     interface values tagged with their concrete type, floats in
//     shortest round-trip form. The rendering depends only on field
//     names and values, never on declaration order or on how the
//     caller spelled the literal.
//
//   - Normalization: before hashing, every defaulted field is replaced
//     by the value the runner would actually use (zero Horizon becomes
//     runner.DefaultHorizon, a nil Transport becomes tcp.DefaultConfig,
//     an empty population mix becomes workload.DefaultMix, …), so a
//     config relying on defaults and one spelling them out are the same
//     key.
//
// Configurations whose outcome is not a pure function of the config are
// rejected rather than mis-cached: a non-nil Impair hook (arbitrary
// code) and any Backend but the simulator are not hashable.
package confhash

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"suss/internal/core"
	"suss/internal/runner"
	"suss/internal/tcp"
	"suss/internal/workload"
)

// Canonical renders v into the deterministic textual form described in
// the package comment. It errors on values that cannot be canonically
// rendered: non-nil funcs, channels, unsafe pointers.
func Canonical(v any) (string, error) {
	var b strings.Builder
	if err := render(&b, reflect.ValueOf(v)); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Sum returns the hex SHA-256 of Canonical(v).
func Sum(v any) (string, error) {
	c, err := Canonical(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256([]byte(c))
	return hex.EncodeToString(h[:]), nil
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

// JobKey returns the cache key of a single-download job. The job is
// normalized first (see NormalizeJob); jobs whose outcome is not a pure
// function of the config error instead of producing a key.
func JobKey(j runner.Job) (string, error) {
	n, err := NormalizeJob(j)
	if err != nil {
		return "", err
	}
	s, err := Sum(n)
	if err != nil {
		return "", err
	}
	return "job:" + s, nil
}

// FleetKey returns the cache key of one fleet shard job.
func FleetKey(j runner.FleetJob) (string, error) {
	n, err := NormalizeFleetJob(j)
	if err != nil {
		return "", err
	}
	s, err := Sum(n)
	if err != nil {
		return "", err
	}
	return "fleet:" + s, nil
}

// NormalizeJob maps a download job onto its canonical representative:
// every field the runner would default is filled with that default, and
// execution knobs that provably cannot change the result are cleared.
//
//   - Backend "" becomes "sim"; any other value of the retired field
//     is one the runner refuses, and is rejected.
//   - Horizon 0 becomes runner.DefaultHorizon.
//   - A nil Transport becomes tcp.DefaultConfig.
//   - SussOpt: nil becomes core.DefaultOptions when Algo is Suss (the
//     runner's controller default), and is cleared entirely for every
//     other algorithm, which ignores it.
//   - A positive WallLimit is folded into Observe (a wall-limited job
//     runs with the flight recorder attached) and then cleared: the
//     watchdog only matters on stalled runs, which are never cached.
//   - A non-nil Impair hook is arbitrary code and rejects the job.
func NormalizeJob(j runner.Job) (runner.Job, error) {
	if j.Impair != nil {
		return j, errors.New("confhash: job with an Impair hook is not cacheable")
	}
	switch j.Backend {
	case "":
		j.Backend = "sim"
	case "sim":
	default:
		return j, fmt.Errorf("confhash: backend %q is not the simulator and is not cacheable", j.Backend)
	}
	if j.Horizon <= 0 {
		j.Horizon = runner.DefaultHorizon
	}
	if j.Transport == nil {
		cfg := tcp.DefaultConfig()
		j.Transport = &cfg
	}
	if j.Algo == runner.Suss {
		if j.SussOpt == nil {
			opt := core.DefaultOptions()
			j.SussOpt = &opt
		}
	} else {
		j.SussOpt = nil
	}
	j.Observe = j.Observe || j.WallLimit > 0
	j.WallLimit = 0
	return j, nil
}

// NormalizeFleetJob is NormalizeJob's fleet-shard counterpart; it
// additionally fills the population defaults workload.Shard applies
// (DefaultMix, Poisson arrivals at 100 flows/s) and clamps Shards to 1.
func NormalizeFleetJob(j runner.FleetJob) (runner.FleetJob, error) {
	if j.Impair != nil {
		return j, errors.New("confhash: fleet job with an Impair hook is not cacheable")
	}
	if j.Shards <= 0 {
		j.Shards = 1
	}
	if j.Shard < 0 || j.Shard >= j.Shards {
		return j, fmt.Errorf("confhash: shard %d out of range [0,%d)", j.Shard, j.Shards)
	}
	if j.Horizon <= 0 {
		j.Horizon = runner.DefaultHorizon
	}
	if j.Transport == nil {
		cfg := tcp.DefaultConfig()
		j.Transport = &cfg
	}
	if j.Algo == runner.Suss {
		if j.SussOpt == nil {
			opt := core.DefaultOptions()
			j.SussOpt = &opt
		}
	} else {
		j.SussOpt = nil
	}
	j.Observe = j.Observe || j.WallLimit > 0
	j.WallLimit = 0
	if len(j.Pop.Mix) == 0 {
		j.Pop.Mix = workload.DefaultMix()
	}
	if j.Pop.Arrivals == nil {
		j.Pop.Arrivals = workload.PoissonArrivals{Rate: 100}
	}
	return j, nil
}
