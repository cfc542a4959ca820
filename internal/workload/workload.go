// Package workload generates realistic traffic mixes. The paper
// motivates SUSS with the prevalence of small flows in Internet
// traffic (citing campus-traffic measurements: most flows are mice,
// most bytes live in elephants); this package provides the flow-size
// distributions and arrival processes to reproduce that regime.
package workload

import (
	"math"
	"math/rand"
)

// SizeDist samples flow sizes in bytes.
type SizeDist interface {
	Sample(rng *rand.Rand) int64
}

// Lognormal is the classic heavy-tailed web-object size model.
type Lognormal struct {
	// Mu and Sigma parameterize ln(size).
	Mu, Sigma float64
	// Min and Max clamp the samples (bytes).
	Min, Max int64
}

// Sample implements SizeDist.
func (l Lognormal) Sample(rng *rand.Rand) int64 {
	v := int64(math.Exp(l.Mu + float64(l.Sigma*rng.NormFloat64())))
	if l.Min > 0 && v < l.Min {
		v = l.Min
	}
	if l.Max > 0 && v > l.Max {
		v = l.Max
	}
	return v
}

// BoundedPareto models elephant tails: P(X > x) ∝ x^-Alpha on
// [Min, Max].
type BoundedPareto struct {
	Alpha    float64
	Min, Max int64
}

// Sample implements SizeDist (inverse-CDF of the bounded Pareto).
func (p BoundedPareto) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	lo := float64(p.Min)
	hi := float64(p.Max)
	la := math.Pow(lo, p.Alpha)
	ha := math.Pow(hi, p.Alpha)
	x := math.Pow(-(float64(u*ha)-float64(u*la)-ha)/(ha*la), -1/p.Alpha)
	v := int64(x)
	if v < p.Min {
		v = p.Min
	}
	if v > p.Max {
		v = p.Max
	}
	return v
}

// Mixture combines distributions with weights.
type Mixture struct {
	Dists   []SizeDist
	Weights []float64
}

// NewMixture builds a weighted mixture (weights need not sum to 1).
func NewMixture(dists []SizeDist, weights []float64) Mixture {
	if len(dists) != len(weights) || len(dists) == 0 {
		panic("workload: mixture needs matching non-empty dists and weights")
	}
	return Mixture{Dists: dists, Weights: weights}
}

// Sample implements SizeDist.
func (m Mixture) Sample(rng *rand.Rand) int64 {
	var total float64
	for _, w := range m.Weights {
		total += w
	}
	u := rng.Float64() * total
	for i, w := range m.Weights {
		if u < w {
			return m.Dists[i].Sample(rng)
		}
		u -= w
	}
	return m.Dists[len(m.Dists)-1].Sample(rng)
}

// WebMix returns the mice-and-elephants mixture the paper's motivation
// describes: ~85 % small web objects (pages, images, API responses,
// median ≈ 30 KB) and ~15 % larger transfers (photos, short videos)
// with a Pareto tail to 50 MB. Most flows finish inside slow start.
func WebMix() SizeDist {
	return NewMixture(
		[]SizeDist{
			Lognormal{Mu: math.Log(30 << 10), Sigma: 1.3, Min: 2 << 10, Max: 2 << 20},
			BoundedPareto{Alpha: 1.2, Min: 1 << 20, Max: 50 << 20},
		},
		[]float64{0.85, 0.15},
	)
}
