package experiments

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// fixedCase draws one input for the appendFixed differential test:
// magnitudes across the helper's range and past both ends, values a
// few ulps either side of a last-digit rounding boundary, values just
// under a power of ten (whose rounding carries to one more integer
// digit), and dyadic values, which sit exactly on a tie at 4 or 6
// decimals often enough to check ties-to-even; and, one time in 17,
// any float64 at all.
func fixedCase(rng *rand.Rand, prec int) float64 {
	var x float64
	switch rng.Intn(17) / 4 {
	case 0:
		x = rng.Float64() * math.Pow(10, float64(rng.Intn(44)-22))
	case 1:
		unit := math.Pow(10, float64(-prec))
		x = (float64(rng.Int63n(1e7)) + 0.5) * unit / math.Pow(10, float64(rng.Intn(4)))
		steps := rng.Intn(5) - 2 // up to 2 ulps either way
		for k := 0; k < steps; k++ {
			x = math.Nextafter(x, math.Inf(1))
		}
		for k := 0; k > steps; k-- {
			x = math.Nextafter(x, math.Inf(-1))
		}
	case 2:
		x = math.Pow(10, float64(rng.Intn(20)-prec)) * (1 - rng.Float64()*math.Pow(10, float64(-prec-rng.Intn(12))))
	case 3:
		x = float64(rng.Int63n(1<<24)) / float64(int64(1)<<rng.Intn(30))
	default:
		x = math.Float64frombits(rng.Uint64())
	}
	if rng.Intn(2) == 0 {
		x = -x
	}
	return x
}

// TestAppendFixedMatchesStrconv holds appendFixed to strconv's 'f'
// form byte for byte on 2^20 inputs at each of the CSV's two
// precisions, and checks the draw reached what it is for: negatives
// and carries into a new leading digit.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	rng := rand.New(rand.NewSource(1))
	var neg, carries int
	for _, prec := range []int{4, 6} {
		for i := 0; i < n; i++ {
			x := fixedCase(rng, prec)
			want := strconv.AppendFloat(nil, x, 'f', prec, 64)
			if got := appendFixed([]byte("pre"), x, prec); string(got) != "pre"+string(want) {
				t.Fatalf("appendFixed(%v [%#x], %d) = %q, strconv %q", x, math.Float64bits(x), prec, got[3:], want)
			}
			if x < 0 {
				neg++
			}
			// A carry, 9.99999951 → "10.000000", gives x one more
			// digit before the point.
			point := strings.IndexByte(strings.TrimPrefix(string(want), "-"), '.')
			if ax := math.Abs(x); ax >= 1 && ax < 1e17 && point > len(strconv.FormatInt(int64(ax), 10)) {
				carries++
			}
		}
	}
	t.Logf("%d values, %d negative, %d carried into a new integer digit", 2*n, neg, carries)
	if neg < n/2 || carries < n/100 {
		t.Fatalf("the draw reached %d negatives and %d carries in %d values; want more of both", neg, carries, 2*n)
	}
}

// FuzzAppendFixed: appendFixed writes what strconv's 'f' form writes,
// at any precision, the fallback's included. The seeds include each
// power of ten's nearest float64 and its neighbours, which straddle the
// boundaries appendFixed's exponent table draws.
func FuzzAppendFixed(f *testing.F) {
	xs := []float64{0, math.Copysign(0, -1), 9.9999999, -0.00005, 0.03125, 1e17, 5e-7, math.NaN(), math.Inf(-1)}
	for k := -18; k <= 19; k++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		xs = append(xs, p, math.Nextafter(p, 0), math.Nextafter(p, 1e300))
	}
	for _, x := range xs {
		for _, prec := range []uint8{0, 4, 6, 17, 23} {
			f.Add(x, prec)
		}
	}
	f.Fuzz(func(t *testing.T, x float64, p uint8) {
		prec := int(p % 24)
		if got, want := appendFixed(nil, x, prec), strconv.AppendFloat(nil, x, 'f', prec, 64); string(got) != string(want) {
			t.Fatalf("appendFixed(%v [%#x], %d) = %q, strconv %q", x, math.Float64bits(x), prec, got, want)
		}
	})
}
