package field

import (
	"math"
	"math/rand/v2"
	"strconv"
)

// DefaultRealTolerance is the absolute comparison tolerance used by the zero
// value of Real. Matrix dimensions in this repository stay below ~10^5, and
// coded entries are O(1), so 1e-9 comfortably separates true zeros from
// float64 rounding noise without masking genuine disagreement.
const DefaultRealTolerance = 1e-9

// Real is float64 arithmetic presented as a Field. It satisfies the field
// axioms only up to rounding, and Equal/IsZero compare with an absolute
// tolerance. The zero value uses DefaultRealTolerance.
//
// Real is the plaintext reference for float workloads (A holds model
// weights). float64 has no uniform distribution, so Definition 2's masks
// cannot be drawn over it: Real deployments stay on the host, and served
// float workloads are quantized into Prime.
type Real struct {
	// Tol is the absolute tolerance for Equal and IsZero. Zero means
	// DefaultRealTolerance.
	Tol float64
}

func (f Real) tol() float64 {
	if f.Tol > 0 {
		return f.Tol
	}
	return DefaultRealTolerance
}

// Zero returns 0.
func (Real) Zero() float64 { return 0 }

// One returns 1.
func (Real) One() float64 { return 1 }

// Name implements Field.
func (Real) Name() string { return "R(float64)" }

// FromInt64 converts v to float64.
func (Real) FromInt64(v int64) float64 { return float64(v) }

// Add returns a + b.
func (Real) Add(a, b float64) float64 { return a + b }

// Sub returns a - b.
func (Real) Sub(a, b float64) float64 { return a - b }

// Neg returns -a.
func (Real) Neg(a float64) float64 { return -a }

// Mul returns a * b.
func (Real) Mul(a, b float64) float64 { return a * b }

// Inv returns 1/a, or ErrDivisionByZero when a is within tolerance of zero.
func (f Real) Inv(a float64) (float64, error) {
	if f.IsZero(a) {
		return 0, ErrDivisionByZero
	}
	return 1 / a, nil
}

// Div returns a / b, or ErrDivisionByZero when b is within tolerance of zero.
func (f Real) Div(a, b float64) (float64, error) {
	if f.IsZero(b) {
		return 0, ErrDivisionByZero
	}
	return a / b, nil
}

// Equal reports |a-b| <= Tol.
func (f Real) Equal(a, b float64) bool { return math.Abs(a-b) <= f.tol() }

// IsZero reports |a| <= Tol.
func (f Real) IsZero(a float64) bool { return math.Abs(a) <= f.tol() }

// Rand returns a standard normal sample. A continuous distribution is the
// closest float64 analogue of "uniformly random field element": any finite
// set of samples is almost surely in general position, which is what the
// coding-theoretic constructions rely on.
func (Real) Rand(rng *rand.Rand) float64 { return rng.NormFloat64() }

// String renders the value with full float64 precision.
func (Real) String(a float64) string { return strconv.FormatFloat(a, 'g', -1, 64) }

// PivotScore ranks Gaussian-elimination pivot candidates by magnitude, which
// makes package matrix use partial pivoting over the reals. Exact fields do
// not implement this; any non-zero pivot works for them.
func (Real) PivotScore(a float64) float64 { return math.Abs(a) }
