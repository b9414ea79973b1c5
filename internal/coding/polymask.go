package coding

import (
	"fmt"
	"math/rand/v2"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// PolyMaskScheme is the polynomial-masking (Shamir-style) secure computation
// design of the paper's related work ([8], [9] staircase codes, [10]
// polynomial codes): the cloud forms the matrix polynomial
//
//	F(z) = A + z·R_1 + z²·R_2 + … + z^t·R_t
//
// with uniform random m×l masks R_i, and device j stores the full evaluation
// F(α_j). Any coalition of ≤ t devices sees Shamir shares and learns nothing
// about A; the user recovers A·x = F(0)·x by Lagrange interpolation from any
// t+1 device responses, so up to n−t−1 stragglers can be ignored.
//
// The repository implements it as the comparison point for the MCSCEC cost
// argument (§I: prior secure schemes "utilized the random information and
// the redundant computation resource … without considering the
// communication, computation, and storage cost"): every participating device
// stores and multiplies a full m×l share, so the total resource usage is
// n·m rows against MCSCEC's m+r — the gap the paper's optimization closes.
// In exchange, polynomial masking natively tolerates stragglers and
// t-collusion.
type PolyMaskScheme[E comparable] struct {
	f       field.Field[E]
	m, t, n int
	alphas  []E
}

// NewPolyMask builds a polynomial-masking scheme for m data rows over n
// devices with security threshold t (any t devices may collude; any t+1
// responses decode). It needs n ≥ t+1 and n distinct non-zero evaluation
// points, which bounds n by the field size for GF(256).
func NewPolyMask[E comparable](f field.Field[E], m, t, n int) (*PolyMaskScheme[E], error) {
	if m < 1 {
		return nil, fmt.Errorf("coding: m = %d, need m >= 1", m)
	}
	if t < 1 {
		return nil, fmt.Errorf("coding: t = %d, need t >= 1", t)
	}
	if n < t+1 {
		return nil, fmt.Errorf("coding: n = %d devices cannot decode a degree-%d masking (need n >= t+1)", n, t)
	}
	alphas := make([]E, n)
	seen := make(map[E]bool, n+1)
	seen[f.Zero()] = true // α = 0 would hand a device A itself
	for j := range alphas {
		alphas[j] = f.FromInt64(int64(j + 1))
		if seen[alphas[j]] {
			return nil, fmt.Errorf("coding: field %s cannot supply %d distinct non-zero evaluation points", f.Name(), n)
		}
		seen[alphas[j]] = true
	}
	return &PolyMaskScheme[E]{f: f, m: m, t: t, n: n, alphas: alphas}, nil
}

// M returns the number of data rows.
func (s *PolyMaskScheme[E]) M() int { return s.m }

// T returns the collusion/straggler threshold.
func (s *PolyMaskScheme[E]) T() int { return s.t }

// Devices returns n, the number of provisioned devices.
func (s *PolyMaskScheme[E]) Devices() int { return s.n }

// TotalRows returns the fleet-wide row count n·m (vs MCSCEC's m+r): every
// device stores the whole (masked) matrix, m rows, where an MCSCEC device
// holds at most r.
func (s *PolyMaskScheme[E]) TotalRows() int { return s.n * s.m }

// PolyMaskEncoding holds every device's share F(α_j).
type PolyMaskEncoding[E comparable] struct {
	f field.Field[E]
	// Shares[j] is device j's m×l evaluation F(α_j).
	Shares []*matrix.Dense[E]
}

// Encode draws the t random masks and evaluates F at every device's point.
func (s *PolyMaskScheme[E]) Encode(a *matrix.Dense[E], rng *rand.Rand) (*PolyMaskEncoding[E], error) {
	if a.Rows() != s.m {
		return nil, fmt.Errorf("coding: data matrix has %d rows, scheme expects m = %d", a.Rows(), s.m)
	}
	if a.Cols() < 1 {
		return nil, fmt.Errorf("coding: data matrix has no columns")
	}
	f := s.f
	masks := make([]*matrix.Dense[E], s.t)
	for i := range masks {
		masks[i] = matrix.Random(f, rng, s.m, a.Cols())
	}
	shares := make([]*matrix.Dense[E], s.n)
	for j := 0; j < s.n; j++ {
		// Horner evaluation: F(α) = A + α(R_1 + α(R_2 + …)).
		share := masks[s.t-1].Clone()
		for i := s.t - 2; i >= 0; i-- {
			share = matrix.Add(f, matrix.Scale(f, s.alphas[j], share), masks[i])
		}
		share = matrix.Add(f, matrix.Scale(f, s.alphas[j], share), a)
		shares[j] = share
	}
	return &PolyMaskEncoding[E]{f: f, Shares: shares}, nil
}

// ComputeDevice performs device j's work: F(α_j)·x, m values.
func (e *PolyMaskEncoding[E]) ComputeDevice(j int, x []E) []E {
	return matrix.MulVec(e.f, e.Shares[j], x)
}

// Decode recovers A·x from the responses of the device subset devices
// (indexes into the fleet) by Lagrange interpolation at z = 0. At least t+1
// distinct devices are required; extras are ignored beyond the first t+1.
func (s *PolyMaskScheme[E]) Decode(devices []int, results [][]E) ([]E, error) {
	if len(devices) != len(results) {
		return nil, fmt.Errorf("coding: %d device indexes for %d result vectors", len(devices), len(results))
	}
	if len(devices) < s.t+1 {
		return nil, fmt.Errorf("coding: %d responses cannot decode a degree-%d masking (need %d)", len(devices), s.t, s.t+1)
	}
	devices = devices[:s.t+1]
	results = results[:s.t+1]
	seen := make(map[int]bool, len(devices))
	for i, j := range devices {
		if j < 0 || j >= s.n {
			return nil, fmt.Errorf("coding: device index %d out of range [0, %d)", j, s.n)
		}
		if seen[j] {
			return nil, fmt.Errorf("coding: duplicate device index %d", j)
		}
		seen[j] = true
		if len(results[i]) != s.m {
			return nil, fmt.Errorf("coding: device %d returned %d values, want m = %d", j, len(results[i]), s.m)
		}
	}

	f := s.f
	// Lagrange coefficients at zero: λ_i = Π_{q≠i} α_q / (α_q − α_i).
	lambda := make([]E, len(devices))
	for i, ji := range devices {
		num, den := f.One(), f.One()
		for q, jq := range devices {
			if q == i {
				continue
			}
			num = f.Mul(num, s.alphas[jq])
			den = f.Mul(den, f.Sub(s.alphas[jq], s.alphas[ji]))
		}
		coeff, err := f.Div(num, den)
		if err != nil {
			return nil, fmt.Errorf("coding: degenerate evaluation points: %w", err)
		}
		lambda[i] = coeff
	}

	ax := make([]E, s.m)
	for p := 0; p < s.m; p++ {
		acc := f.Zero()
		for i := range devices {
			acc = f.Add(acc, f.Mul(lambda[i], results[i][p]))
		}
		ax[p] = acc
	}
	return ax, nil
}

// Verify checks t-collusion security in the coefficient-space formulation:
// each device's rows live in the (t+1)·m-dimensional space spanned by the
// rows of A, R_1, …, R_t, with device j's row p being
// [e_p | α_j·e_p | … | α_j^t·e_p]. Every coalition of up to t devices must
// intersect the data subspace [E_m | 0 … 0] trivially. The check enumerates
// coalitions and is meant for small fleets; the Vandermonde structure is the
// general argument.
func (s *PolyMaskScheme[E]) Verify() error {
	f := s.f
	dim := (s.t + 1) * s.m
	lambda := matrix.New[E](s.m, dim)
	one := f.One()
	for p := 0; p < s.m; p++ {
		lambda.Set(p, p, one)
	}
	// The shared coalition walk (also behind Systematic.Verify and
	// CheckSecurityT) does the enumeration; this scheme only supplies its
	// per-device coefficient representation.
	return checkCoalitions(f, s.n, s.t, lambda, func(j int) *matrix.Dense[E] {
		b := matrix.New[E](s.m, dim)
		power := one
		for i := 0; i <= s.t; i++ {
			for p := 0; p < s.m; p++ {
				b.Set(p, i*s.m+p, power)
			}
			power = f.Mul(power, s.alphas[j])
		}
		return b
	})
}
