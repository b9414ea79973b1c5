package coding

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// Code is the scheme-agnostic contract every engine-selectable coding design
// satisfies. The execution layers (engine, fleet, sim, transport, the scec
// facades) traffic only in this interface, so the structured Eq. (8) design
// and the t-collusion Cauchy design — and any future scheme — plug into the
// same query, provisioning, repair, and reshape paths.
//
// A Code fixes the shape of one deployment: m confidential rows are encoded
// into m+r coded rows laid out across Devices() devices (device j holds the
// global row range RowRange(j)), every device multiplies its block by the
// input, and DecodeInto recovers the exact product from the concatenated
// intermediate results. T() is the security level: any coalition of up to
// T() honest-but-curious devices learns nothing about A (Definition 2
// generalized to coalitions). K() is the recoverability threshold: the
// minimum number of devices whose responses suffice to decode. Both designs
// here use a square coefficient matrix, so every device is needed
// (K() == Devices()); a future rateless/staircase design would return less.
type Code[E comparable] interface {
	// Name identifies the design ("eq8", "collusion") for metrics and logs.
	Name() string
	// M is the number of confidential data rows.
	M() int
	// R is the number of uniformly random rows encoded alongside them.
	R() int
	// T is the collusion threshold: coalitions of up to T devices learn
	// nothing about A.
	T() int
	// K is the recoverability threshold: how many device responses suffice
	// to decode. Equal to Devices() for square-coefficient designs.
	K() int
	// Devices is the number of participating devices (coded blocks).
	Devices() int
	// RowRange returns the half-open global row range [from, to) of B held
	// by 0-based device j.
	RowRange(j int) (from, to int)
	// RowsOn returns V(B_j), the number of coded rows device j holds.
	RowsOn(j int) int
	// DeviceCoefficients materializes device j's coefficient block B_j
	// (RowsOn(j) × (M+R)), for the attack harness and the verifiers.
	DeviceCoefficients(j int) *matrix.Dense[E]
	// Encode produces every device's coded block with fresh randomness from
	// rng. The returned Encoding carries this Code in its Code field.
	Encode(a *matrix.Dense[E], rng *rand.Rand) (*Encoding[E], error)
	// DecodeInto recovers A·x from the concatenated intermediate results
	// y = B·T·x (device order, m+r values) into dst (m values).
	DecodeInto(dst, y []E) error
	// Decode is DecodeInto on a fresh m-element output.
	Decode(y []E) ([]E, error)
	// DecodeBatchInto recovers A·X from the stacked intermediate block
	// Y = B·T·X ((m+r)×n) into dst (m×n), the batch generalization of
	// DecodeInto.
	DecodeBatchInto(dst, y *matrix.Dense[E]) error
	// Verify re-establishes the availability (Definition 1) and security
	// (Definition 2, generalized to T-coalitions) conditions for this
	// concrete code.
	Verify() error
}

// StructuredCode binds the field-independent Eq. (8) Scheme to a concrete
// field, satisfying Code. It delegates every operation to the structured
// package functions, so its numerics are bit-identical to the pre-interface
// paths: encode is O((m+r)·l) additions, decode is m subtractions.
type StructuredCode[E comparable] struct {
	f field.Field[E]
	s *Scheme
}

// NewStructured builds the Eq. (8) code over f for m data rows and r random
// rows; see New for the admissible range.
func NewStructured[E comparable](f field.Field[E], m, r int) (*StructuredCode[E], error) {
	s, err := New(m, r)
	if err != nil {
		return nil, err
	}
	return &StructuredCode[E]{f: f, s: s}, nil
}

// BindScheme wraps an existing structured Scheme as a Code over f.
func BindScheme[E comparable](f field.Field[E], s *Scheme) *StructuredCode[E] {
	return &StructuredCode[E]{f: f, s: s}
}

// Name implements Code.
func (c *StructuredCode[E]) Name() string { return "eq8" }

// M implements Code.
func (c *StructuredCode[E]) M() int { return c.s.M() }

// R implements Code.
func (c *StructuredCode[E]) R() int { return c.s.R() }

// T implements Code: the Eq. (8) structure defends against single devices.
func (c *StructuredCode[E]) T() int { return 1 }

// K implements Code: B is square, every device's rows are needed.
func (c *StructuredCode[E]) K() int { return c.s.Devices() }

// Devices implements Code.
func (c *StructuredCode[E]) Devices() int { return c.s.Devices() }

// RowRange implements Code.
func (c *StructuredCode[E]) RowRange(j int) (from, to int) { return c.s.RowRange(j) }

// RowsOn implements Code.
func (c *StructuredCode[E]) RowsOn(j int) int { return c.s.RowsOn(j) }

// Scheme exposes the underlying structured scheme for callers that need the
// Eq. (8)-specific fast paths (Reconstruct's subtraction shortcut, the CLI
// reports).
func (c *StructuredCode[E]) Scheme() *Scheme { return c.s }

// DeviceCoefficients implements Code.
func (c *StructuredCode[E]) DeviceCoefficients(j int) *matrix.Dense[E] {
	return DeviceMatrix(c.f, c.s, j)
}

// Encode implements Code via the structured encoder.
func (c *StructuredCode[E]) Encode(a *matrix.Dense[E], rng *rand.Rand) (*Encoding[E], error) {
	return Encode(c.f, c.s, a, rng)
}

// DecodeInto implements Code via the m-subtraction decoder.
func (c *StructuredCode[E]) DecodeInto(dst, y []E) error {
	return DecodeInto(c.f, c.s, dst, y)
}

// Decode implements Code via the m-subtraction decoder.
func (c *StructuredCode[E]) Decode(y []E) ([]E, error) {
	return Decode(c.f, c.s, y)
}

// DecodeBatchInto implements Code via the column-wise m-subtraction
// decoder.
func (c *StructuredCode[E]) DecodeBatchInto(dst, y *matrix.Dense[E]) error {
	return DecodeBatchInto(c.f, c.s, dst, y)
}

// Verify implements Code via the Theorem 3 checks.
func (c *StructuredCode[E]) Verify() error { return Verify(c.f, c.s) }

// BalancedCollusionRows spreads m+r coded rows over n devices as evenly as
// possible and checks the t-collusion capacity condition (the t largest
// per-device counts must sum to at most r). It is the row layout a reshape
// uses when the adaptive control plane re-deploys a collusion code at a new
// r over a fixed device count.
func BalancedCollusionRows(m, r, t, n int) ([]int, error) {
	if m < 1 || r < 1 || t < 1 || n < 1 {
		return nil, fmt.Errorf("coding: invalid collusion layout m=%d r=%d t=%d n=%d", m, r, t, n)
	}
	total := m + r
	if n > total {
		return nil, fmt.Errorf("coding: %d devices for %d coded rows (every device needs a row)", n, total)
	}
	rows := make([]int, n)
	base, extra := total/n, total%n
	for j := range rows {
		rows[j] = base
		if j < extra {
			rows[j]++
		}
	}
	if cap := sumOfLargest(rows, t); cap > r {
		return nil, fmt.Errorf("coding: balanced layout infeasible: %d colluding devices hold %d rows > r = %d", t, cap, r)
	}
	return rows, nil
}

// Reshaped builds a code of the same kind as proto for a new (m, r, device
// count) — the adaptive control plane's reshape primitive. The structured
// code's device count is implied by (m, r) and must match devices; the
// collusion code keeps proto's threshold t and re-balances the row layout,
// failing (so the swap degrades to a pause) when no t-secure layout exists
// at the requested shape.
func Reshaped[E comparable](f field.Field[E], proto Code[E], m, r, devices int) (Code[E], error) {
	switch c := proto.(type) {
	case *StructuredCode[E]:
		code, err := NewStructured[E](f, m, r)
		if err != nil {
			return nil, err
		}
		if code.Devices() != devices {
			return nil, fmt.Errorf("coding: structured reshape at r=%d needs %d devices, have %d", r, code.Devices(), devices)
		}
		return code, nil
	case *CollusionScheme[E]:
		rows, err := BalancedCollusionRows(m, r, c.T(), devices)
		if err != nil {
			return nil, err
		}
		return NewCollusion(f, m, r, c.T(), rows)
	default:
		return nil, errors.New("coding: cannot reshape an unknown code kind")
	}
}
