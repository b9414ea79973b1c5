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
// and the t-collusion Cauchy design — both a Systematic code — and any
// future scheme plug into the same query, provisioning, repair, and reshape
// paths.
//
// A Code fixes the shape of one deployment: m confidential rows are encoded
// into m+r coded rows laid out across Devices() devices (device j holds the
// global row range RowRange(j)), every device multiplies its block by the
// input, and DecodeInto recovers the exact product from the concatenated
// intermediate results. T() is the security level: any coalition of up to
// T() honest-but-curious devices learns nothing about A (Definition 2
// generalized to coalitions). K() is the recoverability threshold: the
// minimum number of devices whose responses suffice to decode. Systematic
// codes use a square coefficient matrix, so every device is needed
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
	// DecodeInto recovers A·X from the stacked intermediate results
	// Y = B·T·X (device order, (m+r)×n; n = 1 for a vector query) into dst
	// (m×n).
	DecodeInto(dst, y *matrix.Dense[E]) error
	// Decode is DecodeInto for one intermediate vector y (m+r values), on a
	// fresh m-element output.
	Decode(y []E) ([]E, error)
	// Verify re-establishes the availability (Definition 1) and security
	// (Definition 2, generalized to T-coalitions) conditions for this
	// concrete code.
	Verify() error
}

// Systematic is the one coding design of this package: m data rows and r
// uniformly random rows R, coded by
//
//	B = ⎡ O_{r,m}  E_r ⎤   ← rows below r: the random rows themselves
//	    ⎣ E_m      C   ⎦   ← row r+p: A_p + C_p·R
//
// so the random part of B, G = [E_r; C], is systematic. C is the only thing
// that differs between the two designs, and only the constructor picks it:
//
//   - NewStructured: C = E_{m,r}, the stack of copies of E_r (row p of C is
//     the unit vector e_{p mod r}). This is the paper's Eq. (8), secure
//     against single devices (t = 1), encoded with one addition per coded
//     element and decoded with m subtractions.
//   - NewCollusion: C is an m×r Cauchy matrix, secure against coalitions of
//     up to t devices (§VI). Every square submatrix of a Cauchy matrix is
//     non-singular, so any s ≤ r rows of G are independent — the systematic
//     MDS criterion — and a coalition holding at most r rows sees its data
//     rows masked by a full-rank mix of R.
//
// B is block-triangular with identity diagonal blocks, so it is invertible
// whatever C is (Definition 1 holds by construction), and A·x is recovered
// from y = B·T·x as y[r:] − C·y[:r] with no elimination. The code never
// stores B; CoefficientMatrix and DeviceCoefficients build its rows on
// demand.
type Systematic[E comparable] struct {
	f       field.Field[E]
	m, r, t int
	// offs[j] is device j's first global row of B; the last entry is m+r.
	offs []int
	// c is the dense m×r Cauchy block, or nil for the Eq. (8) identity
	// stack, whose product with R is a copy of R's rows and is never formed.
	c *matrix.Dense[E]
}

// NewStructured builds the Eq. (8) code over f for m data rows and r random
// rows. It requires m ≥ 1 and 1 ≤ r ≤ m (Theorem 2's admissible range at k
// unlimited; callers that already ran task allocation pass the plan's r).
// The number of participating devices is i = ⌈(m+r)/r⌉, and device j
// (0-based) holds the global rows [j·r, min((j+1)·r, m+r)) of
//
//	B = ⎡ O_{r,m}  E_r     ⎤   ← device 1: pure random combinations
//	    ⎣ E_m      E_{m,r} ⎦   ← devices 2…i: one data row + one random row each
//
// which reproduces the Lemma 2 shape: the first i−1 devices hold r rows, the
// last holds m−(i−2)·r.
func NewStructured[E comparable](f field.Field[E], m, r int) (*Systematic[E], error) {
	if m < 1 {
		return nil, fmt.Errorf("coding: m = %d, need m >= 1", m)
	}
	if r < 1 || r > m {
		return nil, fmt.Errorf("coding: r = %d outside [1, m] = [1, %d]", r, m)
	}
	offs := make([]int, (m+2*r-1)/r+1)
	for j := 1; j < len(offs); j++ {
		offs[j] = min(j*r, m+r)
	}
	return &Systematic[E]{f: f, m: m, r: r, t: 1, offs: offs}, nil
}

// Name implements Code: "eq8" for the identity stack, "collusion" for a
// Cauchy C.
func (c *Systematic[E]) Name() string {
	if c.c == nil {
		return "eq8"
	}
	return "collusion"
}

// M implements Code.
func (c *Systematic[E]) M() int { return c.m }

// R implements Code.
func (c *Systematic[E]) R() int { return c.r }

// T implements Code: 1 for Eq. (8), the constructor's t for a Cauchy C.
func (c *Systematic[E]) T() int { return c.t }

// K implements Code: B is square, every device's rows are needed.
func (c *Systematic[E]) K() int { return c.Devices() }

// Devices implements Code.
func (c *Systematic[E]) Devices() int { return len(c.offs) - 1 }

// RowRange implements Code.
func (c *Systematic[E]) RowRange(j int) (from, to int) {
	if j < 0 || j >= c.Devices() {
		panic(fmt.Sprintf("coding: device %d out of range [0, %d)", j, c.Devices()))
	}
	return c.offs[j], c.offs[j+1]
}

// RowsOn implements Code.
func (c *Systematic[E]) RowsOn(j int) int {
	from, to := c.RowRange(j)
	return to - from
}

// DeviceCoefficients implements Code: device j's rows of B.
func (c *Systematic[E]) DeviceCoefficients(j int) *matrix.Dense[E] {
	return c.coefficients(c.RowRange(j))
}

// CoefficientMatrix materializes the full (m+r)×(m+r) matrix B. The
// computing path never needs it; it exists for the verifiers, the attack
// harness, and tests.
func (c *Systematic[E]) CoefficientMatrix() *matrix.Dense[E] { return c.coefficients(0, c.m+c.r) }

// coefficients builds rows [from, to) of B.
func (c *Systematic[E]) coefficients(from, to int) *matrix.Dense[E] {
	b := matrix.New[E](to-from, c.m+c.r)
	one := c.f.One()
	for g := from; g < to; g++ {
		row := b.RowView(g - from)
		if g < c.r {
			row[c.m+g] = one
			continue
		}
		p := g - c.r
		row[p] = one
		if c.c == nil {
			row[c.m+p%c.r] = one
		} else {
			copy(row[c.m:], c.c.RowView(p))
		}
	}
	return b
}

// Reshaped builds a code with proto's field, C kind and threshold for a new
// (m, r, device count) — the adaptive control plane's reshape primitive.
// Eq. (8)'s device count is implied by (m, r) and must match devices; a
// Cauchy code re-balances its rows over the devices, failing (so the swap
// degrades to a pause) when no t-secure layout exists at the requested
// shape.
func Reshaped[E comparable](proto Code[E], m, r, devices int) (Code[E], error) {
	p, ok := proto.(*Systematic[E])
	if !ok {
		return nil, errors.New("coding: cannot reshape an unknown code kind")
	}
	var code *Systematic[E]
	var err error
	if p.c != nil {
		var rows []int
		if rows, err = BalancedCollusionRows(m, r, p.t, devices); err == nil {
			code, err = NewCollusion(p.f, m, r, p.t, rows)
		}
	} else {
		code, err = NewStructured(p.f, m, r)
	}
	if err != nil {
		return nil, err
	}
	if code.Devices() != devices {
		return nil, fmt.Errorf("coding: structured reshape at r=%d needs %d devices, have %d", r, code.Devices(), devices)
	}
	return code, nil
}
