// Package coding implements the secure linear coding design of the MCSCEC
// paper (§IV-B): the structured encoding coefficient matrix B of Eq. (8),
// the cloud-side encoder that produces each device's coded rows B_j·T, the
// user-side decoder that recovers Ax with m subtractions, and verifiers for
// the availability (Definition 1) and information-theoretic security
// (Definition 2) conditions.
//
// The paper's future-work extension (§VI), a code that stays secure when up
// to t devices collude, is the same systematic code with a different block:
// both are B = [[0, E_r], [E_m, C]], with C the identity stack E_{m,r} for
// Eq. (8) and an m×r Cauchy matrix for colluders. One type, Systematic,
// implements both.
package coding

import (
	"errors"
	"fmt"
)

// Errors reported by scheme construction and verification.
var (
	// ErrNotAvailable indicates the encoding coefficient matrix is not full
	// rank, so the user could not decode (Definition 1 fails).
	ErrNotAvailable = errors.New("coding: availability condition violated (B not full rank)")
	// ErrNotSecure indicates some device's coded rows span a non-trivial
	// intersection with the data subspace (Definition 2 fails).
	ErrNotSecure = errors.New("coding: security condition violated")
)

// Scheme is the field-free shape of the structured (m+r)-dimensional LCEC of
// Eq. (8), for callers that have no field (planners, the adaptive scenario,
// the attack audit); NewStructured binds the same shape to a field. It fixes
// the row layout
//
//	B = ⎡ O_{r,m}  E_r     ⎤   ← device 1: pure random combinations
//	    ⎣ E_m      E_{m,r} ⎦   ← devices 2…i: one data row + one random row each
//
// where E_{m,r} stacks copies of E_r, i.e. (E_{m,r})_{p,q} = 1 iff
// q ≡ p (mod r). Device j (0-based) holds the global rows
// [j·r, min((j+1)·r, m+r)), which reproduces the Lemma 2 shape: the first
// i−1 devices hold r rows, the last holds m−(i−2)·r.
type Scheme struct {
	m, r, i int
}

// New constructs the Eq. (8) scheme for m data rows and r random rows. The
// number of participating devices is i = ⌈(m+r)/r⌉. It requires m ≥ 1 and
// 1 ≤ r ≤ m (Theorem 2's admissible range at k unlimited; callers that
// already ran task allocation pass the plan's r).
func New(m, r int) (*Scheme, error) {
	if m < 1 {
		return nil, fmt.Errorf("coding: m = %d, need m >= 1", m)
	}
	if r < 1 || r > m {
		return nil, fmt.Errorf("coding: r = %d outside [1, m] = [1, %d]", r, m)
	}
	return &Scheme{m: m, r: r, i: (m + 2*r - 1) / r}, nil
}

// M returns the number of data rows.
func (s *Scheme) M() int { return s.m }

// R returns the number of random rows.
func (s *Scheme) R() int { return s.r }

// Devices returns i, the number of participating devices.
func (s *Scheme) Devices() int { return s.i }

// RowRange returns the half-open global row range [from, to) of B held by
// 0-based device j. Device 0 corresponds to the paper's s_1.
func (s *Scheme) RowRange(j int) (from, to int) {
	if j < 0 || j >= s.i {
		panic(fmt.Sprintf("coding: device %d out of range [0, %d)", j, s.i))
	}
	from = j * s.r
	to = from + s.r
	if to > s.m+s.r {
		to = s.m + s.r
	}
	return from, to
}

// RowsOn returns V(B_j), the number of coded rows device j holds.
func (s *Scheme) RowsOn(j int) int {
	from, to := s.RowRange(j)
	return to - from
}
