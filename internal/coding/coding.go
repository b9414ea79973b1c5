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

import "errors"

// Errors reported by scheme construction and verification.
var (
	// ErrNotAvailable indicates the encoding coefficient matrix is not full
	// rank, so the user could not decode (Definition 1 fails).
	ErrNotAvailable = errors.New("coding: availability condition violated (B not full rank)")
	// ErrNotSecure indicates some device's coded rows span a non-trivial
	// intersection with the data subspace (Definition 2 fails).
	ErrNotSecure = errors.New("coding: security condition violated")
)
