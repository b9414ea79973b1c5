package coding

import (
	"fmt"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// DecodeInto is the Original Result Recovery step (§IV-B): given the
// concatenated intermediate results y = B·T·x (device order, so the first r
// values are the random projections R·x), it recovers Ax into dst (m
// values) with exactly m subtractions:
//
//	(Ax)_p = y_{r+p} − y_{p mod r}        (0-based p)
//
// matching the paper's 1-based identity
// A_p·x = (BTx)_{r+p} − (BTx)_{p−(⌈p/r⌉−1)r}. This is the low-complexity
// decoder the structured B was designed for; no elimination is needed, and
// no buffer beyond y and dst.
func DecodeInto[E comparable](f field.Field[E], s *Scheme, dst, y []E) error {
	if len(y) != s.m+s.r {
		return fmt.Errorf("coding: got %d intermediate values, want m+r = %d", len(y), s.m+s.r)
	}
	if len(dst) != s.m {
		return fmt.Errorf("coding: decode output has %d entries, want m = %d", len(dst), s.m)
	}
	// For p in [b, b+r) with b a multiple of r, p mod r = p − b, so the m
	// subtractions decompose into ⌈m/r⌉ vector subtractions of y's random
	// prefix from r-sized chunks of its data suffix — no per-element modulo,
	// and each chunk runs the field-specialized subtract kernel. Decode is
	// pure subtraction; this keeps it memory-bound.
	data := y[s.r:]
	for b := 0; b < s.m; b += s.r {
		n := min(s.r, s.m-b)
		matrix.VecSubInto(f, dst[b:b+n], data[b:b+n], y[:n])
	}
	return nil
}

// Decode is DecodeInto on a fresh m-element output.
func Decode[E comparable](f field.Field[E], s *Scheme, y []E) ([]E, error) {
	ax := make([]E, s.m)
	if err := DecodeInto(f, s, ax, y); err != nil {
		return nil, err
	}
	return ax, nil
}

// DecodeGaussian is the general decoder of the system model (§II-A): for any
// full-rank coefficient matrix b (not only Eq. (8)), it solves B·(Tx) = y
// by Gaussian elimination and returns the first m entries of Tx, i.e. Ax.
// It returns matrix.ErrSingular when b violates the availability condition.
//
// It costs O((m+r)³); the structured Decode above is the production path and
// the two are cross-checked in the test suite.
func DecodeGaussian[E comparable](f field.Field[E], b *matrix.Dense[E], m int, y []E) ([]E, error) {
	n := b.Rows()
	if b.Cols() != n {
		return nil, fmt.Errorf("coding: coefficient matrix is %dx%d, want square", b.Rows(), b.Cols())
	}
	if m < 1 || m > n {
		return nil, fmt.Errorf("coding: m = %d outside [1, %d]", m, n)
	}
	if len(y) != n {
		return nil, fmt.Errorf("coding: got %d intermediate values, want %d", len(y), n)
	}
	tx, err := matrix.Solve(f, b, y)
	if err != nil {
		return nil, err
	}
	return tx[:m], nil
}
