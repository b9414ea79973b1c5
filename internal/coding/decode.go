package coding

import (
	"fmt"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// DecodeInto is the Original Result Recovery step (§IV-B): given the
// stacked intermediate results Y = B·T·X (device order, so the first r
// rows are the random projections R·X; n = 1 column for a vector query),
// it recovers A·X into dst (m×n) as
//
//	A·X = Y[r:] − C·Y[:r]
//
// For the Eq. (8) identity stack that is exactly m subtractions per column,
// (AX)_p = Y_{r+p} − Y_{p mod r} (0-based p), the paper's 1-based identity
// A_p·x = (BTx)_{r+p} − (BTx)_{p−(⌈p/r⌉−1)r}. For a Cauchy C it is one
// MulInto of C with Y[:r] and one vector subtraction. Neither needs
// elimination, nor any buffer beyond Y and dst.
func (c *Systematic[E]) DecodeInto(dst, y *matrix.Dense[E]) error {
	m, r, n := c.m, c.r, y.Cols()
	if y.Rows() != m+r {
		return fmt.Errorf("coding: got %d intermediate rows, want m+r = %d", y.Rows(), m+r)
	}
	if dst.Rows() != m || dst.Cols() != n {
		return fmt.Errorf("coding: decode output is %dx%d, want %dx%d", dst.Rows(), dst.Cols(), m, n)
	}
	out, data, rnd := dst.RowsView(0, m), y.RowsView(r, m+r), y.RowsView(0, r)
	if c.c != nil {
		var yr matrix.Dense[E]
		yr.Wrap(r, n, rnd)
		matrix.MulInto(c.f, c.c, &yr, dst)
		matrix.VecSubInto(c.f, out, data, out)
		return nil
	}
	// For p in [b, b+r) with b a multiple of r, p mod r = p − b, and rows
	// [b, b+k) of a row-major block are k·n contiguous elements, so the m
	// row subtractions decompose into ⌈m/r⌉ vector subtractions of Y's
	// random rows from r-row chunks of its data rows — no per-element
	// modulo, and each chunk runs the field-specialized subtract kernel.
	// Decode is pure subtraction; this keeps it memory-bound.
	for b := 0; b < m; b += r {
		k := min(r, m-b)
		matrix.VecSubInto(c.f, out[b*n:(b+k)*n], data[b*n:(b+k)*n], rnd[:k*n])
	}
	return nil
}

// Decode is DecodeInto for one intermediate vector y (m+r values), on a
// fresh m-element output.
func (c *Systematic[E]) Decode(y []E) ([]E, error) {
	ax := make([]E, c.m)
	var ym, dm matrix.Dense[E]
	ym.Wrap(len(y), 1, y)
	dm.Wrap(c.m, 1, ax)
	if err := c.DecodeInto(&dm, &ym); err != nil {
		return nil, err
	}
	return ax, nil
}

// DecodeGaussian is the general decoder of the system model (§II-A): for any
// full-rank coefficient matrix b (not only Eq. (8)), it solves B·(Tx) = y
// by Gaussian elimination and returns the first m entries of Tx, i.e. Ax.
// It returns matrix.ErrSingular when b violates the availability condition.
//
// It costs O((m+r)³); Systematic.Decode above is the production path and
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
