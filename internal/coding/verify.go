package coding

import (
	"fmt"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// DataSubspace returns λ̄ = [E_m | O_{m,r}], the basis of the subspace of
// coefficient vectors that reveal linear combinations of rows of A. The
// security condition of Definition 2 (in its span form, per the theory of
// secure network coding) is that every device's coefficient block intersects
// this subspace trivially.
func DataSubspace[E comparable](f field.Field[E], m, r int) *matrix.Dense[E] {
	lambda := matrix.New[E](m, m+r)
	one := f.One()
	for p := 0; p < m; p++ {
		lambda.Set(p, p, one)
	}
	return lambda
}

// CheckAvailability verifies Definition 1 for an arbitrary coefficient
// matrix: B must be square and full rank. It returns ErrNotAvailable
// (wrapped with the rank found) on failure.
func CheckAvailability[E comparable](f field.Field[E], b *matrix.Dense[E]) error {
	if b.Rows() != b.Cols() {
		return fmt.Errorf("%w: B is %dx%d, not square", ErrNotAvailable, b.Rows(), b.Cols())
	}
	if rank := matrix.Rank(f, b); rank != b.Rows() {
		return fmt.Errorf("%w: rank %d of %d", ErrNotAvailable, rank, b.Rows())
	}
	return nil
}

// CheckSecurity verifies Definition 2 for an arbitrary coefficient matrix
// split into per-device row counts: for each device j,
// dim(L(B_j) ∩ L(λ̄)) must be 0. rows[j] gives V(B_j); the counts must sum
// to B's row count, and m = B.Cols() − r data rows are assumed to occupy the
// first m columns. It returns ErrNotSecure naming the first offending
// device.
func CheckSecurity[E comparable](f field.Field[E], b *matrix.Dense[E], m int, rows []int) error {
	n := b.Rows()
	r := b.Cols() - m
	if r < 0 {
		return fmt.Errorf("coding: m = %d exceeds B's %d columns", m, b.Cols())
	}
	sum := 0
	for _, v := range rows {
		if v < 0 {
			return fmt.Errorf("coding: negative device row count %d", v)
		}
		sum += v
	}
	if sum != n {
		return fmt.Errorf("coding: device row counts sum to %d, want %d", sum, n)
	}
	lambda := DataSubspace(f, m, r)
	at := 0
	for j, v := range rows {
		if v == 0 {
			continue
		}
		bj := matrix.RowSlice(b, at, at+v)
		at += v
		if dim := matrix.SpanIntersectionDim(f, bj, lambda); dim != 0 {
			return fmt.Errorf("%w: device %d leaks a %d-dimensional data subspace", ErrNotSecure, j, dim)
		}
	}
	return nil
}

// CheckSecurityT generalizes CheckSecurity to coalitions: every coalition of
// up to t devices, pooling their coefficient rows, must span a subspace that
// intersects λ̄ trivially. t = 1 is exactly Definition 2. The check
// enumerates coalitions, so it is meant for the small fleets where collusion
// codes are configured; the Cauchy rank argument is the general guarantee.
// Over field.Real at t ≥ 2 it refuses rather than answers: the pooled
// coefficients carry Cauchy minors too ill-conditioned for a tolerance-based
// rank, which would name secure coalitions as leaking.
func CheckSecurityT[E comparable](f field.Field[E], b *matrix.Dense[E], m int, rows []int, t int) error {
	n := b.Rows()
	r := b.Cols() - m
	if r < 0 {
		return fmt.Errorf("coding: m = %d exceeds B's %d columns", m, b.Cols())
	}
	if t < 1 {
		return fmt.Errorf("coding: t = %d, need t >= 1", t)
	}
	if _, float := any(f).(field.Real); float && t >= 2 {
		return fmt.Errorf("coding: the tolerance-based rank test over field.Real cannot certify t = %d security; verify the same shape over an exact field (Prime, GF(256))", t)
	}
	sum := 0
	for _, v := range rows {
		if v < 0 {
			return fmt.Errorf("coding: negative device row count %d", v)
		}
		sum += v
	}
	if sum != n {
		return fmt.Errorf("coding: device row counts sum to %d, want %d", sum, n)
	}
	starts := make([]int, len(rows)+1)
	for j, v := range rows {
		starts[j+1] = starts[j] + v
	}
	return checkCoalitions(f, len(rows), t, DataSubspace(f, m, r), func(j int) *matrix.Dense[E] {
		return matrix.RowSlice(b, starts[j], starts[j+1])
	})
}

// checkCoalitions enumerates every coalition of 1..t of the n devices and
// checks that the pooled coefficient block blockOf(j₁)‖…‖blockOf(jₛ)
// intersects lambda trivially. It is the shared security walk behind the
// Systematic and polynomial-masking verifiers (and CheckSecurityT); each
// scheme supplies only its per-device coefficient representation.
func checkCoalitions[E comparable](f field.Field[E], n, t int, lambda *matrix.Dense[E], blockOf func(j int) *matrix.Dense[E]) error {
	coalition := make([]int, 0, t)
	var walk func(start int) error
	walk = func(start int) error {
		if len(coalition) > 0 {
			blocks := make([]*matrix.Dense[E], 0, len(coalition))
			for _, j := range coalition {
				blocks = append(blocks, blockOf(j))
			}
			pooled := matrix.VStack(blocks...)
			if dim := matrix.SpanIntersectionDim(f, pooled, lambda); dim != 0 {
				return fmt.Errorf("%w: coalition %v leaks a %d-dimensional data subspace", ErrNotSecure, append([]int(nil), coalition...), dim)
			}
		}
		if len(coalition) == t {
			return nil
		}
		for j := start; j < n; j++ {
			coalition = append(coalition, j)
			if err := walk(j + 1); err != nil {
				return err
			}
			coalition = coalition[:len(coalition)-1]
		}
		return nil
	}
	return walk(0)
}

// Verify implements Code: it materializes B and re-establishes availability
// (Definition 1) and security against every coalition of up to T devices
// (Definition 2; for Eq. (8), T = 1, these are the Theorem 3 checks). The
// construction guarantees both; Verify exists so deployments and tests can
// re-establish the guarantee for a concrete code. It enumerates coalitions,
// so at T ≥ 2 it is meant for the small fleets where collusion codes are
// configured; the Cauchy argument on Systematic is the general guarantee.
func (c *Systematic[E]) Verify() error {
	b := c.CoefficientMatrix()
	if err := CheckAvailability(c.f, b); err != nil {
		return err
	}
	rows := make([]int, c.Devices())
	for j := range rows {
		rows[j] = c.RowsOn(j)
	}
	return CheckSecurityT(c.f, b, c.m, rows, c.t)
}
