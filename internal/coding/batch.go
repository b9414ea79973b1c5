package coding

import (
	"fmt"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// Batch (matrix–matrix) computation: the paper's system model (§II-A) notes
// that the scheme "can also be applied to more general cases that require
// multiplication of two matrices and/or multiplication of a data matrix
// with different input vectors". Both reduce to the same mechanics: the
// input becomes an l×n matrix X whose columns are the n input vectors, each
// device returns B_j·T·X (a V(B_j)×n block), and the user decodes every
// column with the same decode. Nothing about the security argument
// changes — the devices' coefficient rows are identical.

// ComputeDeviceBatch performs device j's share of A·X: its coded block times
// the l×n input matrix.
func (e *Encoding[E]) ComputeDeviceBatch(f field.Field[E], j int, x *matrix.Dense[E]) *matrix.Dense[E] {
	return matrix.Mul(f, e.Blocks[j], x)
}

// ComputeAllBatch is ComputeAllBatchInto on a fresh (m+r)×n result.
func (e *Encoding[E]) ComputeAllBatch(f field.Field[E], x *matrix.Dense[E]) *matrix.Dense[E] {
	offs := e.offsets()
	y := matrix.New[E](offs[len(offs)-1], x.Cols())
	e.ComputeAllBatchInto(f, x, y)
	return y
}

// ComputeAllBatchInto writes every device's batch result into y in device
// order, so y = B·T·X ((m+r)×n). Devices run in parallel through
// matrix.ParallelFor; each per-device product dispatches to the
// field-specialized matrix kernels, writes straight into its rows of y, and
// may itself shard.
func (e *Encoding[E]) ComputeAllBatchInto(f field.Field[E], x, y *matrix.Dense[E]) {
	offs := e.offsets()
	n := x.Cols()
	matrix.ParallelFor(len(e.Blocks), offs[len(offs)-1]*x.Rows()*n, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			matrix.MulInto(f, e.Blocks[j], x, matrix.FromSlice(offs[j+1]-offs[j], n, y.RowsView(offs[j], offs[j+1])))
		}
	})
}

// DecodeBatchInto recovers A·X from the stacked intermediate block
// Y = B·T·X into dst (m×n) as Y[r:] − C·Y[:r], the column-wise
// generalization of DecodeInto. For the Eq. (8) identity stack each output
// row is one vector subtraction over row views, with the random-row index
// carried as a counter instead of a per-row modulo; for a Cauchy C it is one
// MulInto and one vector subtraction over the whole block.
func (c *Systematic[E]) DecodeBatchInto(dst, y *matrix.Dense[E]) error {
	m, r := c.m, c.r
	if y.Rows() != m+r {
		return fmt.Errorf("coding: got %d intermediate rows, want m+r = %d", y.Rows(), m+r)
	}
	if dst.Rows() != m || dst.Cols() != y.Cols() {
		return fmt.Errorf("coding: decode output is %dx%d, want %dx%d", dst.Rows(), dst.Cols(), m, y.Cols())
	}
	if c.c != nil {
		matrix.MulInto(c.f, c.c, matrix.FromSlice(r, y.Cols(), y.RowsView(0, r)), dst)
		out := dst.RowsView(0, m)
		matrix.VecSubInto(c.f, out, y.RowsView(r, m+r), out)
		return nil
	}
	q := 0 // p mod r, maintained incrementally
	for p := 0; p < m; p++ {
		matrix.VecSubInto(c.f, dst.RowView(p), y.RowView(r+p), y.RowView(q))
		q++
		if q == r {
			q = 0
		}
	}
	return nil
}
