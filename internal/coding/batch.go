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
// column with the same m subtractions. Nothing about the security argument
// changes — the devices' coefficient rows are identical.

// ComputeDeviceBatch performs device j's share of A·X: its coded block times
// the l×n input matrix.
func (e *Encoding[E]) ComputeDeviceBatch(f field.Field[E], j int, x *matrix.Dense[E]) *matrix.Dense[E] {
	return matrix.Mul(f, e.Blocks[j], x)
}

// ComputeAllBatch stacks every device's batch result in device order,
// yielding B·T·X ((m+r)×n). Devices run in parallel through
// matrix.ParallelFor; each per-device product dispatches to the
// field-specialized matrix kernels and may itself shard.
func (e *Encoding[E]) ComputeAllBatch(f field.Field[E], x *matrix.Dense[E]) *matrix.Dense[E] {
	blocks := make([]*matrix.Dense[E], len(e.Blocks))
	rows := 0
	for _, b := range e.Blocks {
		rows += b.Rows()
	}
	matrix.ParallelFor(len(e.Blocks), rows*x.Rows()*x.Cols(), func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			blocks[j] = e.ComputeDeviceBatch(f, j, x)
		}
	})
	return matrix.VStack(blocks...)
}

// DecodeBatch recovers A·X from the stacked intermediate block Y = B·T·X:
// m·n subtractions, the column-wise generalization of Decode. Each output
// row is one vector subtraction over row views (no per-element index
// arithmetic or bounds-checked At calls), with the random-row index carried
// as a counter instead of a per-row modulo.
func DecodeBatch[E comparable](f field.Field[E], s *Scheme, y *matrix.Dense[E]) (*matrix.Dense[E], error) {
	if y.Rows() != s.m+s.r {
		return nil, fmt.Errorf("coding: got %d intermediate rows, want m+r = %d", y.Rows(), s.m+s.r)
	}
	n := y.Cols()
	ax := matrix.New[E](s.m, n)
	q := 0 // p mod s.r, maintained incrementally
	for p := 0; p < s.m; p++ {
		matrix.VecSubInto(f, ax.RowView(p), y.RowView(s.r+p), y.RowView(q))
		q++
		if q == s.r {
			q = 0
		}
	}
	return ax, nil
}
