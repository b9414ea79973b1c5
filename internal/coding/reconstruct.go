package coding

import (
	"errors"
	"fmt"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// Reconstruct inverts Encode: it recovers the data matrix A from an
// encoding's coded blocks. For the structured Eq. (8) scheme it uses the
// retained random rows directly — data row p is coded as A_p + R_{p mod r},
// so one subtraction per row undoes it. For any other code it stacks the
// blocks into Y = B·T and runs the code's own batch decoder (taking X = I:
// the first m rows of T are A), so adaptive reshapes work under every
// scheme.
//
// The adaptive control plane depends on this when it re-tunes r online: the
// cloud does not keep A after deployment, but the encoding it does keep
// determines A exactly, so a live reshape can re-encode under a new scheme
// without the original matrix. Security is unchanged — Reconstruct runs on
// the cloud, which already holds every block and the random rows; no device
// learns anything new.
func Reconstruct[E comparable](f field.Field[E], enc *Encoding[E]) (*matrix.Dense[E], error) {
	if enc == nil || (enc.Scheme == nil && enc.Code == nil) {
		return nil, errors.New("coding: encoding has no code attached")
	}
	if enc.Scheme == nil {
		return reconstructGeneric(enc)
	}
	s := enc.Scheme
	if len(enc.Blocks) != s.i {
		return nil, fmt.Errorf("coding: encoding has %d blocks, scheme has %d devices", len(enc.Blocks), s.i)
	}
	if enc.Random == nil || enc.Random.Rows() != s.r {
		return nil, errors.New("coding: encoding is missing its random rows; cannot reconstruct")
	}
	l := enc.Random.Cols()
	a := matrix.New[E](s.m, l)
	for j := 0; j < s.i; j++ {
		from, to := s.RowRange(j)
		block := enc.Blocks[j]
		if block.Rows() != to-from || block.Cols() != l {
			return nil, fmt.Errorf("coding: block %d is %dx%d, want %dx%d", j, block.Rows(), block.Cols(), to-from, l)
		}
		// Rows below r are the random rows themselves; data starts at r.
		g := max(from, s.r)
		// Mirror Encode's chunking: runs of consecutive rows share one
		// contiguous subtraction until p mod r wraps.
		for g < to {
			p := g - s.r
			q := p % s.r
			n := min(to-g, s.r-q)
			matrix.VecSubInto(f,
				a.RowsView(p, p+n),
				block.RowsView(g-from, g-from+n),
				enc.Random.RowsView(q, q+n))
			g += n
		}
	}
	return a, nil
}

// reconstructGeneric recovers A through the code's own batch decoder: the
// stacked blocks are exactly Y = B·T (the intermediate result for X = I),
// and DecodeBatchInto(Y) yields the first m rows of T, i.e. A.
func reconstructGeneric[E comparable](enc *Encoding[E]) (*matrix.Dense[E], error) {
	code := enc.Code
	if len(enc.Blocks) != code.Devices() {
		return nil, fmt.Errorf("coding: encoding has %d blocks, code has %d devices", len(enc.Blocks), code.Devices())
	}
	for j, block := range enc.Blocks {
		if block.Rows() != code.RowsOn(j) {
			return nil, fmt.Errorf("coding: block %d holds %d rows, code expects %d", j, block.Rows(), code.RowsOn(j))
		}
	}
	y := matrix.VStack(enc.Blocks...)
	a := matrix.New[E](code.M(), y.Cols())
	if err := code.DecodeBatchInto(a, y); err != nil {
		return nil, err
	}
	return a, nil
}
