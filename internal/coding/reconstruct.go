package coding

import (
	"errors"
	"fmt"

	"github.com/scec/scec/internal/matrix"
)

// Reconstruct inverts Encode: it recovers the data matrix A from an
// encoding's coded blocks. The stacked blocks are exactly Y = B·T, the
// intermediate result for X = I, so the code's own decoder yields the
// first m rows of T, i.e. A — one subtraction per element under Eq. (8),
// where it undoes A_p + R_{p mod r} exactly as Encode built it.
//
// The adaptive control plane depends on this when it re-tunes r online: the
// cloud does not keep A after deployment, but the encoding it does keep
// determines A exactly, so a live reshape can re-encode under a new code
// without the original matrix. Security is unchanged — Reconstruct runs on
// the cloud, which already holds every block; no device learns anything
// new.
func Reconstruct[E comparable](enc *Encoding[E]) (*matrix.Dense[E], error) {
	if enc == nil || enc.Code == nil {
		return nil, errors.New("coding: encoding has no code attached")
	}
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
	if err := code.DecodeInto(a, y); err != nil {
		return nil, err
	}
	return a, nil
}
