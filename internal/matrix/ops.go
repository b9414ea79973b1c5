package matrix

import (
	"fmt"
	"math/rand/v2"

	"github.com/scec/scec/internal/field"
)

// Add returns a + b. It panics on shape mismatch. Large matrices are
// sharded across goroutines (see parallel.go), each range one call of the
// field's AddVecInto.
func Add[E comparable](f field.Field[E], a, b *Dense[E]) *Dense[E] {
	shapeMatch("Add", a, b)
	out := New[E](a.rows, a.cols)
	par := parallelFor(len(a.data), len(a.data), func(lo, hi int) {
		f.AddVecInto(out.data[lo:hi], a.data[lo:hi], b.data[lo:hi])
	})
	recordDispatch(opAdd, par)
	return out
}

// Sub returns a - b. It panics on shape mismatch. Dispatch mirrors Add.
func Sub[E comparable](f field.Field[E], a, b *Dense[E]) *Dense[E] {
	shapeMatch("Sub", a, b)
	out := New[E](a.rows, a.cols)
	par := parallelFor(len(a.data), len(a.data), func(lo, hi int) {
		f.SubVecInto(out.data[lo:hi], a.data[lo:hi], b.data[lo:hi])
	})
	recordDispatch(opSub, par)
	return out
}

// Scale returns s*a.
func Scale[E comparable](f field.Field[E], s E, a *Dense[E]) *Dense[E] {
	out := New[E](a.rows, a.cols)
	for i := range a.data {
		out.data[i] = f.Mul(s, a.data[i])
	}
	return out
}

// Mul returns the matrix product a·b as a fresh matrix. It panics when
// a.Cols() != b.Rows().
func Mul[E comparable](f field.Field[E], a, b *Dense[E]) *Dense[E] {
	out := New[E](a.rows, b.cols)
	MulInto(f, a, b, out)
	return out
}

// MulInto computes a·b into out, which must be a.Rows()×b.Cols() and must
// not alias a or b; its previous contents are overwritten. It panics on a
// shape mismatch. It is the allocation-free variant of Mul that a device
// runs for every batch compute, into a reply slab its connection recycles.
// A field with AXPYVec (GF(256), Real) accumulates in i-k-j order; over any
// other (F_p) every output row is one DotRows of a transpose of b, made once
// per call, against a row of a. Large products are row-sharded across
// goroutines.
func MulInto[E comparable](f field.Field[E], a, b, out *Dense[E]) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.rows || out.cols != b.cols {
		panic(fmt.Sprintf("matrix: MulInto out is %dx%d, want %dx%d", out.rows, out.cols, a.rows, b.cols))
	}
	ax, ok := f.(axpyField[E])
	if !ok {
		recordDispatch(opMul, mulTransposed(f, a, b, out))
		return
	}
	// The sharding closure is built only when the call may shard: it escapes
	// to the helpers, so building it on the serial path would allocate per
	// call.
	work := a.rows * a.cols * b.cols
	par := false
	if shardable(a.rows, work) {
		par = parallelFor(a.rows, work, func(lo, hi int) {
			mulAXPY(f, ax, a, b, out, lo, hi)
		})
	} else {
		mulAXPY(f, ax, a, b, out, 0, a.rows)
	}
	recordDispatch(opMul, par)
}

// MulVec returns the matrix–vector product a·x as a fresh slice. It panics
// when len(x) != a.Cols(). This is the hot operation each edge device runs on
// its coded rows.
func MulVec[E comparable](f field.Field[E], a *Dense[E], x []E) []E {
	out := make([]E, a.rows)
	MulVecInto(f, a, x, out)
	return out
}

// MulVecInto computes a·x into dst, which must have length a.Rows(). It is
// the allocation-free variant of MulVec that coding.ComputeAll uses to run
// every device's product directly into its slot of the gathered result.
// Each row range is one call of the field's DotRows, and the rows are
// sharded across goroutines above the parallel threshold.
func MulVecInto[E comparable](f field.Field[E], a *Dense[E], x []E, dst []E) {
	if len(x) != a.cols {
		panic(fmt.Sprintf("matrix: MulVec shape mismatch %dx%d · %d", a.rows, a.cols, len(x)))
	}
	if len(dst) != a.rows {
		panic(fmt.Sprintf("matrix: MulVecInto dst length %d != rows %d", len(dst), a.rows))
	}
	// As in MulInto, the sharding closure exists only on the sharded branch.
	par := false
	if work := a.rows * a.cols; shardable(a.rows, work) {
		par = parallelFor(a.rows, work, func(lo, hi int) {
			f.DotRows(dst[lo:hi], a.data[lo*a.cols:hi*a.cols], x)
		})
	} else {
		f.DotRows(dst, a.data, x)
	}
	recordDispatch(opMulVec, par)
}

// Transpose returns aᵀ.
func Transpose[E comparable](a *Dense[E]) *Dense[E] {
	return FromSlice(a.cols, a.rows, transposeInto(nil, a.data, a.rows, a.cols))
}

// transposeInto writes the transpose of the rows×cols row-major src into
// dst, growing dst when it is too short, and returns it.
func transposeInto[E any](dst, src []E, rows, cols int) []E {
	if cap(dst) < rows*cols {
		dst = make([]E, rows*cols)
	}
	dst = dst[:rows*cols]
	for i := 0; i < rows; i++ {
		for j, v := range src[i*cols : (i+1)*cols] {
			dst[j*rows+i] = v
		}
	}
	return dst
}

// VStack stacks matrices vertically: the result has the rows of each input in
// order. All inputs must share a column count unless they are empty (zero
// rows); fully empty input yields a 0×0 matrix.
func VStack[E comparable](blocks ...*Dense[E]) *Dense[E] {
	cols, rows := -1, 0
	for _, b := range blocks {
		if b.rows == 0 {
			continue
		}
		if cols == -1 {
			cols = b.cols
		} else if b.cols != cols {
			panic(fmt.Sprintf("matrix: VStack column mismatch %d vs %d", cols, b.cols))
		}
		rows += b.rows
	}
	if cols == -1 {
		return New[E](0, 0)
	}
	out := New[E](rows, cols)
	at := 0
	for _, b := range blocks {
		copy(out.data[at:], b.data)
		at += len(b.data)
	}
	return out
}

// HStack concatenates matrices horizontally. All inputs must share a row
// count unless they are empty (zero cols).
func HStack[E comparable](blocks ...*Dense[E]) *Dense[E] {
	rows, cols := -1, 0
	for _, b := range blocks {
		if b.cols == 0 {
			continue
		}
		if rows == -1 {
			rows = b.rows
		} else if b.rows != rows {
			panic(fmt.Sprintf("matrix: HStack row mismatch %d vs %d", rows, b.rows))
		}
		cols += b.cols
	}
	if rows == -1 {
		return New[E](0, 0)
	}
	out := New[E](rows, cols)
	for i := 0; i < rows; i++ {
		at := i * cols
		for _, b := range blocks {
			if b.cols == 0 {
				continue
			}
			copy(out.data[at:], b.rowView(i))
			at += b.cols
		}
	}
	return out
}

// RowSlice returns a copy of rows [from, to) as a new matrix (half-open,
// matching Go slicing; the paper's {·}_a^b notation is the closed range
// [a, b] with 1-based indexes, i.e. RowSlice(m, a-1, b)).
func RowSlice[E comparable](a *Dense[E], from, to int) *Dense[E] {
	if from < 0 || to > a.rows || from > to {
		panic(fmt.Sprintf("matrix: RowSlice [%d,%d) out of range for %d rows", from, to, a.rows))
	}
	out := New[E](to-from, a.cols)
	copy(out.data, a.data[from*a.cols:to*a.cols])
	return out
}

// Random returns a rows×cols matrix with independently uniform entries.
func Random[E comparable](f field.Field[E], rng *rand.Rand, rows, cols int) *Dense[E] {
	out := New[E](rows, cols)
	for i := range out.data {
		out.data[i] = f.Rand(rng)
	}
	return out
}

// RandomVec returns a length-n vector with independently uniform entries.
func RandomVec[E comparable](f field.Field[E], rng *rand.Rand, n int) []E {
	out := make([]E, n)
	for i := range out {
		out[i] = f.Rand(rng)
	}
	return out
}

// VecEqual reports element-wise equality of two vectors under f.Equal.
func VecEqual[E comparable](f field.Field[E], a, b []E) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !f.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func shapeMatch[E comparable](op string, a, b *Dense[E]) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}
