// Package matrix implements dense linear algebra over any field.Field.
//
// The package provides exactly the operations secure coded edge computing
// needs — matrix product, matrix–vector product, Gaussian elimination, rank,
// inverse, solving, and block stacking — generically over the element type,
// so the same code runs exactly over F_p / GF(256) and approximately over
// float64.
//
// Conventions:
//   - Matrices are immutable-by-convention row-major dense blocks; operations
//     return fresh matrices and never alias their inputs unless documented.
//   - Shape mismatches are programmer errors and panic (matching the
//     behaviour of mainstream dense-linear-algebra libraries); numerical
//     conditions that depend on data, such as singularity, return errors.
package matrix

import (
	"fmt"
	"strings"

	"github.com/scec/scec/internal/field"
)

// Dense is a dense row-major matrix with elements of type E.
type Dense[E comparable] struct {
	rows, cols int
	data       []E // len == rows*cols, row-major
}

// New returns a rows×cols matrix initialized to the zero value of E (which is
// the field zero for all fields in this repository). New panics if rows or
// cols is negative, and permits zero-dimensional matrices (used for the empty
// coefficient matrix of an unselected edge device).
func New[E comparable](rows, cols int) *Dense[E] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Dense[E]{rows: rows, cols: cols, data: make([]E, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying the
// data. It panics if the rows are ragged. An empty input yields a 0×0 matrix.
func FromRows[E comparable](rows [][]E) *Dense[E] {
	if len(rows) == 0 {
		return New[E](0, 0)
	}
	cols := len(rows[0])
	m := New[E](len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("matrix: ragged rows: row 0 has %d cols, row %d has %d", cols, i, len(r)))
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix over f.
func Identity[E comparable](f field.Field[E], n int) *Dense[E] {
	m := New[E](n, n)
	one := f.One()
	for i := 0; i < n; i++ {
		m.data[i*n+i] = one
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense[E]) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense[E]) Cols() int { return m.cols }

// IsEmpty reports whether the matrix has no elements (either dimension zero).
func (m *Dense[E]) IsEmpty() bool { return m.rows == 0 || m.cols == 0 }

// At returns the element at row i, column j.
func (m *Dense[E]) At(i, j int) E {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at row i, column j.
func (m *Dense[E]) Set(i, j int, v E) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense[E]) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense[E]) Row(i int) []E {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range for %dx%d", i, m.rows, m.cols))
	}
	out := make([]E, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// SetRow copies r into row i. It panics if len(r) != Cols().
func (m *Dense[E]) SetRow(i int, r []E) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range for %dx%d", i, m.rows, m.cols))
	}
	if len(r) != m.cols {
		panic(fmt.Sprintf("matrix: SetRow length %d != cols %d", len(r), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], r)
}

// rowView returns the backing slice of row i without copying. Internal use
// only: callers must not let the view escape the package.
func (m *Dense[E]) rowView(i int) []E {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// RowView returns the backing slice of row i without copying. The slice
// aliases the matrix, so writes through it mutate the matrix; it exists as
// the performance escape hatch for the row-wise hot paths in package coding
// (encode and batch decode), which would otherwise copy every row. General
// callers should prefer Row and SetRow, which preserve the package's
// immutable-by-convention contract.
func (m *Dense[E]) RowView(i int) []E {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range for %dx%d", i, m.rows, m.cols))
	}
	return m.rowView(i)
}

// RowsView returns the backing storage of rows [from, to) as one flat
// row-major slice of length (to-from)*Cols(), without copying. Like RowView
// it aliases the matrix and exists for the coding hot paths, which process
// runs of consecutive rows with a single vector-kernel call instead of one
// call per row.
func (m *Dense[E]) RowsView(from, to int) []E {
	if from < 0 || to < from || to > m.rows {
		panic(fmt.Sprintf("matrix: row range [%d, %d) out of range for %dx%d", from, to, m.rows, m.cols))
	}
	return m.data[from*m.cols : to*m.cols]
}

// FromSlice wraps data as a rows×cols matrix without copying; the matrix
// aliases data, so the caller must not reuse it. It panics unless
// len(data) == rows*cols. Package coding uses it to carve one encoding's
// device blocks out of a single allocation.
func FromSlice[E comparable](rows, cols int, data []E) *Dense[E] {
	m := new(Dense[E])
	m.Wrap(rows, cols, data)
	return m
}

// Wrap points m at data as a rows×cols matrix without copying: FromSlice
// on a header the caller already holds. The per-query paths keep their
// headers in recycled state (engine staging, a fleet query, a transport
// Call) or on the stack and re-wrap them each round, so a vector query
// travels as an l×1 matrix without allocating a header. It panics unless
// len(data) == rows*cols.
func (m *Dense[E]) Wrap(rows, cols int, data []E) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: FromSlice data length %d != %d*%d", len(data), rows, cols))
	}
	m.rows, m.cols, m.data = rows, cols, data
}

// Clone returns a deep copy.
func (m *Dense[E]) Clone() *Dense[E] {
	out := &Dense[E]{rows: m.rows, cols: m.cols, data: make([]E, len(m.data))}
	copy(out.data, m.data)
	return out
}

// Equal reports element-wise equality under the field's Equal (so Real
// matrices compare with tolerance). Matrices of different shapes are unequal.
func Equal[E comparable](f field.Field[E], a, b *Dense[E]) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if !f.Equal(a.data[i], b.data[i]) {
			return false
		}
	}
	return true
}

// String renders the matrix for diagnostics; large matrices are elided.
func (m *Dense[E]) String() string {
	const maxDim = 12
	var b strings.Builder
	fmt.Fprintf(&b, "Dense %dx%d", m.rows, m.cols)
	if m.rows > maxDim || m.cols > maxDim {
		return b.String() + " (elided)"
	}
	for i := 0; i < m.rows; i++ {
		b.WriteString("\n[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%v", m.data[i*m.cols+j])
		}
		b.WriteByte(']')
	}
	return b.String()
}
