package coding

import (
	"fmt"
	"math/rand/v2"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// CollusionScheme generalizes the Eq. (8) design to the paper's future-work
// threat model (§VI): up to t edge devices may pool their coded rows. The
// single-attacker structure no longer suffices (two colluding devices holding
// A_p + R_q and R_q recover A_p by one subtraction), so the random part of
// every coded row comes from a Cauchy matrix instead:
//
//	B = ⎡ O_{r,m}  G_{0..r}   ⎤      G is an (m+r)×r Cauchy matrix
//	    ⎣ E_m      G_{r..m+r} ⎦
//
// Every square submatrix of a Cauchy matrix is invertible, so any s ≤ r rows
// of G are linearly independent. A coalition holding s rows can form a
// vector in the data subspace λ̄ only by cancelling the random columns, which
// needs a non-trivial dependency among s rows of G — impossible while s ≤ r.
// Security against t colluders therefore reduces to the capacity condition:
// the t largest per-device row counts must sum to at most r.
type CollusionScheme[E comparable] struct {
	f       field.Field[E]
	m, r, t int
	rows    []int
	g       *matrix.Dense[E] // the (m+r)×r Cauchy factor: B's last r columns
	b       *matrix.Dense[E]
	lu      *matrix.LU[E] // factored once so every Decode is O((m+r)²)
}

// NewCollusion builds a t-collusion-resistant scheme over f for m data rows,
// r random rows, and the given per-device row counts (which must sum to
// m+r). It fails when the capacity condition is violated or the field cannot
// supply m+2r distinct Cauchy nodes (relevant for GF(256)).
func NewCollusion[E comparable](f field.Field[E], m, r, t int, rows []int) (*CollusionScheme[E], error) {
	if m < 1 {
		return nil, fmt.Errorf("coding: m = %d, need m >= 1", m)
	}
	if r < 1 {
		return nil, fmt.Errorf("coding: r = %d, need r >= 1", r)
	}
	if t < 1 {
		return nil, fmt.Errorf("coding: t = %d, need t >= 1", t)
	}
	sum := 0
	for j, v := range rows {
		if v < 1 {
			return nil, fmt.Errorf("coding: device %d assigned %d rows, need >= 1", j, v)
		}
		sum += v
	}
	if sum != m+r {
		return nil, fmt.Errorf("coding: device rows sum to %d, want m+r = %d", sum, m+r)
	}
	if cap := sumOfLargest(rows, t); cap > r {
		return nil, fmt.Errorf("coding: %d colluding devices could hold %d rows > r = %d; increase r or shrink per-device loads", t, cap, r)
	}
	g, err := cauchy(f, m+r, r)
	if err != nil {
		return nil, err
	}
	n := m + r
	b := matrix.New[E](n, n)
	one := f.One()
	for gRow := 0; gRow < n; gRow++ {
		if gRow >= r {
			b.Set(gRow, gRow-r, one)
		}
		for c := 0; c < r; c++ {
			b.Set(gRow, m+c, g.At(gRow, c))
		}
	}
	// Factoring B up front both proves the availability condition (a
	// singular B fails here) and makes every subsequent decode O((m+r)²).
	lu, err := matrix.Factor(f, b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotAvailable, err)
	}
	return &CollusionScheme[E]{f: f, m: m, r: r, t: t, rows: append([]int(nil), rows...), g: g, b: b, lu: lu}, nil
}

// UniformCollusionRows returns a feasible per-device allocation for the
// collusion scheme: w rows per device (the last device takes the remainder)
// with r = t·w random rows, so any t devices hold at most r rows. It returns
// the row counts and r.
func UniformCollusionRows(m, t, w int) (rows []int, r int, err error) {
	if m < 1 || t < 1 || w < 1 {
		return nil, 0, fmt.Errorf("coding: invalid collusion parameters m=%d t=%d w=%d", m, t, w)
	}
	r = t * w
	total := m + r
	for total > 0 {
		take := w
		if take > total {
			take = total
		}
		rows = append(rows, take)
		total -= take
	}
	return rows, r, nil
}

// M returns the number of data rows.
func (s *CollusionScheme[E]) M() int { return s.m }

// R returns the number of random rows.
func (s *CollusionScheme[E]) R() int { return s.r }

// T returns the collusion threshold the scheme defends against.
func (s *CollusionScheme[E]) T() int { return s.t }

// Devices returns the number of participating devices.
func (s *CollusionScheme[E]) Devices() int { return len(s.rows) }

// K implements Code: B is square, so every device's rows are needed.
func (s *CollusionScheme[E]) K() int { return len(s.rows) }

// Name implements Code.
func (s *CollusionScheme[E]) Name() string { return "collusion" }

// RowsOn returns V(B_j), the number of coded rows device j holds.
func (s *CollusionScheme[E]) RowsOn(j int) int {
	if j < 0 || j >= len(s.rows) {
		panic(fmt.Sprintf("coding: device %d out of range [0, %d)", j, len(s.rows)))
	}
	return s.rows[j]
}

// DeviceCoefficients implements Code: device j's rows of B.
func (s *CollusionScheme[E]) DeviceCoefficients(j int) *matrix.Dense[E] {
	from, to := s.RowRange(j)
	return matrix.RowSlice(s.b, from, to).Clone()
}

// CoefficientMatrix returns (a copy of) the full coefficient matrix B.
func (s *CollusionScheme[E]) CoefficientMatrix() *matrix.Dense[E] { return s.b.Clone() }

// RowRange returns the half-open global row range of device j.
func (s *CollusionScheme[E]) RowRange(j int) (from, to int) {
	if j < 0 || j >= len(s.rows) {
		panic(fmt.Sprintf("coding: device %d out of range [0, %d)", j, len(s.rows)))
	}
	for p := 0; p < j; p++ {
		from += s.rows[p]
	}
	return from, from + s.rows[j]
}

// Encode produces each device's coded block B_j·T with fresh random rows R.
// Row i of B is G_i in the random columns plus, for i ≥ r, a single one in
// data column i−r, so row i of B·T is G_i·R + A_{i−r}: each block is the
// dense product of its rows of G with R, plus one row of A added to each row
// at or past r. That costs r multiply-adds per coded element instead of the
// m+r of multiplying by B's rows.
func (s *CollusionScheme[E]) Encode(a *matrix.Dense[E], rng *rand.Rand) (*Encoding[E], error) {
	if a.Rows() != s.m {
		return nil, fmt.Errorf("coding: data matrix has %d rows, scheme expects m = %d", a.Rows(), s.m)
	}
	random := matrix.Random(s.f, rng, s.r, a.Cols())
	blocks := make([]*matrix.Dense[E], len(s.rows))
	for j := range s.rows {
		from, to := s.RowRange(j)
		block := matrix.New[E](to-from, a.Cols())
		matrix.MulInto(s.f, matrix.FromSlice(to-from, s.r, s.g.RowsView(from, to)), random, block)
		for i := max(from, s.r); i < to; i++ {
			row := block.RowView(i - from)
			matrix.VecAddInto(s.f, row, row, a.RowView(i-s.r))
		}
		blocks[j] = block
	}
	// Encoding.Scheme stays nil — there is no m-subtraction shortcut — but
	// the Code handle makes the encoding first-class across every execution
	// layer: engine, fleet, sim, and transport decode through it.
	return &Encoding[E]{Code: s, Blocks: blocks, Random: random}, nil
}

// Decode recovers Ax from the concatenated intermediate results by solving
// B·(Tx) = y against the LU factorization computed at construction (the
// Cauchy design has no m-subtraction shortcut, but factor-once/solve-many
// keeps repeated queries at O((m+r)²)).
func (s *CollusionScheme[E]) Decode(y []E) ([]E, error) {
	if len(y) != s.m+s.r {
		return nil, fmt.Errorf("coding: got %d intermediate values, want m+r = %d", len(y), s.m+s.r)
	}
	tx, err := s.lu.Solve(y)
	if err != nil {
		return nil, err
	}
	return tx[:s.m], nil
}

// DecodeBatch recovers A·X from the stacked intermediate block Y = B·T·X by
// solving each column against the construction-time LU factorization —
// O((m+r)²) per column, the batch counterpart of Decode.
func (s *CollusionScheme[E]) DecodeBatch(y *matrix.Dense[E]) (*matrix.Dense[E], error) {
	n := s.m + s.r
	if y.Rows() != n {
		return nil, fmt.Errorf("coding: got %d intermediate rows, want m+r = %d", y.Rows(), n)
	}
	cols := y.Cols()
	ax := matrix.New[E](s.m, cols)
	col := make([]E, n)
	for c := 0; c < cols; c++ {
		for p := 0; p < n; p++ {
			col[p] = y.At(p, c)
		}
		tx, err := s.lu.Solve(col)
		if err != nil {
			return nil, err
		}
		for p := 0; p < s.m; p++ {
			ax.Set(p, c, tx[p])
		}
	}
	return ax, nil
}

// Verify checks availability and t-collusion security exhaustively through
// the shared coalition walk (CheckSecurityT): every coalition of up to t
// devices must span a subspace that intersects λ̄ trivially. It enumerates
// coalitions, so it is intended for the small fleets where collusion codes
// are configured; the Cauchy argument above is the general guarantee.
func (s *CollusionScheme[E]) Verify() error {
	if err := CheckAvailability(s.f, s.b); err != nil {
		return err
	}
	return CheckSecurityT(s.f, s.b, s.m, s.rows, s.t)
}

// cauchy builds an n×c Cauchy matrix over f with nodes x_i = i and
// y_j = n + j: G[i][j] = 1 / (x_i − y_j). It errors when the field cannot
// represent n+c distinct nodes (every square Cauchy submatrix is invertible
// exactly when all nodes are distinct).
func cauchy[E comparable](f field.Field[E], n, c int) (*matrix.Dense[E], error) {
	nodes := make([]E, n+c)
	seen := make(map[E]bool, n+c)
	for v := range nodes {
		nodes[v] = f.FromInt64(int64(v))
		if seen[nodes[v]] {
			return nil, fmt.Errorf("coding: field %s cannot supply %d distinct Cauchy nodes", f.Name(), n+c)
		}
		seen[nodes[v]] = true
	}
	g := matrix.New[E](n, c)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			d := f.Sub(nodes[i], nodes[n+j])
			inv, err := f.Inv(d)
			if err != nil {
				return nil, fmt.Errorf("coding: degenerate Cauchy node pair (%d, %d): %w", i, j, err)
			}
			g.Set(i, j, inv)
		}
	}
	return g, nil
}

// sumOfLargest returns the sum of the t largest values in rows (all values
// if t exceeds the count).
func sumOfLargest(rows []int, t int) int {
	sorted := append([]int(nil), rows...)
	for i := 1; i < len(sorted); i++ { // insertion sort: rows lists are short
		for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	if t > len(sorted) {
		t = len(sorted)
	}
	sum := 0
	for _, v := range sorted[:t] {
		sum += v
	}
	return sum
}
