package coding

import (
	"fmt"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// NewCollusion builds the paper's future-work extension (§VI) over f: a
// Systematic code whose C is an m×r Cauchy matrix, secure when up to t
// devices pool their coded rows. Eq. (8) no longer suffices there (two
// colluding devices holding A_p + R_q and R_q recover A_p by one
// subtraction); with a Cauchy C any s ≤ r rows of [E_r; C] are independent,
// so security against t colluders reduces to the capacity condition: the t
// largest per-device row counts must sum to at most r. rows gives each
// device's row count and must sum to m+r. It fails when the capacity
// condition is violated or the field cannot supply the m+r distinct Cauchy
// nodes (over GF(256): m + r ≤ 256).
func NewCollusion[E comparable](f field.Field[E], m, r, t int, rows []int) (*Systematic[E], error) {
	if m < 1 {
		return nil, fmt.Errorf("coding: m = %d, need m >= 1", m)
	}
	if r < 1 {
		return nil, fmt.Errorf("coding: r = %d, need r >= 1", r)
	}
	if t < 1 {
		return nil, fmt.Errorf("coding: t = %d, need t >= 1", t)
	}
	offs := make([]int, len(rows)+1)
	for j, v := range rows {
		if v < 1 {
			return nil, fmt.Errorf("coding: device %d assigned %d rows, need >= 1", j, v)
		}
		offs[j+1] = offs[j] + v
	}
	if sum := offs[len(rows)]; sum != m+r {
		return nil, fmt.Errorf("coding: device rows sum to %d, want m+r = %d", sum, m+r)
	}
	if cap := sumOfLargest(rows, t); cap > r {
		return nil, fmt.Errorf("coding: %d colluding devices could hold %d rows > r = %d; increase r or shrink per-device loads", t, cap, r)
	}
	c, err := cauchy(f, m, r)
	if err != nil {
		return nil, err
	}
	return &Systematic[E]{f: f, m: m, r: r, t: t, offs: offs, c: c}, nil
}

// UniformCollusionRows returns a feasible per-device allocation for
// NewCollusion: w rows per device (the last device takes the remainder)
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

// BalancedCollusionRows spreads m+r coded rows over n devices as evenly as
// possible and checks the t-collusion capacity condition (the t largest
// per-device counts must sum to at most r). It is the row layout a reshape
// uses when the adaptive control plane re-deploys a collusion code at a new
// r over a fixed device count.
func BalancedCollusionRows(m, r, t, n int) ([]int, error) {
	if m < 1 || r < 1 || t < 1 || n < 1 {
		return nil, fmt.Errorf("coding: invalid collusion layout m=%d r=%d t=%d n=%d", m, r, t, n)
	}
	total := m + r
	if n > total {
		return nil, fmt.Errorf("coding: %d devices for %d coded rows (every device needs a row)", n, total)
	}
	rows := make([]int, n)
	base, extra := total/n, total%n
	for j := range rows {
		rows[j] = base
		if j < extra {
			rows[j]++
		}
	}
	if cap := sumOfLargest(rows, t); cap > r {
		return nil, fmt.Errorf("coding: balanced layout infeasible: %d colluding devices hold %d rows > r = %d", t, cap, r)
	}
	return rows, nil
}

// cauchy builds an n×c Cauchy matrix over f with nodes x_i = i and
// y_j = n + j: C[i][j] = 1 / (x_i − y_j). It errors when the field cannot
// represent n+c distinct nodes (every square Cauchy submatrix is invertible
// exactly when all nodes are distinct). The n·c differences take few
// distinct values — at most n+c−1 over F_p and Real, where they are the
// integers 1−n−c…−1, and at most 256 over GF(256), where they are XORs —
// so each distinct difference is inverted once, keyed by its value.
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
	inv := make(map[E]E, n+c)
	g := matrix.New[E](n, c)
	for i := 0; i < n; i++ {
		row := g.RowView(i)
		for j := range row {
			d := f.Sub(nodes[i], nodes[n+j])
			v, ok := inv[d]
			if !ok {
				var err error
				if v, err = f.Inv(d); err != nil {
					return nil, fmt.Errorf("coding: degenerate Cauchy node pair (%d, %d): %w", i, j, err)
				}
				inv[d] = v
			}
			row[j] = v
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
