package coding

import (
	"testing"

	"github.com/scec/scec/internal/field"
)

// TestCoefficientMatrixStructure pins the row-level shape of Eq. (8) that
// the O(m) decoder and the O((m+r)l) encoder rely on:
//
//   - the first r rows have exactly one non-zero, in the random columns
//     (device 1 stores pure random rows);
//   - every other row has exactly two non-zeros: one data column (its own
//     A_p) and one random column (R_{p mod r}); and
//   - every non-zero is 1, so encoding needs additions only — no
//     multiplications — matching the cost model's assumption that coded
//     rows cost the devices l multiplications each only at compute time.
func TestCoefficientMatrixStructure(t *testing.T) {
	f := field.Prime{}
	for _, dims := range [][2]int{{1, 1}, {5, 2}, {8, 3}, {9, 9}, {12, 5}} {
		m, r := dims[0], dims[1]
		s, err := NewStructured(f, m, r)
		if err != nil {
			t.Fatal(err)
		}
		b := s.CoefficientMatrix()
		for row := 0; row < m+r; row++ {
			dataNZ, randNZ := 0, 0
			for col := 0; col < m+r; col++ {
				v := b.At(row, col)
				if v == 0 {
					continue
				}
				if v != 1 {
					t.Fatalf("m=%d r=%d: B[%d][%d] = %d, want 0 or 1", m, r, row, col, v)
				}
				if col < m {
					dataNZ++
				} else {
					randNZ++
				}
			}
			if row < r {
				if dataNZ != 0 || randNZ != 1 {
					t.Fatalf("m=%d r=%d: random row %d has %d data + %d random non-zeros, want 0+1", m, r, row, dataNZ, randNZ)
				}
				continue
			}
			if dataNZ != 1 || randNZ != 1 {
				t.Fatalf("m=%d r=%d: data row %d has %d data + %d random non-zeros, want 1+1", m, r, row, dataNZ, randNZ)
			}
			// The data column is the row's own index; the random column is
			// the paper's p mod r pairing.
			p := row - r
			if b.At(row, p) != 1 {
				t.Fatalf("m=%d r=%d: row %d does not carry A_%d", m, r, row, p)
			}
			if b.At(row, m+p%r) != 1 {
				t.Fatalf("m=%d r=%d: row %d does not carry R_%d", m, r, row, p%r)
			}
		}
	}
}

// TestEveryRandomRowIsReused confirms the pairing that makes decoding work:
// each random row R_q is stored verbatim by device 1 and reused by ⌈m/r⌉ or
// ⌊m/r⌋ data rows, never zero (that would waste a random row).
func TestEveryRandomRowIsReused(t *testing.T) {
	for m := 1; m <= 20; m++ {
		for r := 1; r <= m; r++ {
			uses := make([]int, r)
			for p := 0; p < m; p++ {
				uses[p%r]++
			}
			lo, hi := m/r, (m+r-1)/r
			for q, u := range uses {
				if u < lo || u > hi || u == 0 {
					t.Fatalf("m=%d r=%d: R_%d used by %d rows, want within [%d, %d] and > 0", m, r, q, u, lo, hi)
				}
			}
		}
	}
}
