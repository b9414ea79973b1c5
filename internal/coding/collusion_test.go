package coding

import (
	"errors"
	"strings"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

func TestUniformCollusionRows(t *testing.T) {
	rows, r, err := UniformCollusionRows(10, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r != 6 {
		t.Fatalf("r = %d, want t·w = 6", r)
	}
	sum := 0
	for _, v := range rows {
		if v > 3 {
			t.Fatalf("device row count %d exceeds w = 3", v)
		}
		sum += v
	}
	if sum != 16 {
		t.Fatalf("rows sum to %d, want m+r = 16", sum)
	}

	if _, _, err := UniformCollusionRows(0, 1, 1); err == nil {
		t.Error("m = 0 should be rejected")
	}
	// Because r = t·w, the allocation always spans at least two devices: the
	// total m + t·w strictly exceeds the per-device cap w.
	rows, _, err = UniformCollusionRows(1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("expected at least two devices, got %v", rows)
	}
}

func TestNewCollusionValidation(t *testing.T) {
	f := field.Prime{}
	// Valid: m=6, r=4, t=2, rows 2+2+2+2+2 = 10 = m+r; any 2 devices hold 4 ≤ r.
	if _, err := NewCollusion[uint64](f, 6, 4, 2, []int{2, 2, 2, 2, 2}); err != nil {
		t.Fatalf("valid construction rejected: %v", err)
	}
	// Capacity violation: two devices can pool 3+3 = 6 > r = 4.
	if _, err := NewCollusion[uint64](f, 6, 4, 2, []int{3, 3, 2, 2}); err == nil {
		t.Error("capacity violation should be rejected")
	}
	if _, err := NewCollusion[uint64](f, 0, 4, 2, []int{2, 2}); err == nil {
		t.Error("m = 0 should be rejected")
	}
	if _, err := NewCollusion[uint64](f, 6, 0, 1, []int{3, 3}); err == nil {
		t.Error("r = 0 should be rejected")
	}
	if _, err := NewCollusion[uint64](f, 6, 4, 0, []int{2, 2, 2, 2, 2}); err == nil {
		t.Error("t = 0 should be rejected")
	}
	if _, err := NewCollusion[uint64](f, 6, 4, 2, []int{2, 2, 2, 2}); err == nil {
		t.Error("row-count sum mismatch should be rejected")
	}
	if _, err := NewCollusion[uint64](f, 6, 4, 2, []int{0, 2, 2, 2, 2, 2}); err == nil {
		t.Error("zero-row device should be rejected")
	}
}

func TestNewCollusionSmallFieldNodeExhaustion(t *testing.T) {
	// GF(256) runs out of distinct Cauchy nodes when m + r > 256.
	f := field.GF256{}
	rows, r, err := UniformCollusionRows(250, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCollusion[byte](f, 250, r, 2, rows); err == nil {
		t.Fatal("expected node-exhaustion error over GF(256)")
	}
	// A small instance fits comfortably.
	rows, r, err = UniformCollusionRows(20, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCollusion[byte](f, 20, r, 2, rows); err != nil {
		t.Fatalf("small GF(256) instance rejected: %v", err)
	}
	// C takes m + r nodes, so the boundary is m + r = 256.
	for _, c := range []struct {
		m  int
		ok bool
	}{{236, true}, {237, false}} {
		rows, r, err := UniformCollusionRows(c.m, 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewCollusion[byte](f, c.m, r, 2, rows); (err == nil) != c.ok {
			t.Errorf("GF(256) m=%d r=%d: err = %v, want ok=%v", c.m, r, err, c.ok)
		}
	}
}

func TestCollusionVerifyAndRoundTrip(t *testing.T) {
	run := func(t *testing.T, name string, verify func() error, encodeDecode func() error) {
		t.Helper()
		if err := verify(); err != nil {
			t.Fatalf("%s: verify: %v", name, err)
		}
		if err := encodeDecode(); err != nil {
			t.Fatalf("%s: round trip: %v", name, err)
		}
	}

	t.Run("prime", func(t *testing.T) {
		f := field.Prime{}
		rng := testRNG()
		rows, r, err := UniformCollusionRows(12, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewCollusion[uint64](f, 12, r, 2, rows)
		if err != nil {
			t.Fatal(err)
		}
		run(t, "prime", s.Verify, func() error {
			a := matrix.Random(f, rng, 12, 5)
			x := matrix.RandomVec(f, rng, 5)
			enc, err := s.Encode(a, rng)
			if err != nil {
				return err
			}
			got, err := s.Decode(enc.ComputeAll(f, x))
			if err != nil {
				return err
			}
			if !matrix.VecEqual(f, got, matrix.MulVec(f, a, x)) {
				return errors.New("decode mismatch")
			}
			return nil
		})
	})

	t.Run("gf256", func(t *testing.T) {
		f := field.GF256{}
		rng := testRNG()
		rows, r, err := UniformCollusionRows(9, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewCollusion[byte](f, 9, r, 3, rows)
		if err != nil {
			t.Fatal(err)
		}
		run(t, "gf256", s.Verify, func() error {
			a := matrix.Random(f, rng, 9, 4)
			x := matrix.RandomVec(f, rng, 4)
			enc, err := s.Encode(a, rng)
			if err != nil {
				return err
			}
			got, err := s.Decode(enc.ComputeAll(f, x))
			if err != nil {
				return err
			}
			if !matrix.VecEqual(f, got, matrix.MulVec(f, a, x)) {
				return errors.New("decode mismatch")
			}
			return nil
		})
	})

	// Over floating point the decode has no pivots, only C·y[:r] and a
	// subtraction, so it stays within Real's tolerance up to r = m. Verify's
	// rank test is tolerance-limited over Real and is not run here.
	t.Run("real", func(t *testing.T) {
		f := field.Real{Tol: 1e-9}
		for _, w := range []int{2, 3, 8, 32} {
			rng := testRNG()
			rows, r, err := UniformCollusionRows(64, 2, w)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewCollusion[float64](f, 64, r, 2, rows)
			if err != nil {
				t.Fatalf("r=%d: %v", r, err)
			}
			a := matrix.Random(f, rng, 64, 16)
			x := matrix.RandomVec(f, rng, 16)
			enc, err := s.Encode(a, rng)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Decode(enc.ComputeAll(f, x))
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.VecEqual(f, got, matrix.MulVec(f, a, x)) {
				t.Fatalf("r=%d: decoded A·x outside the tolerance", r)
			}
		}
	})
}

// TestRealCollusionVerifyRefuses: over field.Real a t = 2 code's Cauchy
// minors are too ill-conditioned for the tolerance-based rank test, so
// Verify says it cannot certify the code instead of naming a secure
// coalition as leaking; the same shape over the exact fields verifies.
func TestRealCollusionVerifyRefuses(t *testing.T) {
	rows, r, err := UniformCollusionRows(64, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r != 4 {
		t.Fatalf("r = %d, want 4", r)
	}
	real, err := NewCollusion[float64](field.Real{Tol: 1e-9}, 64, r, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := real.Verify(); err == nil || errors.Is(err, ErrNotSecure) || !strings.Contains(err.Error(), "cannot certify") {
		t.Errorf("Real Verify = %v, want the rank test's refusal to certify", err)
	}
	prime, err := NewCollusion[uint64](field.Prime{}, 64, r, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := prime.Verify(); err != nil {
		t.Errorf("Prime Verify: %v", err)
	}
	gf, err := NewCollusion[uint8](field.GF256{}, 64, r, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := gf.Verify(); err != nil {
		t.Errorf("GF(256) Verify: %v", err)
	}
}

// TestStructuredSchemeFailsUnderCollusion demonstrates why the extension
// exists: pooling device 1 (pure random rows) with device 2 (data + random)
// of the Eq. (8) design immediately leaks rows of A, whereas the Cauchy
// design survives the same pooling.
func TestStructuredSchemeFailsUnderCollusion(t *testing.T) {
	f := field.Prime{}
	s, err := NewStructured(f, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := s.CoefficientMatrix()
	lambda := DataSubspace(f, 6, 3)

	from0, to0 := s.RowRange(0)
	from1, to1 := s.RowRange(1)
	pooled := matrix.VStack(matrix.RowSlice(b, from0, to0), matrix.RowSlice(b, from1, to1))
	if dim := matrix.SpanIntersectionDim(f, pooled, lambda); dim == 0 {
		t.Fatal("expected the Eq. (8) design to leak under 2-collusion")
	}

	rows, r, err := UniformCollusionRows(6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCollusion[uint64](f, 6, r, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Verify(); err != nil {
		t.Fatalf("Cauchy design should survive 2-collusion: %v", err)
	}
}

func TestCollusionRowRangePanics(t *testing.T) {
	f := field.Prime{}
	rows, r, err := UniformCollusionRows(6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCollusion[uint64](f, 6, r, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.RowRange(s.Devices())
}

func TestCollusionEncodeValidation(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	rows, r, err := UniformCollusionRows(6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCollusion[uint64](f, 6, r, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Encode(matrix.New[uint64](5, 3), rng); err == nil {
		t.Fatal("Encode should reject wrong-shaped data")
	}
}

// collusionEncodeMatchesDense checks every block Encode produces is == to
// the product of the device's rows of B with T = [A; R], the definition
// Encode's G·R-plus-A shortcut must reproduce.
func collusionEncodeMatchesDense[E comparable](t *testing.T, f field.Field[E]) {
	rng := testRNG()
	for _, c := range []struct{ m, l, t, w int }{{20, 7, 2, 5}, {13, 1, 3, 4}, {1, 3, 1, 1}, {30, 16, 2, 8}} {
		rows, r, err := UniformCollusionRows(c.m, c.t, c.w)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewCollusion(f, c.m, r, c.t, rows)
		if err != nil {
			t.Fatal(err)
		}
		a := matrix.Random(f, rng, c.m, c.l)
		enc, err := s.Encode(a, rng)
		if err != nil {
			t.Fatal(err)
		}
		tm := matrix.VStack(a, enc.Random)
		for j := range rows {
			want := matrix.Mul(f, s.DeviceCoefficients(j), tm)
			if !matrix.Equal(f, enc.Blocks[j], want) {
				t.Fatalf("%s m=%d l=%d t=%d w=%d: block %d differs from B_j·T", f.Name(), c.m, c.l, c.t, c.w, j)
			}
		}
	}
}

func TestCollusionEncodeMatchesDenseProduct(t *testing.T) {
	collusionEncodeMatchesDense[uint64](t, field.Prime{})
	collusionEncodeMatchesDense[byte](t, field.GF256{})
}

func TestSumOfLargest(t *testing.T) {
	cases := []struct {
		rows []int
		t    int
		want int
	}{
		{[]int{1, 5, 3}, 1, 5},
		{[]int{1, 5, 3}, 2, 8},
		{[]int{1, 5, 3}, 7, 9},
		{[]int{4}, 1, 4},
	}
	for _, tc := range cases {
		if got := sumOfLargest(tc.rows, tc.t); got != tc.want {
			t.Errorf("sumOfLargest(%v, %d) = %d, want %d", tc.rows, tc.t, got, tc.want)
		}
	}
}

// TestCauchyMatchesPerEntryInverse: cauchy inverts each distinct node
// difference once and reuses it; C must be exactly the matrix of per-entry
// inverses 1/(i − (m+j)), in every field, up to GF(256)'s largest m + r.
func TestCauchyMatchesPerEntryInverse(t *testing.T) {
	shapes := [][2]int{{12, 5}, {40, 7}}
	cauchyMatchesInverse[uint64](t, field.Prime{}, shapes)
	cauchyMatchesInverse[byte](t, field.GF256{}, append(shapes, [2]int{236, 20}))
	cauchyMatchesInverse[float64](t, field.Real{}, shapes)
}

func cauchyMatchesInverse[E comparable](t *testing.T, f field.Field[E], shapes [][2]int) {
	for _, s := range shapes {
		m, r := s[0], s[1]
		c, err := cauchy(f, m, r)
		if err != nil {
			t.Fatalf("%s m=%d r=%d: %v", f.Name(), m, r, err)
		}
		for i := 0; i < m; i++ {
			for j := 0; j < r; j++ {
				want, err := f.Inv(f.Sub(f.FromInt64(int64(i)), f.FromInt64(int64(m+j))))
				if err != nil {
					t.Fatal(err)
				}
				if got := c.At(i, j); got != want {
					t.Fatalf("%s m=%d r=%d: C[%d][%d] = %v, per-entry inverse %v", f.Name(), m, r, i, j, got, want)
				}
			}
		}
	}
}
