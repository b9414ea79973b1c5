package coding

import (
	"errors"
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(21, 34)) }

func TestNewValidation(t *testing.T) {
	cases := []struct {
		m, r int
		ok   bool
	}{
		{1, 1, true},
		{10, 1, true},
		{10, 10, true},
		{10, 11, false},
		{10, 0, false},
		{0, 1, false},
		{-3, 1, false},
	}
	for _, tc := range cases {
		_, err := NewStructured(field.Prime{}, tc.m, tc.r)
		if (err == nil) != tc.ok {
			t.Errorf("NewStructured(%d, %d) err = %v, want ok=%v", tc.m, tc.r, err, tc.ok)
		}
	}
}

func TestRowRangesMatchLemma2Shape(t *testing.T) {
	for m := 1; m <= 25; m++ {
		for r := 1; r <= m; r++ {
			s, err := NewStructured(field.Prime{}, m, r)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for j := 0; j < s.Devices(); j++ {
				rows := s.RowsOn(j)
				if rows < 1 || rows > r {
					t.Fatalf("m=%d r=%d: device %d holds %d rows, want [1, %d]", m, r, j, rows, r)
				}
				if j < s.Devices()-1 && rows != r {
					t.Fatalf("m=%d r=%d: non-final device %d holds %d rows, want r", m, r, j, rows)
				}
				total += rows
			}
			if total != m+r {
				t.Fatalf("m=%d r=%d: devices hold %d rows, want m+r=%d", m, r, total, m+r)
			}
			if want := (m + 2*r - 1) / r; s.Devices() != want {
				t.Fatalf("m=%d r=%d: i=%d, want ceil((m+r)/r)=%d", m, r, s.Devices(), want)
			}
		}
	}
}

func TestRowRangePanics(t *testing.T) {
	s, _ := NewStructured(field.Prime{}, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range device")
		}
	}()
	s.RowRange(s.Devices())
}

func TestCoefficientMatrixKnownExample(t *testing.T) {
	// m=4, r=2 → i=3. Eq. (8):
	// B = [ 0 0 0 0 | 1 0 ]   device 1 (rows 0-1)
	//     [ 0 0 0 0 | 0 1 ]
	//     [ 1 0 0 0 | 1 0 ]   device 2 (rows 2-3)
	//     [ 0 1 0 0 | 0 1 ]
	//     [ 0 0 1 0 | 1 0 ]   device 3 (rows 4-5)
	//     [ 0 0 0 1 | 0 1 ]
	f := field.Prime{}
	s, err := NewStructured(f, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.FromRows([][]uint64{
		{0, 0, 0, 0, 1, 0},
		{0, 0, 0, 0, 0, 1},
		{1, 0, 0, 0, 1, 0},
		{0, 1, 0, 0, 0, 1},
		{0, 0, 1, 0, 1, 0},
		{0, 0, 0, 1, 0, 1},
	})
	got := s.CoefficientMatrix()
	if !matrix.Equal[uint64](f, got, want) {
		t.Fatalf("B =\n%v\nwant\n%v", got, want)
	}
}

func TestDeviceMatrixSlicesCoefficientMatrix(t *testing.T) {
	f := field.Prime{}
	for _, dims := range [][2]int{{4, 2}, {7, 3}, {5, 5}, {1, 1}, {9, 4}} {
		s, err := NewStructured(f, dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		b := s.CoefficientMatrix()
		for j := 0; j < s.Devices(); j++ {
			from, to := s.RowRange(j)
			want := matrix.RowSlice(b, from, to)
			if got := s.DeviceCoefficients(j); !matrix.Equal[uint64](f, got, want) {
				t.Fatalf("m=%d r=%d device %d: DeviceCoefficients != B slice", dims[0], dims[1], j)
			}
		}
	}
}

// TestTheorem3 verifies availability + security of the Eq. (8) construction
// for every (m, r) with m ≤ 18, over all three fields.
func TestTheorem3(t *testing.T) {
	for m := 1; m <= 18; m++ {
		for r := 1; r <= m; r++ {
			for name, verify := range map[string]func() error{
				"prime": verifyStructured[uint64](field.Prime{}, m, r),
				"gf256": verifyStructured[byte](field.GF256{}, m, r),
				"real":  verifyStructured[float64](field.Real{}, m, r),
			} {
				if err := verify(); err != nil {
					t.Fatalf("%s m=%d r=%d: %v", name, m, r, err)
				}
			}
		}
	}
}

// verifyStructured returns the Verify of the Eq. (8) code over f, or the
// construction error.
func verifyStructured[E comparable](f field.Field[E], m, r int) func() error {
	s, err := NewStructured(f, m, r)
	if err != nil {
		return func() error { return err }
	}
	return s.Verify
}

func roundTrip[E comparable](t *testing.T, f field.Field[E], m, l, r int) {
	t.Helper()
	rng := testRNG()
	s, err := NewStructured(f, m, r)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(f, rng, m, l)
	x := matrix.RandomVec(f, rng, l)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	y := enc.ComputeAll(f, x)
	got, err := s.Decode(y)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.MulVec(f, a, x)
	if !matrix.VecEqual(f, got, want) {
		t.Fatalf("decode(encode) != Ax for %s m=%d l=%d r=%d", f.Name(), m, l, r)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	dims := []struct{ m, l, r int }{
		{1, 1, 1}, {4, 3, 2}, {10, 8, 3}, {10, 8, 10}, {17, 5, 4}, {32, 16, 7},
	}
	for _, d := range dims {
		roundTrip[uint64](t, field.Prime{}, d.m, d.l, d.r)
		roundTrip[byte](t, field.GF256{}, d.m, d.l, d.r)
		roundTrip[float64](t, field.Real{Tol: 1e-6}, d.m, d.l, d.r)
	}
}

// TestStructuredEncodeMatchesMatrixProduct confirms the O((m+r)l) structured
// encoder produces exactly B_j·T for every device.
func TestStructuredEncodeMatchesMatrixProduct(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	for _, d := range []struct{ m, l, r int }{{4, 3, 2}, {9, 5, 4}, {6, 2, 6}} {
		s, err := NewStructured(f, d.m, d.r)
		if err != nil {
			t.Fatal(err)
		}
		a := matrix.Random(f, rng, d.m, d.l)
		random := matrix.Random(f, rng, d.r, d.l)
		enc, err := s.EncodeWithRandom(a, random)
		if err != nil {
			t.Fatal(err)
		}
		tm := matrix.VStack(a, random)
		for j := 0; j < s.Devices(); j++ {
			want := matrix.Mul(f, s.DeviceCoefficients(j), tm)
			if !matrix.Equal[uint64](f, enc.Blocks[j], want) {
				t.Fatalf("m=%d r=%d device %d: structured encode != B_j·T", d.m, d.r, j)
			}
		}
	}
}

// TestDecodeMatchesGaussian cross-checks the m-subtraction decoder against
// full Gaussian elimination on B.
func TestDecodeMatchesGaussian(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	s, err := NewStructured(f, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(f, rng, 9, 6)
	x := matrix.RandomVec(f, rng, 6)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	y := enc.ComputeAll(f, x)

	fast, err := s.Decode(y)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := DecodeGaussian(f, s.CoefficientMatrix(), s.M(), y)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.VecEqual(f, fast, slow) {
		t.Fatal("structured decode != Gaussian decode")
	}
}

func TestEncodeValidation(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	s, _ := NewStructured(f, 4, 2)
	wrongRows := matrix.New[uint64](3, 5)
	if _, err := s.Encode(wrongRows, rng); err == nil {
		t.Error("Encode should reject a data matrix with the wrong row count")
	}
	if _, err := s.Encode(matrix.New[uint64](4, 0), rng); err == nil {
		t.Error("Encode should reject a data matrix with no columns")
	}
	a := matrix.Random(f, rng, 4, 5)
	badRandom := matrix.Random(f, rng, 1, 5)
	if _, err := s.EncodeWithRandom(a, badRandom); err == nil {
		t.Error("EncodeWithRandom should reject a random block with the wrong shape")
	}
}

func TestDecodeValidation(t *testing.T) {
	f := field.Prime{}
	s, _ := NewStructured(f, 4, 2)
	if _, err := s.Decode(make([]uint64, 5)); err == nil {
		t.Error("Decode should reject a short intermediate vector")
	}
	b := s.CoefficientMatrix()
	if _, err := DecodeGaussian(f, b, 0, make([]uint64, 6)); err == nil {
		t.Error("DecodeGaussian should reject m = 0")
	}
	if _, err := DecodeGaussian(f, b, 4, make([]uint64, 3)); err == nil {
		t.Error("DecodeGaussian should reject a short intermediate vector")
	}
	if _, err := DecodeGaussian(f, matrix.New[uint64](2, 3), 1, make([]uint64, 2)); err == nil {
		t.Error("DecodeGaussian should reject a non-square B")
	}
}

func TestCheckAvailabilityRejectsSingular(t *testing.T) {
	f := field.Prime{}
	singular := matrix.FromRows([][]uint64{{1, 2}, {2, 4}})
	if err := CheckAvailability[uint64](f, singular); !errors.Is(err, ErrNotAvailable) {
		t.Fatalf("err = %v, want ErrNotAvailable", err)
	}
	if err := CheckAvailability[uint64](f, matrix.New[uint64](2, 3)); !errors.Is(err, ErrNotAvailable) {
		t.Fatalf("non-square err = %v, want ErrNotAvailable", err)
	}
	if err := CheckAvailability[uint64](f, matrix.Identity[uint64](f, 3)); err != nil {
		t.Fatalf("identity should be available: %v", err)
	}
}

// TestCheckSecurityFlagsInsecureDesigns feeds deliberately broken coefficient
// matrices to the verifier.
func TestCheckSecurityFlagsInsecureDesigns(t *testing.T) {
	f := field.Prime{}

	// Plain replication without random rows: B = E_m padded with a random
	// column block of zeros. Every device trivially leaks its rows of A.
	m, r := 4, 2
	naked := matrix.New[uint64](m+r, m+r)
	for p := 0; p < m+r; p++ {
		naked.Set(p, p%m, 1)
	}
	if err := CheckSecurity[uint64](f, naked, m, []int{2, 2, 2}); !errors.Is(err, ErrNotSecure) {
		t.Fatalf("replication err = %v, want ErrNotSecure", err)
	}

	// A device holding both A_p + R_q and R_q: their difference is A_p.
	s, _ := NewStructured(f, 4, 2)
	b := s.CoefficientMatrix()
	// Rows 0..1 are the pure-random rows; row 2 is A_1 + R_1. Give one
	// device rows {0, 2} by regrouping counts: device 0 takes 3 rows.
	if err := CheckSecurity[uint64](f, b, 4, []int{3, 2, 1}); !errors.Is(err, ErrNotSecure) {
		t.Fatalf("regrouped err = %v, want ErrNotSecure", err)
	}

	// Row counts that do not cover B.
	if err := CheckSecurity[uint64](f, b, 4, []int{2, 2}); err == nil {
		t.Error("CheckSecurity should reject row counts that do not sum to B's rows")
	}
	if err := CheckSecurity[uint64](f, b, 4, []int{-1, 7}); err == nil {
		t.Error("CheckSecurity should reject negative row counts")
	}
	if err := CheckSecurity[uint64](f, b, 7, []int{3, 3}); err == nil {
		t.Error("CheckSecurity should reject m exceeding B's columns")
	}

	// Devices with zero rows are skipped, matching unselected edge devices.
	if err := CheckSecurity[uint64](f, b, 4, []int{2, 0, 2, 2, 0}); err != nil {
		t.Errorf("zero-row devices should be ignored: %v", err)
	}
}

// TestSecurityIsDecodeDual sanity-checks the whole point of the design: the
// user (holding all m+r values) decodes exactly, while every single device
// (holding at most r values) has zero information — formalized as the span
// condition checked by Theorem 3's verifier, and demonstrated here by the
// attack: no linear combination of one device's coded rows equals any
// standard basis vector of the data subspace.
func TestSecurityIsDecodeDual(t *testing.T) {
	f := field.GF256{}
	s, err := NewStructured(f, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	lambda := DataSubspace(f, 6, 3)
	for j := 0; j < s.Devices(); j++ {
		bj := s.DeviceCoefficients(j)
		for p := 0; p < 6; p++ {
			target := matrix.RowSlice(lambda, p, p+1)
			if matrix.SpanIntersectionDim(f, bj, target) != 0 {
				t.Fatalf("device %d can synthesize data row %d", j, p)
			}
		}
	}
}
