package coding

import (
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

func TestNewPolyMaskValidation(t *testing.T) {
	f := field.Prime{}
	if _, err := NewPolyMask[uint64](f, 0, 1, 3); err == nil {
		t.Error("m = 0 should be rejected")
	}
	if _, err := NewPolyMask[uint64](f, 5, 0, 3); err == nil {
		t.Error("t = 0 should be rejected")
	}
	if _, err := NewPolyMask[uint64](f, 5, 3, 3); err == nil {
		t.Error("n < t+1 should be rejected")
	}
	if _, err := NewPolyMask[uint64](f, 5, 2, 3); err != nil {
		t.Errorf("valid construction rejected: %v", err)
	}
	// GF(256) cannot supply 300 distinct non-zero points.
	if _, err := NewPolyMask[byte](field.GF256{}, 5, 2, 300); err == nil {
		t.Error("point exhaustion over GF(256) should be rejected")
	}
}

func TestPolyMaskRoundTrip(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	const m, l, tDeg, n = 8, 5, 2, 6
	s, err := NewPolyMask[uint64](f, m, tDeg, n)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, m, l)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVec[uint64](f, rng, l)
	want := matrix.MulVec[uint64](f, a, x)

	// Any t+1 subset decodes; try several.
	subsets := [][]int{
		{0, 1, 2},
		{3, 4, 5},
		{0, 2, 4},
		{5, 1, 3}, // order must not matter
	}
	for _, devices := range subsets {
		results := make([][]uint64, len(devices))
		for i, j := range devices {
			results[i] = enc.ComputeDevice(j, x)
		}
		got, err := s.Decode(devices, results)
		if err != nil {
			t.Fatalf("subset %v: %v", devices, err)
		}
		if !matrix.VecEqual[uint64](f, got, want) {
			t.Fatalf("subset %v decoded the wrong result", devices)
		}
	}

	// Extra responses beyond t+1 are tolerated (stragglers that showed up).
	all := []int{0, 1, 2, 3, 4, 5}
	results := make([][]uint64, n)
	for j := range results {
		results[j] = enc.ComputeDevice(j, x)
	}
	got, err := s.Decode(all, results)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.VecEqual[uint64](f, got, want) {
		t.Fatal("full-fleet decode failed")
	}
}

func TestPolyMaskGF256(t *testing.T) {
	f := field.GF256{}
	rng := testRNG()
	s, err := NewPolyMask[byte](f, 5, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[byte](f, rng, 5, 4)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVec[byte](f, rng, 4)
	devices := []int{1, 3, 4}
	results := make([][]byte, len(devices))
	for i, j := range devices {
		results[i] = enc.ComputeDevice(j, x)
	}
	got, err := s.Decode(devices, results)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.VecEqual[byte](f, got, matrix.MulVec[byte](f, a, x)) {
		t.Fatal("GF(256) decode failed")
	}
}

func TestPolyMaskDecodeValidation(t *testing.T) {
	f := field.Prime{}
	s, err := NewPolyMask[uint64](f, 4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := make([][]uint64, 3)
	for i := range good {
		good[i] = make([]uint64, 4)
	}
	if _, err := s.Decode([]int{0, 1}, good[:2]); err == nil {
		t.Error("too few responses should be rejected")
	}
	if _, err := s.Decode([]int{0, 1, 1}, good); err == nil {
		t.Error("duplicate devices should be rejected")
	}
	if _, err := s.Decode([]int{0, 1, 9}, good); err == nil {
		t.Error("out-of-range device should be rejected")
	}
	if _, err := s.Decode([]int{0, 1}, good); err == nil {
		t.Error("index/result length mismatch should be rejected")
	}
	bad := [][]uint64{make([]uint64, 4), make([]uint64, 4), make([]uint64, 3)}
	if _, err := s.Decode([]int{0, 1, 2}, bad); err == nil {
		t.Error("short result vector should be rejected")
	}
}

func TestPolyMaskEncodeValidation(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	s, err := NewPolyMask[uint64](f, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Encode(matrix.New[uint64](3, 2), rng); err == nil {
		t.Error("wrong row count should be rejected")
	}
	if _, err := s.Encode(matrix.New[uint64](4, 0), rng); err == nil {
		t.Error("zero columns should be rejected")
	}
}

func TestPolyMaskSecurity(t *testing.T) {
	f := field.Prime{}
	for _, cfg := range []struct{ m, t, n int }{{3, 1, 4}, {4, 2, 5}, {2, 3, 6}} {
		s, err := NewPolyMask[uint64](f, cfg.m, cfg.t, cfg.n)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("m=%d t=%d n=%d: %v", cfg.m, cfg.t, cfg.n, err)
		}
	}
}

// TestPolyMaskCoalitionAboveThresholdLeaks shows the threshold is tight:
// t+1 pooled devices span the data subspace (they can decode outright).
func TestPolyMaskCoalitionAboveThresholdLeaks(t *testing.T) {
	f := field.Prime{}
	s, err := NewPolyMask[uint64](f, 3, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Build the coefficient-space blocks for devices 0 and 1 (t+1 = 2).
	dim := (s.t + 1) * s.m
	block := func(j int) *matrix.Dense[uint64] {
		b := matrix.New[uint64](s.m, dim)
		power := f.One()
		for i := 0; i <= s.t; i++ {
			for p := 0; p < s.m; p++ {
				b.Set(p, i*s.m+p, power)
			}
			power = f.Mul(power, s.alphas[j])
		}
		return b
	}
	lambda := matrix.New[uint64](s.m, dim)
	for p := 0; p < s.m; p++ {
		lambda.Set(p, p, 1)
	}
	pooled := matrix.VStack(block(0), block(1))
	if d := matrix.SpanIntersectionDim[uint64](f, pooled, lambda); d != s.m {
		t.Fatalf("t+1 coalition should span the whole data subspace, got dim %d", d)
	}
}

// TestPolyMaskResourceContrast pins the cost story: polynomial masking
// provisions n·m rows where the MCSCEC design provisions m+r.
func TestPolyMaskResourceContrast(t *testing.T) {
	f := field.Prime{}
	const m, tDeg, n = 100, 1, 5
	pm, err := NewPolyMask[uint64](f, m, tDeg, n)
	if err != nil {
		t.Fatal(err)
	}
	if pm.TotalRows() != n*m {
		t.Fatalf("total rows = %d, want n·m = %d", pm.TotalRows(), n*m)
	}
	sc, err := NewStructured(f, m, 25) // r = 25 → 5 devices of 25 rows
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for j := 0; j < sc.Devices(); j++ {
		total += sc.RowsOn(j)
	}
	if total >= pm.TotalRows() {
		t.Fatalf("MCSCEC total rows %d should undercut polynomial masking's %d", total, pm.TotalRows())
	}
}
