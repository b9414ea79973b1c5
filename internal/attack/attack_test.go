package attack

import (
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(5, 8)) }

func TestAuditSchemeFindsNoLeaks(t *testing.T) {
	f := field.Prime{}
	for m := 1; m <= 15; m++ {
		for r := 1; r <= m; r++ {
			code, err := coding.NewStructured(f, m, r)
			if err != nil {
				t.Fatal(err)
			}
			for j := range code.Devices() {
				if leak := Leakage(f, code.DeviceCoefficients(j), m); leak != 0 {
					t.Fatalf("m=%d r=%d: device %d leaks %d dimensions", m, r, j, leak)
				}
			}
		}
	}
}

func TestLeakageOnNakedReplication(t *testing.T) {
	// A device storing a raw data row has coefficient rows inside λ̄ itself.
	f := field.Prime{}
	m, r := 3, 2
	bj := matrix.New[uint64](1, m+r)
	bj.Set(0, 1, 1) // the device holds A_2 verbatim
	if got := Leakage(f, bj, m); got != 1 {
		t.Fatalf("Leakage = %d, want 1", got)
	}
}

func TestExploitAgainstBrokenScheme(t *testing.T) {
	// Device holds both A_0 + R_0 and R_0: subtracting recovers A_0.
	f := field.Prime{}
	m, r := 2, 1
	bj := matrix.FromRows([][]uint64{
		{1, 0, 1}, // A_0 + R_0
		{0, 0, 1}, // R_0
	})
	alpha, combo, ok := Exploit(f, bj, m)
	if !ok {
		t.Fatal("Exploit should succeed against the broken grouping")
	}

	// Replay the exploit on real data to confirm the breach.
	rng := testRNG()
	a := matrix.Random(f, rng, m, 4)
	random := matrix.Random(f, rng, r, 4)
	tm := matrix.VStack(a, random)
	codedBlock := matrix.Mul(f, bj, tm)
	if err := VerifyExploit(f, codedBlock, a, alpha, combo); err != nil {
		t.Fatalf("exploit replay: %v", err)
	}

	// The recovered combination must involve A non-trivially.
	nonzero := false
	for _, v := range combo {
		if !f.IsZero(v) {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("exploit returned the zero combination")
	}
}

func TestExploitFailsAgainstSoundScheme(t *testing.T) {
	f := field.Prime{}
	s, err := coding.NewStructured(f, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < s.Devices(); j++ {
		if _, _, ok := Exploit(f, s.DeviceCoefficients(j), s.M()); ok {
			t.Fatalf("device %d exploited despite Theorem 3", j)
		}
	}
}

func TestExploitEmptyDevice(t *testing.T) {
	f := field.Prime{}
	if _, _, ok := Exploit(f, matrix.New[uint64](0, 5), 3); ok {
		t.Fatal("an unselected device cannot leak")
	}
}

func TestVerifyExploitRejectsBogusClaims(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	a := matrix.Random(f, rng, 2, 3)
	coded := matrix.Random(f, rng, 2, 3)
	if err := VerifyExploit(f, coded, a, []uint64{1}, []uint64{1, 0}); err == nil {
		t.Error("length mismatch should be rejected")
	}
	if err := VerifyExploit(f, coded, a, []uint64{1, 0}, []uint64{1}); err == nil {
		t.Error("data weight length mismatch should be rejected")
	}
	if err := VerifyExploit(f, coded, a, []uint64{1, 0}, []uint64{1, 0}); err == nil {
		t.Error("a random 'exploit' should not verify")
	}
}

func TestExhaustiveITSSoundScheme(t *testing.T) {
	f := field.GF256{}
	s, err := coding.NewStructured(f, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := s.CoefficientMatrix()
	rows := []int{1, 1}
	if err := ExhaustiveITS(b, 1, rows); err != nil {
		t.Fatalf("m=1 r=1: %v", err)
	}
}

func TestExhaustiveITSSoundSchemeWide(t *testing.T) {
	if testing.Short() {
		t.Skip("16.7M-case enumeration")
	}
	f := field.GF256{}
	s, err := coding.NewStructured(f, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := s.CoefficientMatrix()
	if err := ExhaustiveITS(b, 2, []int{1, 1, 1}); err != nil {
		t.Fatalf("m=2 r=1: %v", err)
	}
}

func TestExhaustiveITSDetectsLeak(t *testing.T) {
	// Device 0 stores A_0 in the clear; its observation is A-dependent.
	b := matrix.FromRows([][]byte{
		{1, 0}, // A_0 verbatim
		{0, 1}, // R_0
	})
	if err := ExhaustiveITS(b, 1, []int{1, 1}); err == nil {
		t.Fatal("expected the exhaustive check to flag the plaintext row")
	}
}

func TestExhaustiveITSGuards(t *testing.T) {
	b := matrix.New[byte](4, 4)
	if err := ExhaustiveITS(b, 5, []int{2, 2}); err == nil {
		t.Error("m exceeding columns should be rejected")
	}
	if err := ExhaustiveITS(b, 2, []int{2, 1}); err == nil {
		t.Error("row-count mismatch should be rejected")
	}
	if err := ExhaustiveITS(b, 2, []int{4, 0}); err == nil {
		t.Error("more than 3 rows per device should be rejected")
	}
	big := matrix.New[byte](8, 8)
	if err := ExhaustiveITS(big, 4, []int{2, 2, 2, 2}); err == nil {
		t.Error("over-budget enumeration should be rejected")
	}
}

func TestLeakagePanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Leakage(field.Prime{}, matrix.New[uint64](1, 2), 5)
}
