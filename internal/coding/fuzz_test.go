package coding

import (
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// FuzzEncodeDecodeGF256 builds arbitrary small schemes over GF(256),
// verifies Theorem 3 end to end, and round-trips a multiplication.
func FuzzEncodeDecodeGF256(fz *testing.F) {
	fz.Add(uint8(4), uint8(2), uint8(3), uint64(1))
	fz.Add(uint8(1), uint8(1), uint8(1), uint64(7))
	fz.Add(uint8(16), uint8(16), uint8(8), uint64(42))
	fz.Fuzz(func(t *testing.T, mRaw, rRaw, lRaw uint8, seed uint64) {
		f := field.GF256{}
		m := 1 + int(mRaw)%16
		r := 1 + int(rRaw)%m
		l := 1 + int(lRaw)%8
		s, err := NewStructured(f, m, r)
		if err != nil {
			t.Fatalf("NewStructured(%d, %d): %v", m, r, err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("Theorem 3 violated at m=%d r=%d: %v", m, r, err)
		}
		rng := rand.New(rand.NewPCG(seed, 0xf022))
		a := matrix.Random[byte](f, rng, m, l)
		x := matrix.RandomVec[byte](f, rng, l)
		enc, err := s.Encode(a, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Decode(enc.ComputeAll(f, x))
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.MulVec[byte](f, a, x)
		if !matrix.VecEqual[byte](f, got, want) {
			t.Fatalf("round trip failed at m=%d r=%d l=%d", m, r, l)
		}
	})
}

// FuzzDecodeNeverPanics throws arbitrary intermediate vectors at the
// decoder: wrong lengths must error, right lengths must decode to
// *something* without panicking (garbage in, garbage out — but never a
// crash).
func FuzzDecodeNeverPanics(fz *testing.F) {
	fz.Add(uint8(4), uint8(2), []byte{1, 2, 3, 4, 5, 6})
	fz.Add(uint8(3), uint8(1), []byte{})
	fz.Fuzz(func(t *testing.T, mRaw, rRaw uint8, yBytes []byte) {
		f := field.GF256{}
		m := 1 + int(mRaw)%16
		r := 1 + int(rRaw)%m
		s, err := NewStructured(f, m, r)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Decode(yBytes)
		if len(yBytes) != m+r {
			if err == nil {
				t.Fatalf("Decode accepted %d values for m+r=%d", len(yBytes), m+r)
			}
			return
		}
		if err != nil {
			t.Fatalf("Decode rejected a correctly sized vector: %v", err)
		}
		if len(out) != m {
			t.Fatalf("Decode returned %d values, want m=%d", len(out), m)
		}
	})
}
