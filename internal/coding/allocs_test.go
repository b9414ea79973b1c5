package coding

import (
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/testenv"
)

// TestDecodeAllocs: a warm DecodeInto allocates nothing for either kind of
// C, at one column (a vector query) or four — the identity stack subtracts
// r-row chunks of Y, a Cauchy C is one MulInto into dst, over a stack header
// on Y's random rows, and one in-place subtraction. The shape is
// BenchmarkCollusionDecode's m = 96, r = 32, below the parallel threshold.
func TestDecodeAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	decodeAllocs[uint64](t, field.Prime{})
	decodeAllocs[byte](t, field.GF256{})
}

func decodeAllocs[E comparable](t *testing.T, f field.Field[E]) {
	const m, l = 96, 8
	rows, r, err := UniformCollusionRows(m, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cauchy, err := NewCollusion(f, m, r, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	eq8, err := NewStructured(f, m, r)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(41, 43))
	a := matrix.Random(f, rng, m, l)
	for _, c := range []*Systematic[E]{eq8, cauchy} {
		enc, err := c.Encode(a, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 4} {
			x := matrix.Random(f, rng, l, n)
			y, dst := enc.ComputeAllBatch(f, x), matrix.New[E](m, n)
			if got := testing.AllocsPerRun(100, func() { _ = c.DecodeInto(dst, y) }); got != 0 {
				t.Errorf("%s %s n=%d: warm DecodeInto = %v allocs, want 0", f.Name(), c.Name(), n, got)
			}
			if !matrix.Equal(f, dst, matrix.Mul(f, a, x)) {
				t.Fatalf("%s %s n=%d: DecodeInto != A·X", f.Name(), c.Name(), n)
			}
		}
	}
}
