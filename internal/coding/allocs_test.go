package coding

import (
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/testenv"
)

// TestDecodeAllocs: a warm DecodeInto allocates nothing for either kind of
// C — the identity stack subtracts chunks of y, a Cauchy C is one MulVecInto
// into dst and one in-place subtraction — and DecodeBatchInto allocates no
// more than the MulInto it runs (nothing at all for the identity stack).
// The shape is BenchmarkCollusionDecode's m = 96, r = 32, below the parallel
// threshold.
func TestDecodeAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	decodeAllocs[uint64](t, field.Prime{})
	decodeAllocs[byte](t, field.GF256{})
}

func decodeAllocs[E comparable](t *testing.T, f field.Field[E]) {
	const m, l, n = 96, 8, 4
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
	x, xm := matrix.RandomVec(f, rng, l), matrix.Random(f, rng, l, n)
	for _, c := range []*Systematic[E]{eq8, cauchy} {
		enc, err := c.Encode(a, rng)
		if err != nil {
			t.Fatal(err)
		}
		y, ym := enc.ComputeAll(f, x), enc.ComputeAllBatch(f, xm)
		dst, dstm := make([]E, m), matrix.New[E](m, n)
		if got := testing.AllocsPerRun(100, func() { _ = c.DecodeInto(dst, y) }); got != 0 {
			t.Errorf("%s %s: warm DecodeInto = %v allocs, want 0", f.Name(), c.Name(), got)
		}
		if !matrix.VecEqual(f, dst, matrix.MulVec(f, a, x)) {
			t.Fatalf("%s %s: DecodeInto != A·x", f.Name(), c.Name())
		}
		budget := 0.0
		if c.c != nil {
			budget = testing.AllocsPerRun(100, func() {
				matrix.MulInto(f, c.c, matrix.FromSlice(r, n, ym.RowsView(0, r)), dstm)
			})
		}
		if got := testing.AllocsPerRun(100, func() { _ = c.DecodeBatchInto(dstm, ym) }); got > budget {
			t.Errorf("%s %s: warm DecodeBatchInto = %v allocs, want <= %v (its MulInto)", f.Name(), c.Name(), got, budget)
		}
		if !matrix.Equal(f, dstm, matrix.Mul(f, a, xm)) {
			t.Fatalf("%s %s: DecodeBatchInto != A·X", f.Name(), c.Name())
		}
	}
}
