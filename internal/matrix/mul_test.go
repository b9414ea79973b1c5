package matrix

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/testenv"
)

// mulIntoDirty checks that MulInto over an out full of stale values — a
// recycled reply slab — gives exactly the per-element reference product,
// serially and sharded, for one field.
func mulIntoDirty[E comparable](t *testing.T, f field.Field[E]) {
	rng := rand.New(rand.NewPCG(61, 67))
	for _, shape := range []struct{ r, k, c int }{{1, 1, 1}, {14, 64, 16}, {9, 70, 3}, {5, 0, 4}} {
		a := Random(f, rng, shape.r, shape.k)
		b := Random(f, rng, shape.k, shape.c)
		want := refMul(f, a, b)
		for _, mode := range serialAndSharded {
			SetParallelThreshold(mode.threshold)
			out := Random(f, rng, shape.r, shape.c)
			MulInto(f, a, b, out)
			checkSame(t, fmt.Sprintf("%s MulInto %dx%dx%d %s", f.Name(), shape.r, shape.k, shape.c, mode.name), want.data, out.data)
		}
	}
}

func TestMulIntoOverwritesOut(t *testing.T) {
	restoreKernelConfig(t)
	mulIntoDirty[uint64](t, field.Prime{})
	mulIntoDirty[byte](t, field.GF256{})
	mulIntoDirty[float64](t, field.Real{})
}

func TestMulIntoShapePanics(t *testing.T) {
	a, b := New[uint64](2, 3), New[uint64](3, 4)
	for _, out := range []*Dense[uint64]{New[uint64](2, 3), New[uint64](3, 4), New[uint64](4, 2)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MulInto into a %dx%d out of a 2x4 product did not panic", out.Rows(), out.Cols())
				}
			}()
			MulInto[uint64](field.Prime{}, a, b, out)
		}()
	}
}

// TestMulIntoAllocs: a warm F_p MulInto — a device's batch compute on a
// fleet_small shape — allocates nothing: the transpose of B comes from the
// pool and the result goes into the caller's matrix.
func TestMulIntoAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	restoreKernelConfig(t)
	SetParallelThreshold(DefaultParallelThreshold)
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(71, 73))
	a, b := Random(f, rng, 14, 64), Random(f, rng, 64, 16)
	out := New[uint64](14, 16)
	if got := testing.AllocsPerRun(100, func() { MulInto(f, a, b, out) }); got != 0 {
		t.Fatalf("warm MulInto 14x64·64x16 = %v allocs, want 0", got)
	}
}

// FuzzPrimeMul checks Mul's F_p kernel on small random shapes — inner
// dimensions across DotVec's 64-element block — with entries drawn from 0,
// p−1 and uniform residues: serial and sharded must each be == to the
// per-element reference.
func FuzzPrimeMul(fz *testing.F) {
	worst := bytes.Repeat([]byte{1}, 2*8*130)
	for _, k := range []uint8{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 130} {
		fz.Add(uint8(3), k, uint8(5), uint64(k), worst)
	}
	fz.Add(uint8(8), uint8(100), uint8(8), uint64(7), []byte{0, 1, 2, 3, 0, 0, 1, 1})
	fz.Fuzz(func(t *testing.T, rows, inner, cols uint8, seed uint64, special []byte) {
		restoreKernelConfig(t)
		f := field.Prime{}
		m, k, n := int(rows%9), int(inner%131), int(cols%9)
		rng := rand.New(rand.NewPCG(seed, 79))
		// special[i] picks entry i of a, then of b: 0 → 0, 1 → p−1, other
		// values (and entries past the end) → a uniform residue.
		fill := func(d []uint64, special []byte) {
			for i := range d {
				sel := byte(2)
				if i < len(special) {
					sel = special[i] % 4
				}
				switch sel {
				case 0:
					d[i] = 0
				case 1:
					d[i] = field.Modulus - 1
				default:
					d[i] = rng.Uint64N(field.Modulus)
				}
			}
		}
		a, b := New[uint64](m, k), New[uint64](k, n)
		fill(a.data, special)
		fill(b.data, special[min(len(special), len(a.data)):])

		want := refMul[uint64](f, a, b)
		for _, mode := range serialAndSharded {
			SetParallelThreshold(mode.threshold)
			checkSame(t, fmt.Sprintf("Mul %dx%dx%d %s", m, k, n, mode.name), want.data, Mul(f, a, b).data)
		}
	})
}
