package coding

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// pipelineDiff runs the full encode → compute → decode pipeline (vector and
// batch) sharded — at threshold 1 and at the default — and checks each
// stage's output is bit-identical to a serial run (threshold math.MaxInt).
// The serial decode must also equal A·x and A·X computed in the test, one
// Field Add/Mul per element (under Field.Equal, which is == on the exact
// fields and Real's tolerance on floats, whose masks cancel only to
// rounding). Shapes include m not divisible by r (a short last device) and
// single-row data.
func pipelineDiff[E comparable](t *testing.T, f field.Field[E]) {
	t.Helper()
	prevThr := matrix.SetParallelThreshold(math.MaxInt)
	t.Cleanup(func() { matrix.SetParallelThreshold(prevThr) })

	rng := rand.New(rand.NewPCG(101, 103))
	shapes := []struct{ m, r, l, n int }{
		{1, 1, 1, 1},
		{5, 2, 3, 2},
		{12, 5, 8, 4},
		{40, 7, 16, 3},
	}
	for _, sh := range shapes {
		s, err := New(sh.m, sh.r)
		if err != nil {
			t.Fatal(err)
		}
		a := matrix.Random(f, rng, sh.m, sh.l)
		random := matrix.Random(f, rng, sh.r, sh.l)
		x := matrix.RandomVec(f, rng, sh.l)
		xm := matrix.Random(f, rng, sh.l, sh.n)

		matrix.SetParallelThreshold(math.MaxInt)
		wantEnc, err := EncodeWithRandom(f, s, a, random)
		if err != nil {
			t.Fatal(err)
		}
		wantY := wantEnc.ComputeAll(f, x)
		wantAx, err := Decode(f, s, wantY)
		if err != nil {
			t.Fatal(err)
		}
		wantYB := wantEnc.ComputeAllBatch(f, xm)
		wantAxB, err := decodeBatch(BindScheme(f, s), wantYB)
		if err != nil {
			t.Fatal(err)
		}
		shape := fmt.Sprintf("m=%d r=%d l=%d", sh.m, sh.r, sh.l)
		if ref := elementwiseMulVec(f, a, x); !matrix.VecEqual(f, ref, wantAx) {
			t.Fatalf("serial %s: decoded Ax = %v, per-element A·x = %v", shape, wantAx, ref)
		}
		for c := 0; c < sh.n; c++ {
			col := make([]E, sh.l)
			for k := range col {
				col[k] = xm.At(k, c)
			}
			ref := elementwiseMulVec(f, a, col)
			for i := range ref {
				if !f.Equal(ref[i], wantAxB.At(i, c)) {
					t.Fatalf("serial %s: decoded AX[%d][%d] = %v, per-element = %v", shape, i, c, wantAxB.At(i, c), ref[i])
				}
			}
		}

		for _, mode := range []struct {
			name      string
			threshold int
		}{
			{"sharded", 1},
			{"default-threshold", matrix.DefaultParallelThreshold},
		} {
			matrix.SetParallelThreshold(mode.threshold)
			label := mode.name + " " + shape

			enc, err := EncodeWithRandom(f, s, a, random)
			if err != nil {
				t.Fatal(err)
			}
			for j := range enc.Blocks {
				for r := 0; r < enc.Blocks[j].Rows(); r++ {
					sameSlice(t, label+" encode block row", wantEnc.Blocks[j].Row(r), enc.Blocks[j].Row(r))
				}
			}
			y := enc.ComputeAll(f, x)
			sameSlice(t, label+" compute", wantY, y)
			ax, err := Decode(f, s, y)
			if err != nil {
				t.Fatal(err)
			}
			sameSlice(t, label+" decode", wantAx, ax)

			yb := enc.ComputeAllBatch(f, xm)
			for r := 0; r < yb.Rows(); r++ {
				sameSlice(t, label+" compute-batch", wantYB.Row(r), yb.Row(r))
			}
			axb, err := decodeBatch(BindScheme(f, s), yb)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < axb.Rows(); r++ {
				sameSlice(t, label+" decode-batch", wantAxB.Row(r), axb.Row(r))
			}
		}
	}
}

// elementwiseMulVec is A·x with one Field Add/Mul per element, independent
// of every matrix kernel.
func elementwiseMulVec[E comparable](f field.Field[E], a *matrix.Dense[E], x []E) []E {
	out := make([]E, a.Rows())
	for i := range out {
		acc := f.Zero()
		for k, xv := range x {
			acc = f.Add(acc, f.Mul(a.At(i, k), xv))
		}
		out[i] = acc
	}
	return out
}

func sameSlice[E comparable](t *testing.T, label string, want, got []E) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", label, i, got[i], want[i])
		}
	}
}

func TestPipelineKernelPathsPrime(t *testing.T) { pipelineDiff[uint64](t, field.Prime{}) }

func TestPipelineKernelPathsGF256(t *testing.T) { pipelineDiff[byte](t, field.GF256{}) }

func TestPipelineKernelPathsReal(t *testing.T) { pipelineDiff[float64](t, field.Real{}) }
