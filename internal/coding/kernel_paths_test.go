package coding

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// pipelineDiff runs the full encode → compute → decode pipeline (vector and
// batch) under every kernel dispatch configuration and checks each stage's
// output is bit-identical to the generic serial path. Shapes include m not
// divisible by r (a short last device) and single-row data.
func pipelineDiff[E comparable](t *testing.T, f field.Field[E]) {
	t.Helper()
	prevSpec := matrix.SetSpecializedKernels(true)
	prevPar := matrix.SetParallelKernels(true)
	prevThr := matrix.SetParallelThreshold(matrix.DefaultParallelThreshold)
	t.Cleanup(func() {
		matrix.SetSpecializedKernels(prevSpec)
		matrix.SetParallelKernels(prevPar)
		matrix.SetParallelThreshold(prevThr)
	})

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

		matrix.SetSpecializedKernels(false)
		matrix.SetParallelKernels(false)
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

		modes := []struct {
			name      string
			spec, par bool
		}{
			{"specialized-serial", true, false},
			{"generic-parallel", false, true},
			{"specialized-parallel", true, true},
		}
		for _, mode := range modes {
			matrix.SetSpecializedKernels(mode.spec)
			matrix.SetParallelKernels(mode.par)
			matrix.SetParallelThreshold(1)
			label := fmt.Sprintf("%s m=%d r=%d l=%d", mode.name, sh.m, sh.r, sh.l)

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
