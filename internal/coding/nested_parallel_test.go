package coding

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// TestComputeAllNestedShardingLargeShape runs ComputeAll and ComputeAllBatch
// at m=4000, l=256, r=1000 in the default kernel configuration. The outer
// loop over the five devices clears the parallel threshold and so does each
// device's 1000×256 product, so the per-device kernel shards from inside an
// already sharded call — the shape that hung the old worker pool on every
// multicore host. The results must be bit-identical to a serial run
// (threshold math.MaxInt).
func TestComputeAllNestedShardingLargeShape(t *testing.T) {
	const m, l, r, n = 4000, 256, 1000, 4
	if r*l < matrix.DefaultParallelThreshold {
		t.Fatalf("per-device product of %d ops is below the threshold %d: the test no longer nests", r*l, matrix.DefaultParallelThreshold)
	}
	prevThr := matrix.SetParallelThreshold(math.MaxInt)
	t.Cleanup(func() { matrix.SetParallelThreshold(prevThr) })

	f := field.Prime{}
	rng := rand.New(rand.NewPCG(107, 109))
	s, err := New(m, r)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Encode[uint64](f, s, matrix.Random(f, rng, m, l), rng)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVec(f, rng, l)
	xm := matrix.Random(f, rng, l, n)

	wantY := enc.ComputeAll(f, x)
	wantYB := enc.ComputeAllBatch(f, xm)

	matrix.SetParallelThreshold(matrix.DefaultParallelThreshold)
	for round := 0; round < 3; round++ {
		sameSlice(t, "ComputeAll m=4000 l=256 r=1000", wantY, enc.ComputeAll(f, x))
		yb := enc.ComputeAllBatch(f, xm)
		for i := 0; i < yb.Rows(); i++ {
			sameSlice(t, "ComputeAllBatch m=4000 l=256 r=1000", wantYB.Row(i), yb.Row(i))
		}
	}
}
