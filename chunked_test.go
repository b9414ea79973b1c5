package scec

import (
	"testing"
)

func TestDeployChunkedMatchesMonolithic(t *testing.T) {
	f := PrimeField()
	rng := testRNG()
	a := RandomMatrix(f, rng, 25, 17) // 17 columns → chunks of 5,5,5,2
	costs := []float64{1.2, 0.7, 2.1, 1.5}

	cd, err := Deploy(f, a, costs, rng, WithChunking[uint64](5))
	if err != nil {
		t.Fatal(err)
	}
	if cd.Chunks() != 4 {
		t.Fatalf("chunks = %d, want 4", cd.Chunks())
	}
	x := RandomVector(f, rng, 17)
	got, err := cd.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	want := MulVec(f, a, x)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %d != %d", i, got[i], want[i])
		}
	}
	for j, leak := range cd.Audit() {
		if leak != 0 {
			t.Fatalf("chunk device %d leaks %d dimensions", j, leak)
		}
	}
	if cd.Cost() <= 0 {
		t.Fatal("chunked cost must be positive")
	}
}

// TestDeployChunkedSingleChunkEqualsDeploy: chunking splits the columns of
// one shared plan, so for every chunk count the deployment reports the
// monolithic plan's cost and logical device count — and, from the same seed,
// the very same encoding.
func TestDeployChunkedSingleChunkEqualsDeploy(t *testing.T) {
	f := PrimeField()
	costs := []float64{1, 2, 3}
	build := func(opts ...DeployOption[uint64]) *Deployment[uint64] {
		rng := testRNG()
		dep, err := Deploy(f, RandomMatrix(f, rng, 10, 6), costs, rng, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = dep.Close() })
		return dep
	}
	dep := build()
	if dep.Chunks() != 1 {
		t.Fatalf("unchunked deployment reports %d chunks", dep.Chunks())
	}
	for width, chunks := range map[int]int{1: 6, 2: 3, 4: 2, 6: 1, 100: 1} {
		cd := build(WithChunking[uint64](width))
		if cd.Chunks() != chunks {
			t.Fatalf("width %d: chunks = %d, want %d", width, cd.Chunks(), chunks)
		}
		if cd.Cost() != dep.Cost() {
			t.Fatalf("width %d: cost %g != monolithic %g", width, cd.Cost(), dep.Cost())
		}
		if cd.Devices() != dep.Devices() {
			t.Fatalf("width %d: devices %d != monolithic %d", width, cd.Devices(), dep.Devices())
		}
		for j, block := range cd.Encoding.Blocks {
			if !MatrixEqual(f, block, dep.Encoding.Blocks[j]) {
				t.Fatalf("width %d: block %d differs from the monolithic encoding", width, j)
			}
		}
	}
}

func TestDeployChunkedValidation(t *testing.T) {
	f := PrimeField()
	rng := testRNG()
	a := RandomMatrix(f, rng, 5, 4)
	if _, err := Deploy(f, a, []float64{1, 2}, rng, WithChunking[uint64](0)); err == nil {
		t.Error("chunk width 0 should be rejected")
	}
	if _, err := Deploy(f, NewMatrix[uint64](5, 0), []float64{1, 2}, rng, WithChunking[uint64](2)); err == nil {
		t.Error("zero-column matrix should be rejected")
	}
	cd, err := Deploy(f, a, []float64{1, 2}, rng, WithChunking[uint64](2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cd.MulVec(make([]uint64, 3)); err == nil {
		t.Error("wrong input length should be rejected")
	}
}

func TestDeployChunkedMulMatMatchesMonolithic(t *testing.T) {
	f := PrimeField()
	rng := testRNG()
	a := RandomMatrix(f, rng, 14, 11)
	costs := []float64{1.2, 0.7, 2.1}
	cd, err := Deploy(f, a, costs, rng, WithChunking[uint64](4))
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	if cd.Devices() <= 0 {
		t.Fatal("chunked deployment reports no devices")
	}
	const n = 3
	x := NewMatrix[uint64](11, n)
	for i := 0; i < 11; i++ {
		for j := 0; j < n; j++ {
			x.Set(i, j, f.Rand(rng))
		}
	}
	got, err := cd.MulMat(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		col := make([]uint64, 11)
		for i := range col {
			col[i] = x.At(i, j)
		}
		want := MulVec(f, a, col)
		for i := range want {
			if got.At(i, j) != want[i] {
				t.Fatalf("entry (%d,%d): %d != %d", i, j, got.At(i, j), want[i])
			}
		}
	}
	if _, err := cd.MulMat(NewMatrix[uint64](12, 2)); err == nil {
		t.Error("wrong input height should be rejected")
	}
}

func TestDeployChunkedRealField(t *testing.T) {
	f := RealField(1e-6)
	rng := testRNG()
	a := RandomMatrix(f, rng, 12, 9)
	cd, err := Deploy(f, a, []float64{1, 1, 1}, rng, WithChunking[float64](4))
	if err != nil {
		t.Fatal(err)
	}
	x := RandomVector(f, rng, 9)
	got, err := cd.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	want := MulVec(f, a, x)
	for i := range got {
		if d := got[i] - want[i]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("entry %d: %g vs %g", i, got[i], want[i])
		}
	}
}
