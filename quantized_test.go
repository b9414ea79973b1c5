package scec

import (
	"math"
	"testing"
)

func TestDeployQuantizedEndToEnd(t *testing.T) {
	rng := testRNG()
	fR := RealField(0)
	a := RandomMatrix(fR, rng, 30, 12) // standard normals
	costs := []float64{1.5, 0.8, 2.2, 1.1}

	dep, err := DeployQuantized(a, 16, 8, costs, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The underlying deployment is audited like any other.
	for j, leak := range dep.Audit() {
		if leak != 0 {
			t.Fatalf("device %d leaks %d dimensions", j, leak)
		}
	}

	x := RandomVector(fR, rng, 12)
	got, err := dep.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	want := MulVec(fR, a, x)
	for i := range got {
		// 12 accumulated products, each with ~2^-17 operand error.
		if math.Abs(got[i]-want[i]) > 12*8.0/65536 {
			t.Fatalf("entry %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestQuantizedErrorBound: entries just short of a rounding tie all round
// the same way, which is the worst case ErrorBound describes — the error
// lands within 1 % of the bound and never past it.
func TestQuantizedErrorBound(t *testing.T) {
	const l, fracBits = 16, 8
	e := 0.999 * math.Ldexp(1, -fracBits-1) // rounds down to the grid
	a := NewMatrix[float64](6, l)
	x := make([]float64, l)
	for j := range x {
		x[j] = 2 + e
		for i := 0; i < a.Rows(); i++ {
			a.Set(i, j, 1+e)
		}
	}
	dep, err := DeployQuantized(a, fracBits, 2+e, []float64{1, 1, 1}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	got, err := dep.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	bound := dep.ErrorBound(2 + e)
	for i, y := range got {
		if d := math.Abs(y - l*(1+e)*(2+e)); d > bound || d < 0.99*bound {
			t.Fatalf("entry %d: error %g against a bound of %g", i, d, bound)
		}
	}
}

func TestDeployQuantizedMulMat(t *testing.T) {
	rng := testRNG()
	fR := RealField(0)
	a := RandomMatrix(fR, rng, 15, 8)
	costs := []float64{1.5, 0.8, 2.2}

	dep, err := DeployQuantized(a, 16, 8, costs, rng)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if dep.Devices() <= 0 {
		t.Fatal("quantized deployment reports no devices")
	}
	const n = 3
	x := NewMatrix[float64](8, n)
	for i := 0; i < 8; i++ {
		for j := 0; j < n; j++ {
			x.Set(i, j, fR.Rand(rng))
		}
	}
	got, err := dep.MulMat(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		col := make([]float64, 8)
		for i := range col {
			col[i] = x.At(i, j)
		}
		want := MulVec(fR, a, col)
		for i := range want {
			if math.Abs(got.At(i, j)-want[i]) > 8*8.0/65536 {
				t.Fatalf("entry (%d,%d): %g vs %g", i, j, got.At(i, j), want[i])
			}
		}
	}
	if _, err := dep.MulMat(NewMatrix[float64](9, 2)); err == nil {
		t.Error("wrong input height should be rejected")
	}
	big := NewMatrix[float64](8, 1)
	big.Set(0, 0, 1e12)
	if _, err := dep.MulMat(big); err == nil {
		t.Error("out-of-range batch input should be rejected at query time")
	}
}

func TestDeployQuantizedValidation(t *testing.T) {
	rng := testRNG()
	fR := RealField(0)
	a := RandomMatrix(fR, rng, 5, 3)

	if _, err := DeployQuantized(a, 0, 1, []float64{1, 2}, rng); err == nil {
		t.Error("invalid fracBits should be rejected")
	}
	// Precision so high the dot products overflow 61 bits.
	if _, err := DeployQuantized(a, 28, 1e9, []float64{1, 2}, rng); err == nil {
		t.Error("overflowing workload should be rejected")
	}
	dep, err := DeployQuantized(a, 16, 4, []float64{1, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.MulVec([]float64{1, 2}); err == nil {
		t.Error("wrong input length should be rejected")
	}
	if _, err := dep.MulVec([]float64{1e12, 0, 0}); err == nil {
		t.Error("out-of-range input should be rejected at query time")
	}
}
