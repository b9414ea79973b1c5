package matrix

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"github.com/scec/scec/internal/field"
)

// restoreKernelConfig pins the kernel knobs for a test and restores them on
// cleanup. Tests that touch the knobs must not run in parallel.
func restoreKernelConfig(t *testing.T) {
	t.Helper()
	spec, par, thr := specializedEnabled.Load(), parallelEnabled.Load(), int(parallelThreshold.Load())
	t.Cleanup(func() {
		SetSpecializedKernels(spec)
		SetParallelKernels(par)
		SetParallelThreshold(thr)
	})
}

// kernelShapes covers empty and single-row matrices, odd shapes, and Mul
// shapes straddling the default parallel threshold (127..129 rows × 64 ×
// 16 columns: 130,048, 131,072 and 132,096 element-ops around 128Ki).
// MulVec, Add and Sub reach the threshold only at 2048 rows of 64, which
// TestKernelDifferentialAtDefaultThreshold covers.
var kernelShapes = []struct{ r, k, c int }{
	{0, 0, 0},
	{0, 3, 2},
	{1, 1, 1},
	{1, 64, 5},
	{2, 2, 2},
	{3, 5, 4},
	{7, 7, 7},
	{16, 16, 16},
	{33, 17, 9},
	{63, 65, 3},
	{100, 64, 8},
	{511, 64, 2},
	{512, 64, 2},
	{513, 64, 2},
	{127, 64, 16},
	{128, 64, 16},
	{129, 64, 16},
}

// kernelModes are the dispatch configurations compared against the
// generic-serial reference.
var kernelModes = []struct {
	name            string
	spec, par       bool
	forcedThreshold int // 0 keeps the default
}{
	{"specialized-serial", true, false, 0},
	{"generic-parallel", false, true, 1},
	{"specialized-parallel", true, true, 1},
	{"specialized-parallel-default-threshold", true, true, 0},
}

// diffField checks that every specialized and parallel path produces
// bit-identical results to the generic serial path for Mul, MulVec, Add,
// Sub, and the vector kernels, across the shape grid.
func diffField[E comparable](t *testing.T, f field.Field[E]) {
	rng := rand.New(rand.NewPCG(43, 47))
	for _, shape := range kernelShapes {
		a := Random(f, rng, shape.r, shape.k)
		a2 := Random(f, rng, shape.r, shape.k)
		b := Random(f, rng, shape.k, shape.c)
		x := RandomVec(f, rng, shape.k)

		SetSpecializedKernels(false)
		SetParallelKernels(false)
		wantMul := Mul(f, a, b)
		wantVec := MulVec(f, a, x)
		wantAdd := Add(f, a, a2)
		wantSub := Sub(f, a, a2)

		for _, mode := range kernelModes {
			SetSpecializedKernels(mode.spec)
			SetParallelKernels(mode.par)
			if mode.forcedThreshold > 0 {
				SetParallelThreshold(mode.forcedThreshold)
			} else {
				SetParallelThreshold(DefaultParallelThreshold)
			}
			label := fmt.Sprintf("%s %dx%dx%d", mode.name, shape.r, shape.k, shape.c)

			checkSame(t, label+" Mul", wantMul.data, Mul(f, a, b).data)
			checkSame(t, label+" MulVec", wantVec, MulVec(f, a, x))
			checkSame(t, label+" Add", wantAdd.data, Add(f, a, a2).data)
			checkSame(t, label+" Sub", wantSub.data, Sub(f, a, a2).data)

			if shape.r > 0 {
				va := make([]E, shape.k)
				VecAddInto(f, va, a.rowView(0), a2.rowView(0))
				checkSame(t, label+" VecAddInto", wantAdd.rowView(0), va)
				VecSubInto(f, va, a.rowView(0), a2.rowView(0))
				checkSame(t, label+" VecSubInto", wantSub.rowView(0), va)
			}
		}
		SetSpecializedKernels(true)
		SetParallelKernels(true)
		SetParallelThreshold(DefaultParallelThreshold)
	}
}

func checkSame[E comparable](t *testing.T, label string, want, got []E) {
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

func TestKernelDifferentialPrime(t *testing.T) {
	restoreKernelConfig(t)
	diffField[uint64](t, field.Prime{})
}

func TestKernelDifferentialGF256(t *testing.T) {
	restoreKernelConfig(t)
	diffField[byte](t, field.GF256{})
}

func TestKernelDifferentialReal(t *testing.T) {
	restoreKernelConfig(t)
	diffField[float64](t, field.Real{})
}

// TestKernelDifferentialRealTolerance pins the subtle Real case: a scalar
// within the comparison tolerance must be skipped by the sparsity check on
// both paths, keeping float results bit-identical.
func TestKernelDifferentialRealTolerance(t *testing.T) {
	restoreKernelConfig(t)
	f := field.Real{Tol: 0.5}
	a := FromRows([][]float64{{0.25, 2}, {-0.4, 3}}) // 0.25, −0.4 are "zero" at Tol 0.5
	b := FromRows([][]float64{{10, 20}, {30, 40}})

	SetSpecializedKernels(false)
	SetParallelKernels(false)
	want := Mul(f, a, b)

	SetSpecializedKernels(true)
	got := Mul(f, a, b)
	checkSame(t, "Real tolerance Mul", want.data, got.data)
	// The skipped entries must genuinely be treated as zero.
	if want.At(0, 0) != 2*30 {
		t.Fatalf("tolerance skip not applied: got %v", want.At(0, 0))
	}
}

// unknownField wraps Prime behind a distinct type so the dispatch type
// switch cannot recognize it: the generic fallback must serve it.
type unknownField struct{ field.Prime }

func TestKernelGenericFallbackUnknownField(t *testing.T) {
	restoreKernelConfig(t)
	rng := rand.New(rand.NewPCG(53, 59))
	var uf field.Field[uint64] = unknownField{}
	a := Random(uf, rng, 20, 30)
	b := Random(uf, rng, 30, 10)
	x := RandomVec(uf, rng, 30)

	SetSpecializedKernels(true)
	SetParallelKernels(true)
	SetParallelThreshold(1)
	gotMul := Mul(uf, a, b)
	gotVec := MulVec(uf, a, x)

	SetSpecializedKernels(false)
	SetParallelKernels(false)
	checkSame(t, "unknown field Mul", Mul(uf, a, b).data, gotMul.data)
	checkSame(t, "unknown field MulVec", MulVec(uf, a, x), gotVec)
}

// TestParallelForCoversAllIndices checks sharding partitions [0, n) exactly
// once for awkward n, including n below and above the worker count.
func TestParallelForCoversAllIndices(t *testing.T) {
	restoreKernelConfig(t)
	SetParallelKernels(true)
	SetParallelThreshold(1)
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 1003} {
		hits := make([]atomic.Int64, n)
		ParallelFor(n, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

// TestParallelForNested checks nested parallel calls complete (the
// non-blocking submit must degrade to inline execution, never deadlock).
func TestParallelForNested(t *testing.T) {
	restoreKernelConfig(t)
	SetParallelKernels(true)
	SetParallelThreshold(1)
	var total atomic.Int64
	ParallelFor(8, 1<<20, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelFor(64, 1<<20, func(l2, h2 int) {
				total.Add(int64(h2 - l2))
			})
		}
	})
	if got := total.Load(); got != 8*64 {
		t.Fatalf("nested ParallelFor visited %d indices, want %d", got, 8*64)
	}
}

// TestKernelKnobsRoundTrip checks the tuning setters return previous values
// and PoolSize is sane.
func TestKernelKnobsRoundTrip(t *testing.T) {
	restoreKernelConfig(t)
	SetSpecializedKernels(true)
	if prev := SetSpecializedKernels(false); !prev {
		t.Fatal("SetSpecializedKernels did not return previous value")
	}
	SetParallelKernels(true)
	if prev := SetParallelKernels(false); !prev {
		t.Fatal("SetParallelKernels did not return previous value")
	}
	SetParallelThreshold(123)
	if prev := SetParallelThreshold(-5); prev != 123 {
		t.Fatalf("SetParallelThreshold returned %d, want 123", prev)
	}
	if prev := SetParallelThreshold(DefaultParallelThreshold); prev != 1 {
		t.Fatalf("negative threshold clamped to %d, want 1", prev)
	}
	if PoolSize() < 1 {
		t.Fatalf("PoolSize() = %d, want >= 1", PoolSize())
	}
}
