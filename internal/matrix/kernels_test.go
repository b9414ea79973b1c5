package matrix

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"github.com/scec/scec/internal/field"
)

// restoreKernelConfig restores the parallel threshold, the one kernel
// knob, on cleanup. Tests that set it must not run in parallel.
func restoreKernelConfig(t *testing.T) {
	t.Helper()
	thr := int(parallelThreshold.Load())
	t.Cleanup(func() { SetParallelThreshold(thr) })
}

// Per-element reference: each op spelled out with the Field methods alone,
// one Add/Mul per element, the way the kernels must compute it. refMul is
// the i-k-j accumulation with the IsZero skip, which is what keeps Real
// results bit-identical to the AXPY product. Every differential test below
// compares a kernel against these with ==.

func refMul[E comparable](f field.Field[E], a, b *Dense[E]) *Dense[E] {
	out := New[E](a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		orow := out.rowView(i)
		for j := range orow {
			orow[j] = f.Zero()
		}
		for k, aik := range a.rowView(i) {
			if f.IsZero(aik) {
				continue
			}
			for j, bkj := range b.rowView(k) {
				orow[j] = f.Add(orow[j], f.Mul(aik, bkj))
			}
		}
	}
	return out
}

func refMulVec[E comparable](f field.Field[E], a *Dense[E], x []E) []E {
	out := make([]E, a.rows)
	for i := range out {
		acc := f.Zero()
		for j, xv := range x {
			acc = f.Add(acc, f.Mul(a.At(i, j), xv))
		}
		out[i] = acc
	}
	return out
}

// refElementwise applies op to every pair of entries: f.Add or f.Sub.
func refElementwise[E comparable](a, b []E, op func(x, y E) E) []E {
	out := make([]E, len(a))
	for i := range a {
		out[i] = op(a[i], b[i])
	}
	return out
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

// kernelModes are the parallel thresholds the kernels are compared at:
// serial (no call shards), sharded (every call with two or more rows
// shards) and the shipped default.
var kernelModes = []struct {
	name      string
	threshold int
}{
	{"serial", math.MaxInt},
	{"sharded", 1},
	{"default-threshold", DefaultParallelThreshold},
}

// serialAndSharded are the two ends of kernelModes, for tests whose shapes
// sit far from the default threshold.
var serialAndSharded = kernelModes[:2]

// diffField checks that Mul, MulVec, Add, Sub and the vector kernels are
// bit-identical to the per-element reference in every mode, across the
// shape grid.
func diffField[E comparable](t *testing.T, f field.Field[E]) {
	rng := rand.New(rand.NewPCG(43, 47))
	for _, shape := range kernelShapes {
		a := Random(f, rng, shape.r, shape.k)
		a2 := Random(f, rng, shape.r, shape.k)
		b := Random(f, rng, shape.k, shape.c)
		x := RandomVec(f, rng, shape.k)

		wantMul := refMul(f, a, b)
		wantVec := refMulVec(f, a, x)
		wantAdd := refElementwise(a.data, a2.data, f.Add)
		wantSub := refElementwise(a.data, a2.data, f.Sub)

		for _, mode := range kernelModes {
			SetParallelThreshold(mode.threshold)
			label := fmt.Sprintf("%s %dx%dx%d", mode.name, shape.r, shape.k, shape.c)

			checkSame(t, label+" Mul", wantMul.data, Mul(f, a, b).data)
			checkSame(t, label+" MulVec", wantVec, MulVec(f, a, x))
			checkSame(t, label+" Add", wantAdd, Add(f, a, a2).data)
			checkSame(t, label+" Sub", wantSub, Sub(f, a, a2).data)

			if shape.r > 0 {
				va := make([]E, shape.k)
				VecAddInto(f, va, a.rowView(0), a2.rowView(0))
				checkSame(t, label+" VecAddInto", wantAdd[:shape.k], va)
				VecSubInto(f, va, a.rowView(0), a2.rowView(0))
				checkSame(t, label+" VecSubInto", wantSub[:shape.k], va)
			}
		}
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
// within the comparison tolerance must be skipped by the sparsity check,
// serially and sharded, exactly as the per-element reference skips it.
func TestKernelDifferentialRealTolerance(t *testing.T) {
	restoreKernelConfig(t)
	f := field.Real{Tol: 0.5}
	a := FromRows([][]float64{{0.25, 2}, {-0.4, 3}}) // 0.25, −0.4 are "zero" at Tol 0.5
	b := FromRows([][]float64{{10, 20}, {30, 40}})

	want := refMul(f, a, b)
	// The skipped entries must genuinely be treated as zero.
	if want.At(0, 0) != 2*30 {
		t.Fatalf("tolerance skip not applied: got %v", want.At(0, 0))
	}
	for _, mode := range kernelModes {
		SetParallelThreshold(mode.threshold)
		checkSame(t, "Real tolerance Mul "+mode.name, want.data, Mul(f, a, b).data)
	}
}

// TestMulIntoRoutePinned pins which MulInto route each field and shape
// takes. The routes give == results, so no differential test would notice a
// product moving between them: F_p must stay on the transposed DotRows
// route (a Prime.AXPYVec would move it back onto the slower i-k-j loop),
// GF(256) and Real must keep the i-k-j AXPY accumulation, and a one-column
// b — a vector query — must run MulVecInto's row kernel in every field,
// not one DotVec per row of a or one AXPY pass per element.
func TestMulIntoRoutePinned(t *testing.T) {
	mulIntoWidthOneIsMulVec[uint64](t, field.Prime{})
	mulIntoWidthOneIsMulVec[byte](t, field.GF256{})
	mulIntoWidthOneIsMulVec[float64](t, field.Real{})
	if _, ok := any(field.Prime{}).(axpyField[uint64]); ok {
		t.Error("field.Prime has AXPYVec: MulInto would run F_p products in i-k-j order instead of over a transposed b")
	}
	if _, ok := any(field.GF256{}).(axpyField[byte]); !ok {
		t.Error("field.GF256 lacks AXPYVec: MulInto would transpose b instead of accumulating in i-k-j order")
	}
	if _, ok := any(field.Real{}).(axpyField[float64]); !ok {
		t.Error("field.Real lacks AXPYVec: MulInto would transpose b instead of accumulating in i-k-j order")
	}
}

// TestParallelForCoversAllIndices checks sharding partitions [0, n) exactly
// once for awkward n, including n below and above the worker count.
func TestParallelForCoversAllIndices(t *testing.T) {
	restoreKernelConfig(t)
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

// TestKernelKnobsRoundTrip checks the one tuning setter returns the previous
// value and clamps, that math.MaxInt keeps a shardable call serial, and
// that PoolSize is sane.
func TestKernelKnobsRoundTrip(t *testing.T) {
	restoreKernelConfig(t)
	SetParallelThreshold(123)
	if prev := SetParallelThreshold(-5); prev != 123 {
		t.Fatalf("SetParallelThreshold returned %d, want 123", prev)
	}
	if prev := SetParallelThreshold(math.MaxInt); prev != 1 {
		t.Fatalf("negative threshold clamped to %d, want 1", prev)
	}
	if Shardable(1<<20, 1<<30) {
		t.Fatal("a call shards at threshold math.MaxInt")
	}
	if sharded := parallelFor(1024, 1<<30, func(lo, hi int) {}); sharded {
		t.Fatal("parallelFor sharded at threshold math.MaxInt")
	}
	if prev := SetParallelThreshold(DefaultParallelThreshold); prev != math.MaxInt {
		t.Fatalf("SetParallelThreshold returned %d, want math.MaxInt", prev)
	}
	if PoolSize() < 1 {
		t.Fatalf("PoolSize() = %d, want >= 1", PoolSize())
	}
}

// mulIntoWidthOneIsMulVec checks that a serial MulInto with a one-column b
// is counted as one MulVec dispatch and no Mul dispatch.
func mulIntoWidthOneIsMulVec[E comparable](t *testing.T, f field.Field[E]) {
	restoreKernelConfig(t)
	SetParallelThreshold(DefaultParallelThreshold)
	rng := rand.New(rand.NewPCG(83, 89))
	a, b := Random(f, rng, 14, 64), Random(f, rng, 64, 1)
	out := New[E](14, 1)
	initCounters()
	mul, mulvec := kernelCounters[opMul][0].Value(), kernelCounters[opMulVec][0].Value()
	MulInto(f, a, b, out)
	if d := kernelCounters[opMul][0].Value() - mul; d != 0 {
		t.Errorf("%s: a width-1 MulInto ran %d Mul dispatches, want 0", f.Name(), d)
	}
	if d := kernelCounters[opMulVec][0].Value() - mulvec; d != 1 {
		t.Errorf("%s: a width-1 MulInto ran %d MulVec dispatches, want 1", f.Name(), d)
	}
	checkSame(t, f.Name()+" width-1 MulInto", refMul(f, a, b).data, out.data)
}
