package matrix

import (
	"sync"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/obs"
)

// Kernel calls: Mul, MulVec, Add, and Sub run the field's own slice kernels
// (Field.DotRows, AddVecInto and SubVecInto; see internal/field/kernels.go),
// one interface call per row range, so no element goes through a per-element
// Field method. Every execution is counted in the process-wide obs registry,
// by op and by whether it sharded, so the served configuration is visible on
// /metrics.
//
// MulVec is one DotRows over the matrix. Mul takes one of two routes. A
// field with AXPYVec (GF(256), Real) accumulates in i-k-j order, skipping
// every a_ik the field calls zero, as the per-element product does. Any
// other field (F_p) gets a transpose of B made once per call, and each
// output row is one DotRows of Bᵀ against a row of A: the same kernel, and
// the same canonical residue, as MulVec.
//
// Every kernel is bit-compatible with the per-element Add/Mul loops: exact
// fields produce identical canonical representatives, and the Real kernels
// perform the identical float64 operations in the identical order. The
// differential tests in kernels_test.go compare each op against those
// loops, serially and sharded.

const (
	opMul = iota
	opMulVec
	opAdd
	opSub
	numOps
)

var opNames = [numOps]string{"mul", "mulvec", "add", "sub"}

// kernelCounters caches the 8 dispatch counter handles (op × mode) so the
// hot paths never touch the registry mutex.
var (
	countersOnce   sync.Once
	kernelCounters [numOps][2]*obs.Counter
)

func initCounters() {
	countersOnce.Do(func() {
		r := obs.Default()
		for op := 0; op < numOps; op++ {
			for mode, modeName := range [2]string{"serial", "parallel"} {
				kernelCounters[op][mode] = r.Counter(
					obs.MetricKernelDispatchTotal,
					"Dense kernel executions by operation and mode (serial|parallel).",
					obs.L("op", opNames[op]), obs.L("mode", modeName))
			}
		}
	})
}

func recordDispatch(op int, parallel bool) {
	initCounters()
	mode := 0
	if parallel {
		mode = 1
	}
	kernelCounters[op][mode].Inc()
}

// axpyField is what MulInto's i-k-j accumulation needs of a field beyond
// Field: dst[i] += s·src[i] over a row.
type axpyField[E comparable] interface {
	AXPYVec(dst []E, s E, src []E)
}

// mulAXPY computes output rows [lo, hi) of a·b into out by accumulation in
// i-k-j order, skipping each a_ik that f.IsZero calls zero (for Real that
// is the tolerance, so float results match the per-element product bit for
// bit).
func mulAXPY[E comparable](f field.Field[E], ax axpyField[E], a, b, out *Dense[E], lo, hi int) {
	clear(out.data[lo*out.cols : hi*out.cols])
	for i := lo; i < hi; i++ {
		orow := out.rowView(i)
		for k, aik := range a.rowView(i) {
			if f.IsZero(aik) {
				continue
			}
			ax.AXPYVec(orow, aik, b.rowView(k))
		}
	}
}

// transposeScratch recycles mulTransposed's copy of bᵀ across calls. It
// holds a *[]E rather than a []E so that putting a slab back allocates
// nothing, and a warm call allocates no scratch at all. Only F_p products
// reach it, so every slab in it has one element type.
var transposeScratch sync.Pool

// mulTransposed is MulInto for a field without AXPYVec: it transposes b
// once into a pooled scratch slab, before any sharding, so that output row
// i is one DotRows of bᵀ against row i of a. The helpers of a sharded call
// only read the transpose; it returns to the pool after the last of them
// has finished. It reports whether the call sharded.
func mulTransposed[E comparable](f field.Field[E], a, b, out *Dense[E]) (sharded bool) {
	m, k, n := a.rows, a.cols, b.cols
	if m == 0 || n == 0 {
		return false
	}
	scratch, _ := transposeScratch.Get().(*[]E)
	if scratch == nil {
		scratch = new([]E)
	}
	bt := transposeInto(*scratch, b.data, k, n)
	if work := m * k * n; shardable(m, work) {
		sharded = parallelFor(m, work, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				f.DotRows(out.rowView(i), bt, a.rowView(i))
			}
		})
	} else {
		for i := 0; i < m; i++ {
			f.DotRows(out.rowView(i), bt, a.rowView(i))
		}
	}
	*scratch = bt
	transposeScratch.Put(scratch)
	return sharded
}

// VecAddInto sets dst[i] = a[i] + b[i] through the field's kernel, serially
// (callers shard). All slices must have equal length. dst may alias a or b.
func VecAddInto[E comparable](f field.Field[E], dst, a, b []E) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("matrix: VecAddInto length mismatch")
	}
	f.AddVecInto(dst, a, b)
}

// VecSubInto sets dst[i] = a[i] − b[i] through the field's kernel, serially
// (callers shard). All slices must have equal length. dst may alias a or b.
func VecSubInto[E comparable](f field.Field[E], dst, a, b []E) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("matrix: VecSubInto length mismatch")
	}
	f.SubVecInto(dst, a, b)
}
