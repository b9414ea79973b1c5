package matrix

import (
	"sync"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/obs"
)

// Kernel dispatch: Mul, MulVec, Add, and Sub recognize the three concrete
// fields by type switch and run monomorphized slice kernels (see
// internal/field/kernels.go) instead of the per-element Field method loops.
// Unknown Field implementations fall back to the generic loops, so the
// package keeps working for any field a caller brings. Every dispatch
// decision is counted in the process-wide obs registry so the served
// configuration is visible on /metrics.
//
// Over F_p there is one product kernel, Prime.DotVec (its block loop is
// assembly on amd64): MulVec runs it once per row, and Mul once per output
// element, over a transpose of B made once per call. GF(256) and Real
// products accumulate with an AXPY in i-k-j order.
//
// The specialized paths are bit-compatible with the generic ones: exact
// fields produce identical canonical representatives, and the Real kernels
// perform the identical float64 operations in the identical order
// (including the tolerance-based sparsity skip in Mul). The differential
// tests in kernels_test.go enforce this for every path.

const (
	opMul = iota
	opMulVec
	opAdd
	opSub
	numOps
)

var opNames = [numOps]string{"mul", "mulvec", "add", "sub"}

// kernelCounters caches the 16 dispatch counter handles (op × impl × mode)
// so the hot paths never touch the registry mutex.
var (
	countersOnce   sync.Once
	kernelCounters [numOps][2][2]*obs.Counter
)

func initCounters() {
	countersOnce.Do(func() {
		r := obs.Default()
		for op := 0; op < numOps; op++ {
			for impl := 0; impl < 2; impl++ {
				for mode := 0; mode < 2; mode++ {
					implName, modeName := "generic", "serial"
					if impl == 1 {
						implName = "specialized"
					}
					if mode == 1 {
						modeName = "parallel"
					}
					kernelCounters[op][impl][mode] = r.Counter(
						obs.MetricKernelDispatchTotal,
						"Dense kernel executions by operation, implementation (specialized|generic), and mode (serial|parallel).",
						obs.L("op", opNames[op]), obs.L("impl", implName), obs.L("mode", modeName))
				}
			}
		}
	})
}

func recordDispatch(op int, specialized, parallel bool) {
	initCounters()
	impl, mode := 0, 0
	if specialized {
		impl = 1
	}
	if parallel {
		mode = 1
	}
	kernelCounters[op][impl][mode].Inc()
}

// specializedField reports whether f is one of the three concrete fields
// the kernel layer monomorphizes, honouring the SetSpecializedKernels knob.
func specializedField[E comparable](f field.Field[E]) bool {
	if !specializedEnabled.Load() {
		return false
	}
	switch any(f).(type) {
	case field.Prime, field.GF256, field.Real:
		return true
	}
	return false
}

// mulVecRows computes dst[lo:hi] of a·x with a field-specialized kernel,
// reporting false (leaving dst untouched) when no kernel applies.
func mulVecRows[E comparable](f field.Field[E], a *Dense[E], x []E, dst []E, lo, hi int) bool {
	cols := a.cols
	switch ff := any(f).(type) {
	case field.Prime:
		ad, ok1 := any(a.data).([]uint64)
		xd, ok2 := any(x).([]uint64)
		dd, ok3 := any(dst).([]uint64)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		for i := lo; i < hi; i++ {
			dd[i] = ff.DotVec(ad[i*cols:(i+1)*cols], xd)
		}
		return true
	case field.GF256:
		ad, ok1 := any(a.data).([]byte)
		xd, ok2 := any(x).([]byte)
		dd, ok3 := any(dst).([]byte)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		for i := lo; i < hi; i++ {
			dd[i] = ff.DotVec(ad[i*cols:(i+1)*cols], xd)
		}
		return true
	case field.Real:
		ad, ok1 := any(a.data).([]float64)
		xd, ok2 := any(x).([]float64)
		dd, ok3 := any(dst).([]float64)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		for i := lo; i < hi; i++ {
			dd[i] = ff.DotVec(ad[i*cols:(i+1)*cols], xd)
		}
		return true
	}
	return false
}

// mulRows computes output rows [lo, hi) of a·b with the GF(256) or Real
// AXPY kernel, reporting false when neither applies (F_p products go
// through mulPrime instead). out rows must be zero on entry, matching the
// generic accumulation loop.
func mulRows[E comparable](f field.Field[E], a, b, out *Dense[E], lo, hi int) bool {
	switch ff := any(f).(type) {
	case field.GF256:
		ad, ok1 := any(a.data).([]byte)
		bd, ok2 := any(b.data).([]byte)
		od, ok3 := any(out.data).([]byte)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		for i := lo; i < hi; i++ {
			arow := ad[i*a.cols : (i+1)*a.cols]
			orow := od[i*b.cols : (i+1)*b.cols]
			for k, aik := range arow {
				if aik == 0 {
					continue
				}
				ff.AXPYVec(orow, aik, bd[k*b.cols:(k+1)*b.cols])
			}
		}
		return true
	case field.Real:
		ad, ok1 := any(a.data).([]float64)
		bd, ok2 := any(b.data).([]float64)
		od, ok3 := any(out.data).([]float64)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		for i := lo; i < hi; i++ {
			arow := ad[i*a.cols : (i+1)*a.cols]
			orow := od[i*b.cols : (i+1)*b.cols]
			for k, aik := range arow {
				// Match the generic path's tolerance-based sparsity skip so
				// float results stay bit-identical.
				if ff.IsZero(aik) {
					continue
				}
				ff.AXPYVec(orow, aik, bd[k*b.cols:(k+1)*b.cols])
			}
		}
		return true
	}
	return false
}

// transposeScratch recycles mulPrime's copy of bᵀ across calls. It holds
// *[]uint64 rather than []uint64 so that putting a slab back allocates
// nothing, and a warm call allocates no scratch at all.
var transposeScratch = sync.Pool{New: func() any { return new([]uint64) }}

// mulPrime is the F_p branch of MulInto: it transposes b once into a pooled
// scratch slab, before any sharding, so that every output element is one
// Prime.DotVec over two contiguous rows — the same kernel, and the same
// canonical residue, as MulVec. The helpers of a sharded call only read the
// transpose; it returns to the pool after the last of them has finished. It
// reports whether the call sharded, and false, false when f is not
// field.Prime.
func mulPrime[E comparable](f field.Field[E], a, b, out *Dense[E]) (sharded, ok bool) {
	ff, ok0 := any(f).(field.Prime)
	ad, ok1 := any(a.data).([]uint64)
	bd, ok2 := any(b.data).([]uint64)
	od, ok3 := any(out.data).([]uint64)
	if !ok0 || !ok1 || !ok2 || !ok3 {
		return false, false
	}
	m, k, n := a.rows, a.cols, b.cols
	if m == 0 || n == 0 {
		return false, true
	}
	scratch := transposeScratch.Get().(*[]uint64)
	bt := transposeInto(*scratch, bd, k, n)
	if work := m * k * n; shardable(m, work) {
		sharded = parallelFor(m, work, func(lo, hi int) {
			dotRowsPrime(ff, ad, bt, od, k, n, lo, hi)
		})
	} else {
		dotRowsPrime(ff, ad, bt, od, k, n, 0, m)
	}
	*scratch = bt
	transposeScratch.Put(scratch)
	return sharded, true
}

// dotRowsPrime computes output rows [lo, hi) of a·b over F_p, given bt =
// bᵀ: od[i·n+j] = ⟨a_i, (bᵀ)_j⟩.
func dotRowsPrime(ff field.Prime, ad, bt, od []uint64, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = ff.DotVec(arow, bt[j*k:(j+1)*k])
		}
	}
}

// vecAddSpecialized performs dst = a + b with a field kernel, reporting
// false when no kernel applies.
func vecAddSpecialized[E comparable](f field.Field[E], dst, a, b []E) bool {
	switch ff := any(f).(type) {
	case field.Prime:
		dd, ok1 := any(dst).([]uint64)
		ad, ok2 := any(a).([]uint64)
		bd, ok3 := any(b).([]uint64)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		ff.AddVecInto(dd, ad, bd)
		return true
	case field.GF256:
		dd, ok1 := any(dst).([]byte)
		ad, ok2 := any(a).([]byte)
		bd, ok3 := any(b).([]byte)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		ff.AddVecInto(dd, ad, bd)
		return true
	case field.Real:
		dd, ok1 := any(dst).([]float64)
		ad, ok2 := any(a).([]float64)
		bd, ok3 := any(b).([]float64)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		ff.AddVecInto(dd, ad, bd)
		return true
	}
	return false
}

// vecSubSpecialized performs dst = a − b with a field kernel, reporting
// false when no kernel applies.
func vecSubSpecialized[E comparable](f field.Field[E], dst, a, b []E) bool {
	switch ff := any(f).(type) {
	case field.Prime:
		dd, ok1 := any(dst).([]uint64)
		ad, ok2 := any(a).([]uint64)
		bd, ok3 := any(b).([]uint64)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		ff.SubVecInto(dd, ad, bd)
		return true
	case field.GF256:
		dd, ok1 := any(dst).([]byte)
		ad, ok2 := any(a).([]byte)
		bd, ok3 := any(b).([]byte)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		ff.AddVecInto(dd, ad, bd) // Sub == Add in characteristic 2
		return true
	case field.Real:
		dd, ok1 := any(dst).([]float64)
		ad, ok2 := any(a).([]float64)
		bd, ok3 := any(b).([]float64)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		ff.SubVecInto(dd, ad, bd)
		return true
	}
	return false
}

// VecAddInto sets dst[i] = a[i] + b[i] through the field-specialized kernel
// when one applies, serially (callers shard). All slices must have equal
// length. dst may alias a or b.
func VecAddInto[E comparable](f field.Field[E], dst, a, b []E) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("matrix: VecAddInto length mismatch")
	}
	if specializedField(f) && vecAddSpecialized(f, dst, a, b) {
		return
	}
	for i := range a {
		dst[i] = f.Add(a[i], b[i])
	}
}

// VecSubInto sets dst[i] = a[i] − b[i] through the field-specialized kernel
// when one applies, serially (callers shard). All slices must have equal
// length. dst may alias a or b.
func VecSubInto[E comparable](f field.Field[E], dst, a, b []E) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("matrix: VecSubInto length mismatch")
	}
	if specializedField(f) && vecSubSpecialized(f, dst, a, b) {
		return
	}
	for i := range a {
		dst[i] = f.Sub(a[i], b[i])
	}
}
