package matrix

import (
	"math/bits"
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

// mulRows computes output rows [lo, hi) of a·b with a field-specialized
// kernel, reporting false when no kernel applies. out rows must be zero on
// entry (freshly allocated), matching the generic accumulation loop.
func mulRows[E comparable](f field.Field[E], a, b, out *Dense[E], lo, hi int) bool {
	switch ff := any(f).(type) {
	case field.Prime:
		ad, ok1 := any(a.data).([]uint64)
		bd, ok2 := any(b.data).([]uint64)
		od, ok3 := any(out.data).([]uint64)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		mulRowsPrime(ff, ad, bd, od, a.cols, b.cols, lo, hi)
		return true
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

// slabProducts is how many raw products a column's 128-bit (accHi, accLo)
// accumulator may absorb between reductions: each product of canonical
// residues is below 2^122, and a reduced accumulator restarts below 2^61, so
// 32 products keep it below 2^61 + 2^127 < 2^128.
const slabProducts = 32

// mulRowsPrime is the Mersenne-61 matrix-product kernel: per output row it
// keeps a 128-bit accumulator per column in the (accHi, accLo) slabs, adds
// each raw 122-bit product into it with no per-element fold, and reduces the
// slabs in place every slabProducts non-zero k — so a reduction runs once
// per 32 element-ops instead of twice per element-op.
func mulRowsPrime(ff field.Prime, ad, bd, od []uint64, acols, bcols, lo, hi int) {
	if bcols == 0 {
		return
	}
	accHi := make([]uint64, bcols)
	accLo := make([]uint64, bcols)
	for i := lo; i < hi; i++ {
		clear(accHi)
		clear(accLo)
		pending := 0
		for k, aik := range ad[i*acols : (i+1)*acols] {
			if aik == 0 {
				continue
			}
			if pending == slabProducts {
				for j, h := range accHi {
					accHi[j], accLo[j] = 0, ff.Reduce128(h, accLo[j])
				}
				pending = 0
			}
			mulAddSlabs(accHi, accLo, aik, bd[k*bcols:(k+1)*bcols])
			pending++
		}
		for j := range accHi {
			od[i*bcols+j] = ff.Reduce128(accHi[j], accLo[j])
		}
	}
}

// mulAddSlabs adds the raw 128-bit products s·src[j] into the per-column
// accumulators (accHi[j], accLo[j]): one MULQ, one ADDQ, one ADCQ per
// element. All three slices have equal length.
func mulAddSlabs(accHi, accLo []uint64, s uint64, src []uint64) {
	accHi, accLo = accHi[:len(src)], accLo[:len(src)]
	for j, v := range src {
		ph, pl := bits.Mul64(s, v)
		lo, c := bits.Add64(accLo[j], pl, 0)
		accLo[j] = lo
		accHi[j], _ = bits.Add64(accHi[j], ph, c)
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
