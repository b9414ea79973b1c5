package field

// dotAcc accumulates the raw 128-bit products a[i]·x[i], i < len(a), into
// two (hi, lo) pairs without reducing them (dot_amd64.s). len(x) must be at
// least len(a), and len(a) at most dotBlockLen.
//
//go:noescape
func dotAcc(a, x []uint64) (h0, l0, h1, l1 uint64)

// dotBlock is dotBlockGeneric with the loop in assembly: one load, one MULQ
// from memory and one ADDQ/ADCQ per element. Slicing x to len(a) here is
// what keeps the assembly inside both slices.
func dotBlock(a, x []uint64) uint64 {
	h0, l0, h1, l1 := dotAcc(a, x[:len(a)])
	return Prime{}.Add(reduce128(h0, l0), reduce128(h1, l1))
}
