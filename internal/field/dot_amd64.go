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

// dotIFMA sums a[i]·x[i], i < len(a), in AVX-512 IFMA as three unreduced
// 52-bit-limb weights, w0 + w52·2⁵² + w104·2¹⁰⁴ (dot_amd64.s). len(x) must
// be at least len(a), len(a) a multiple of ifmaLanes and at most
// ifmaChunkLen, and the CPU must pass hasIFMA.
//
//go:noescape
func dotIFMA(a, x []uint64) (w0, w52, w104 uint64)

// dotRows8IFMA sets dst[r] = Σ a[r·stride+c]·x[c] mod p over c < len(x)
// for the eight rows r < 8, in AVX-512 IFMA (dot_amd64.s). len(a) must be at
// least 7·stride + len(x), len(x) at most ifmaChunkLen, and the CPU must
// pass hasIFMA.
//
//go:noescape
func dotRows8IFMA(dst *[ifmaRows]uint64, a []uint64, stride int, x []uint64)

// dotRows8 is dotRows8IFMA behind the bounds check that keeps the assembly
// inside a: row 7 of the block must end within it.
func dotRows8(dst *[ifmaRows]uint64, a []uint64, stride int, x []uint64) {
	_ = a[(ifmaRows-1)*stride:][:len(x)]
	dotRows8IFMA(dst, a, stride, x)
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// hasIFMA reports whether the CPU has AVX-512F and AVX-512 IFMA and the OS
// saves the register state they use: CPUID leaf 7 EBX bits 16 and 21, and,
// behind leaf 1's OSXSAVE bit, XCR0 bits 1–2 and 5–7 (XMM, YMM, the opmask
// registers and both halves of the ZMM file).
func hasIFMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const avx512f, avx512ifma = 1 << 16, 1 << 21
	if _, ebx, _, _ := cpuid(7, 0); ebx&(avx512f|avx512ifma) != avx512f|avx512ifma {
		return false
	}
	const zmmState = 0xE6
	return xgetbv()&zmmState == zmmState
}
