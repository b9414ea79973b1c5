#include "textflag.h"

// HSUMQ sets r to the sum of zmm z's eight 64-bit lanes, using ty/tx as
// scratch; y and x name z's low 256 and 128 bits.
#define HSUMQ(z, y, x, ty, tx, r) \
	VEXTRACTI64X4 $1, z, ty;    \
	VPADDQ        ty, y, y;     \
	VEXTRACTI128  $1, y, tx;    \
	VPADDQ        tx, x, x;     \
	VPSHUFD       $0x4e, x, tx; \
	VPADDQ        tx, x, x;     \
	VMOVQ         x, r

// func dotAcc(a, x []uint64) (h0, l0, h1, l1 uint64)
//
// Raw 128-bit accumulation of Σ a[i]·x[i] over len(a) elements; the caller
// guarantees len(x) >= len(a) and len(a) <= dotBlockLen (64). Each element is
// one load, one MULQ from memory and one ADDQ/ADCQ into a (hi, lo) pair:
//
//	R8:R9   pair 0 = (h0, l0)   elements 4k and 4k+2, then the 0–3 tail elements
//	R10:R11 pair 1 = (h1, l1)   elements 4k+1 and 4k+3
//
// A product of canonical residues is at most (p−1)² < 2¹²², so a pair
// overflows only past 64 of them. The ×4 loop gives each pair two products
// per pass and the tail loop puts up to three more in pair 0, so at 63
// elements pair 0 holds 30 + 3 = 33 and pair 1 holds 30: neither comes near
// 64, and each sum is below 2¹²⁸.
TEXT ·dotAcc(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ x_base+24(FP), DI
	XORQ R8, R8
	XORQ R9, R9
	XORQ R10, R10
	XORQ R11, R11
	MOVQ CX, BX
	SHRQ $2, BX // BX = passes of the ×4 loop
	ANDQ $3, CX // CX = tail elements
	TESTQ BX, BX
	JZ tail

loop4:
	MOVQ (SI), AX
	MULQ (DI)
	ADDQ AX, R9
	ADCQ DX, R8
	MOVQ 8(SI), AX
	MULQ 8(DI)
	ADDQ AX, R11
	ADCQ DX, R10
	MOVQ 16(SI), AX
	MULQ 16(DI)
	ADDQ AX, R9
	ADCQ DX, R8
	MOVQ 24(SI), AX
	MULQ 24(DI)
	ADDQ AX, R11
	ADCQ DX, R10
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ BX
	JNZ loop4

tail:
	TESTQ CX, CX
	JZ done

tail1:
	MOVQ (SI), AX
	MULQ (DI)
	ADDQ AX, R9
	ADCQ DX, R8
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ tail1

done:
	MOVQ R8, h0+48(FP)
	MOVQ R9, l0+56(FP)
	MOVQ R10, h1+64(FP)
	MOVQ R11, l1+72(FP)
	RET

// func dotIFMA(a, x []uint64) (w0, w52, w104 uint64)
//
// Σ a[i]·x[i] over len(a) elements in AVX-512 IFMA, eight lanes at a time;
// the caller guarantees len(x) >= len(a), len(a) a multiple of 8 and
// len(a) <= ifmaChunkLen (1024), and that the CPU and OS support it
// (hasIFMA). Each residue splits into a low limb of 52 bits and a high limb
// of at most 9 (a = a0 + a1·2⁵²). VPMADD52{L,H}UQ reads only bits 51:0 of
// each source and adds the low or high 52 bits of the 104-bit product, so a
// itself serves as a0 and only the high limbs need a shift. One element's
// product is seven multiply-adds, each into its own accumulator, so seven
// independent chains cover the instruction's ~4-cycle latency:
//
//	Z0            lo(a0·x0)                          weight 2⁰
//	Z1, Z2, Z3    hi(a0·x0), lo(a0·x1), lo(a1·x0)    weight 2⁵²
//	Z4, Z5, Z6    hi(a0·x1), hi(a1·x0), lo(a1·x1)    weight 2¹⁰⁴
//
// (a0·x1 and a1·x0 are below 2⁶¹ and a1·x1 below 2¹⁸, so hi(a1·x1) is zero
// and is not computed.) Each IFMA adds less than 2⁵² to a lane, so over n
// elements a weight's three accumulators hold less than 3·n·2⁵² across all
// eight lanes together: below 2⁶⁴ for n ≤ 1024 (the limit is 1365), so
// neither the lanes nor the horizontal sums below ever wrap. The caller
// weighs the three sums and reduces them (reduceIFMA). X15 is not touched.
TEXT ·dotIFMA(SB), NOSPLIT, $0-72
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ x_base+24(FP), DI
	SHRQ $3, CX // CX = passes of eight elements
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	TESTQ CX, CX
	JZ fold

loop8:
	VMOVDQU64 (SI), Z7 // a (a0 to IFMA)
	VMOVDQU64 (DI), Z8 // x (x0 to IFMA)
	VPSRLQ $52, Z7, Z9 // a1
	VPSRLQ $52, Z8, Z10 // x1
	VPMADD52LUQ Z8, Z7, Z0
	VPMADD52HUQ Z8, Z7, Z1
	VPMADD52LUQ Z10, Z7, Z2
	VPMADD52LUQ Z8, Z9, Z3
	VPMADD52HUQ Z10, Z7, Z4
	VPMADD52HUQ Z8, Z9, Z5
	VPMADD52LUQ Z10, Z9, Z6
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ loop8

fold:
	VPADDQ Z2, Z1, Z1
	VPADDQ Z3, Z1, Z1
	VPADDQ Z5, Z4, Z4
	VPADDQ Z6, Z4, Z4
	HSUMQ(Z0, Y0, X0, Y7, X7, AX)
	HSUMQ(Z1, Y1, X1, Y7, X7, BX)
	HSUMQ(Z4, Y4, X4, Y7, X7, DX)
	VZEROUPPER
	MOVQ AX, w0+48(FP)
	MOVQ BX, w52+56(FP)
	MOVQ DX, w104+64(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
//
// The low word of XCR0, the state components the OS saves on a context
// switch. Only valid when CPUID reports OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
