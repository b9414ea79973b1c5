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

// ROW8 is one row's share of a dotRows8IFMA pass: it loads eight of the
// row's elements at addr under mask K1, shifts out their high limbs, and
// adds the row's seven limb products with x (Z25, high limbs Z26) into the
// row's three weight accumulators, as dotIFMA does into its seven.
#define ROW8(addr, acc0, acc52, acc104) \
	VMOVDQU64.Z addr, K1, Z27;      \
	VPSRLQ      $52, Z27, Z28;      \
	VPMADD52LUQ Z25, Z27, acc0;     \
	VPMADD52HUQ Z25, Z27, acc52;    \
	VPMADD52LUQ Z26, Z27, acc52;    \
	VPMADD52LUQ Z25, Z28, acc52;    \
	VPMADD52HUQ Z26, Z27, acc104;   \
	VPMADD52HUQ Z25, Z28, acc104;   \
	VPMADD52LUQ Z26, Z28, acc104

// FOLD8 is the transpose-add: it leaves in r0 the eight rows' lane sums of
// one weight, row i's in lane i, from the rows' accumulators r0–r7, using
// t0/t1 as scratch and r2, r4, r6 as intermediates. The unpacks pair rows
// 2j and 2j+1 in each 128-bit lane; the two 128-bit shuffles then halve the
// lanes per row twice.
#define FOLD8(r0, r1, r2, r3, r4, r5, r6, r7, t0, t1) \
	VPUNPCKLQDQ r1, r0, t0;         \
	VPUNPCKHQDQ r1, r0, t1;         \
	VPADDQ      t1, t0, r0;         \
	VPUNPCKLQDQ r3, r2, t0;         \
	VPUNPCKHQDQ r3, r2, t1;         \
	VPADDQ      t1, t0, r2;         \
	VPUNPCKLQDQ r5, r4, t0;         \
	VPUNPCKHQDQ r5, r4, t1;         \
	VPADDQ      t1, t0, r4;         \
	VPUNPCKLQDQ r7, r6, t0;         \
	VPUNPCKHQDQ r7, r6, t1;         \
	VPADDQ      t1, t0, r6;         \
	VSHUFI64X2  $0x88, r2, r0, t0;  \
	VSHUFI64X2  $0xDD, r2, r0, t1;  \
	VPADDQ      t1, t0, r0;         \
	VSHUFI64X2  $0x88, r6, r4, t0;  \
	VSHUFI64X2  $0xDD, r6, r4, t1;  \
	VPADDQ      t1, t0, r4;         \
	VSHUFI64X2  $0x88, r4, r0, t0;  \
	VSHUFI64X2  $0xDD, r4, r0, t1;  \
	VPADDQ      t1, t0, r0

// func dotRows8IFMA(dst *[8]uint64, a []uint64, stride int, x []uint64)
//
// dst[r] = Σ a[r·stride+c]·x[c] mod p over c < len(x), for the eight rows
// r < 8 at a stride of stride elements, in AVX-512 IFMA. The caller
// guarantees len(a) >= 7·stride + len(x), len(x) <= ifmaChunkLen (1024),
// and that the CPU and OS support it (hasIFMA); len(x) need not be a
// multiple of 8. Each pass loads eight elements of x and their high limbs
// once, then runs ROW8 for each row: one load, one shift and dotIFMA's
// seven multiply-adds, into three accumulators per row, 24 in all:
//
//	row    0    1    2    3     4     5     6     7
//	w0     Z0   Z3   Z6   Z9    Z12   Z16   Z19   Z22
//	w52    Z1   Z4   Z7   Z10   Z13   Z17   Z20   Z23
//	w104   Z2   Z5   Z8   Z11   Z14   Z18   Z21   Z24
//
// with x in Z25/Z26 and a row's limbs in Z27/Z28; Z29–Z31 hold the
// reduction's constants, and X15 is not touched. Rows 0–3 are addressed off
// SI and rows 4–7 off R9 = SI + 4·stride, with R8 = stride and BX =
// 3·stride in bytes. The last pass of a length that is not a multiple of 8
// loads under a mask in K1 (all ones before it), so the lanes past the end
// read as zero and nothing past the rows is touched.
//
// A lane of a row's w52 accumulator gains three products of under 2⁵² per
// pass, so over n columns the eight lanes of any accumulator sum to less
// than 3·n·2⁵² < 2⁶⁴ for n ≤ 1024: neither a lane nor the transpose-add
// (FOLD8) that sums a row's lanes wraps. After FOLD8, Z0, Z1 and Z2 hold
// each row's w0, w52 and w104 in its lane, and the eight rows reduce
// together. With 2⁶¹ ≡ 1 (mod p), w52·2⁵² ≡ (w52 & 0x1FF)·2⁵² + w52>>9 and
// w104·2¹⁰⁴ ≡ (w104 & 0x3FFFF)·2⁴³ + w104>>18, so the value is congruent to
//
//	s = w0&p + w0>>61 + (w52&0x1FF)<<52 + w52>>9 + (w104&0x3FFFF)<<43 + w104>>18
//
// three terms below 2⁶¹ and three far smaller, s < 2⁶³. One more fold,
// s&p + s>>61, leaves s below 2p, and VPMINUQ(s, s−p) picks s−p exactly when
// s >= p (otherwise s−p wraps past s): the canonical residue.
TEXT ·dotRows8IFMA(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DX
	MOVQ a_base+8(FP), SI
	MOVQ stride+32(FP), R8
	MOVQ x_base+40(FP), DI
	MOVQ x_len+48(FP), CX
	SHLQ $3, R8 // R8 = stride in bytes
	LEAQ (R8)(R8*2), BX // BX = 3·stride
	LEAQ (SI)(R8*4), R9 // R9 = row 4
	MOVQ CX, R10
	ANDQ $7, R10 // R10 = tail elements
	SHRQ $3, CX // CX = full passes
	KXNORW K1, K1, K1
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	TESTQ CX, CX
	JZ tail

pass:
	VMOVDQU64.Z (DI), K1, Z25 // x (x0 to IFMA)
	VPSRLQ $52, Z25, Z26 // x1
	ROW8((SI), Z0, Z1, Z2)
	ROW8((SI)(R8*1), Z3, Z4, Z5)
	ROW8((SI)(R8*2), Z6, Z7, Z8)
	ROW8((SI)(BX*1), Z9, Z10, Z11)
	ROW8((R9), Z12, Z13, Z14)
	ROW8((R9)(R8*1), Z16, Z17, Z18)
	ROW8((R9)(R8*2), Z19, Z20, Z21)
	ROW8((R9)(BX*1), Z22, Z23, Z24)
	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ $64, DI
	DECQ CX
	JNZ pass

tail:
	TESTQ R10, R10
	JZ fold
	MOVQ R10, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1 // the low R10 lanes
	MOVQ $1, CX // one more pass, masked
	XORQ R10, R10
	JMP pass

fold:
	FOLD8(Z0, Z3, Z6, Z9, Z12, Z16, Z19, Z22, Z25, Z26)
	FOLD8(Z1, Z4, Z7, Z10, Z13, Z17, Z20, Z23, Z25, Z26)
	FOLD8(Z2, Z5, Z8, Z11, Z14, Z18, Z21, Z24, Z25, Z26)
	MOVQ $0x1FFFFFFFFFFFFFFF, AX
	VPBROADCASTQ AX, Z29 // p
	MOVQ $0x1FF, AX
	VPBROADCASTQ AX, Z30
	MOVQ $0x3FFFF, AX
	VPBROADCASTQ AX, Z31
	VPANDQ Z29, Z0, Z25
	VPSRLQ $61, Z0, Z26
	VPADDQ Z26, Z25, Z3 // s = w0&p + w0>>61
	VPANDQ Z30, Z1, Z25
	VPSLLQ $52, Z25, Z25
	VPSRLQ $9, Z1, Z26
	VPADDQ Z25, Z3, Z3
	VPADDQ Z26, Z3, Z3 // + (w52&0x1FF)<<52 + w52>>9
	VPANDQ Z31, Z2, Z25
	VPSLLQ $43, Z25, Z25
	VPSRLQ $18, Z2, Z26
	VPADDQ Z25, Z3, Z3
	VPADDQ Z26, Z3, Z3 // + (w104&0x3FFFF)<<43 + w104>>18
	VPANDQ Z29, Z3, Z25
	VPSRLQ $61, Z3, Z26
	VPADDQ Z26, Z25, Z3 // s&p + s>>61 < 2p
	VPSUBQ Z29, Z3, Z25
	VPMINUQ Z25, Z3, Z3
	VMOVDQU64 Z3, (DX)
	VZEROUPPER
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
