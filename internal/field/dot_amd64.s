#include "textflag.h"

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
