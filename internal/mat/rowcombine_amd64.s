//go:build !purego

#include "textflag.h"

// TERM folds one term into one accumulator: acc += Y8·B[disp:disp+4], the
// multiply and the add rounded separately (VMULPD then VADDPD, never a
// fused multiply-add) with the accumulator as the add's first operand, as
// in the scalar `s += v * b`.
#define TERM(disp, tmp, acc) \
	VMULPD disp(DX), Y8, tmp; \
	VADDPD tmp, acc, acc

// NEXT loads term AX: its coefficient broadcast into Y8 and the address of
// its row of B (at the current column block) into DX.
#define NEXT \
	VBROADCASTSD (R8)(AX*8), Y8; \
	MOVQ (R9)(AX*8), DX; \
	LEAQ (SI)(DX*8), DX

// func rowCombineAVX2(out *float64, n int, b *float64, coef *float64, off *int, terms int, accumulate bool)
//
// out[j] (= | +=) Σₜ coef[t]·b[off[t]+j] for j in [0, n&^3), terms in
// ascending t. Columns go in blocks of 32, then at most one of 16, then of
// 4, whose accumulators stay in Y0…Y7 across every term, so each output
// element is read and written once; the last n&3 columns are the caller's.
// The caller guarantees AVX2 (useAVX2) and that every row is in bounds.
TEXT ·rowCombineAVX2(SB), NOSPLIT, $0-49
	MOVQ out+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ b+16(FP), SI
	MOVQ coef+24(FP), R8
	MOVQ off+32(FP), R9
	MOVQ terms+40(FP), R10
	MOVBLZX accumulate+48(FP), R11

block32:
	CMPQ CX, $32
	JLT  block16
	TESTQ R11, R11
	JNZ  load32
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP  sum32
load32:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
sum32:
	XORQ AX, AX
	TESTQ R10, R10
	JZ   store32
term32:
	NEXT
	TERM(0, Y9, Y0)
	TERM(32, Y10, Y1)
	TERM(64, Y11, Y2)
	TERM(96, Y12, Y3)
	TERM(128, Y13, Y4)
	TERM(160, Y14, Y5)
	TERM(192, Y15, Y6)
	TERM(224, Y9, Y7)
	INCQ AX
	CMPQ AX, R10
	JLT  term32
store32:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, CX
	JMP  block32

block16:
	CMPQ CX, $16
	JLT  block4
	TESTQ R11, R11
	JNZ  load16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP  sum16
load16:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
sum16:
	XORQ AX, AX
	TESTQ R10, R10
	JZ   store16
term16:
	NEXT
	TERM(0, Y9, Y0)
	TERM(32, Y10, Y1)
	TERM(64, Y11, Y2)
	TERM(96, Y12, Y3)
	INCQ AX
	CMPQ AX, R10
	JLT  term16
store16:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, CX

block4:
	CMPQ CX, $4
	JLT  done
	TESTQ R11, R11
	JNZ  load4
	VXORPD Y0, Y0, Y0
	JMP  sum4
load4:
	VMOVUPD 0(DI), Y0
sum4:
	XORQ AX, AX
	TESTQ R10, R10
	JZ   store4
term4:
	NEXT
	TERM(0, Y9, Y0)
	INCQ AX
	CMPQ AX, R10
	JLT  term4
store4:
	VMOVUPD Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  block4

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
