//go:build !purego

#include "textflag.h"

// TERM folds one term into one accumulator: acc += Y8·B[disp:disp+4], the
// multiply and the add rounded separately (VMULPD then VADDPD, never a
// fused multiply-add) with the accumulator as the add's first operand, as
// in the scalar `s += v * b`.
#define TERM(disp, tmp, acc) \
	VMULPD disp(DX), Y8, tmp; \
	VADDPD tmp, acc, acc

// TERMS8 and TERMS4 fold one term into a block of 32 or 16 columns, whose
// accumulators are Y0…Y7 or Y0…Y3.
#define TERMS8 \
	TERM(0, Y9, Y0); \
	TERM(32, Y10, Y1); \
	TERM(64, Y11, Y2); \
	TERM(96, Y12, Y3); \
	TERM(128, Y13, Y4); \
	TERM(160, Y14, Y5); \
	TERM(192, Y15, Y6); \
	TERM(224, Y9, Y7)

#define TERMS4 \
	TERM(0, Y9, Y0); \
	TERM(32, Y10, Y1); \
	TERM(64, Y11, Y2); \
	TERM(96, Y12, Y3)

// LOAD8, STORE8, LOAD4 and STORE4 move a block's accumulators between
// Y0…Y7 (Y0…Y3) and the output row at DI.
#define LOAD8 \
	VMOVUPD 0(DI), Y0; \
	VMOVUPD 32(DI), Y1; \
	VMOVUPD 64(DI), Y2; \
	VMOVUPD 96(DI), Y3; \
	VMOVUPD 128(DI), Y4; \
	VMOVUPD 160(DI), Y5; \
	VMOVUPD 192(DI), Y6; \
	VMOVUPD 224(DI), Y7

#define STORE8 \
	VMOVUPD Y0, 0(DI); \
	VMOVUPD Y1, 32(DI); \
	VMOVUPD Y2, 64(DI); \
	VMOVUPD Y3, 96(DI); \
	VMOVUPD Y4, 128(DI); \
	VMOVUPD Y5, 160(DI); \
	VMOVUPD Y6, 192(DI); \
	VMOVUPD Y7, 224(DI)

#define LOAD4 \
	VMOVUPD 0(DI), Y0; \
	VMOVUPD 32(DI), Y1; \
	VMOVUPD 64(DI), Y2; \
	VMOVUPD 96(DI), Y3

#define STORE4 \
	VMOVUPD Y0, 0(DI); \
	VMOVUPD Y1, 32(DI); \
	VMOVUPD Y2, 64(DI); \
	VMOVUPD Y3, 96(DI)

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
	LOAD8
sum32:
	XORQ AX, AX
	TESTQ R10, R10
	JZ   store32
term32:
	NEXT
	TERMS8
	INCQ AX
	CMPQ AX, R10
	JLT  term32
store32:
	STORE8
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
	LOAD4
sum16:
	XORQ AX, AX
	TESTQ R10, R10
	JZ   store16
term16:
	NEXT
	TERMS4
	INCQ AX
	CMPQ AX, R10
	JLT  term16
store16:
	STORE4
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

// NEXTBIT loads the term at the lowest set bit t of BX, into AX: its
// coefficient coef[coff[t]] (R8 at the current row's coefficients)
// broadcast into Y8 and the address of b's row at boff[t] (at the current
// column block) into DX.
#define NEXTBIT \
	BSFQ BX, AX; \
	MOVQ (R12)(AX*8), DX; \
	VBROADCASTSD (R8)(DX*8), Y8; \
	MOVQ (R9)(AX*8), DX; \
	LEAQ (SI)(DX*8), DX

// CLEARBIT clears the lowest set bit of BX, x & (x−1), setting ZF when
// none is left; AX is free again once NEXTBIT has used it.
#define CLEARBIT \
	LEAQ -1(BX), AX; \
	ANDQ AX, BX

// func rowCombineMasksAVX2(out *float64, n int, b *float64, boff *int, coef *float64, coff *int, masks *uint64, rows int)
//
// For each of rows output rows r — n wide, one after another in out —
// out[r][j] += Σₜ coef[r+coff[t]]·b[boff[t]+j] for j in [0, n&^3), t over
// the set bits of masks[r] in ascending order: rowCombineAVX2's accumulate
// form with the terms picked by a mask instead of listed, in the same
// column blocks. Each block walks the mask afresh, BSF finding the next
// term and CLEARBIT dropping it, so every lane sums its own products in
// ascending t. A row whose mask is zero is not touched. The caller
// guarantees AVX2 (useAVX2) and that every term's coefficient and row are
// in bounds; the last n&3 columns of every row are its own.
TEXT ·rowCombineMasksAVX2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ boff+24(FP), R9
	MOVQ coef+32(FP), R8
	MOVQ coff+40(FP), R12
	MOVQ masks+48(FP), R10
	MOVQ rows+56(FP), R11
	TESTQ R11, R11
	JZ   mdone

mrow:
	MOVQ (R10), R13           // R13: this row's mask
	MOVQ n+8(FP), CX          // CX: columns left
	MOVQ b+16(FP), SI         // SI: b at the current column block
	TESTQ R13, R13
	JZ   mnextrow

mblock32:
	CMPQ CX, $32
	JLT  mblock16
	LOAD8
	MOVQ R13, BX
mterm32:
	NEXTBIT
	TERMS8
	CLEARBIT
	JNZ  mterm32
	STORE8
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, CX
	JMP  mblock32

mblock16:
	CMPQ CX, $16
	JLT  mblock4
	LOAD4
	MOVQ R13, BX
mterm16:
	NEXTBIT
	TERMS4
	CLEARBIT
	JNZ  mterm16
	STORE4
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, CX

mblock4:
	CMPQ CX, $4
	JLT  mnextrow
	VMOVUPD 0(DI), Y0
	MOVQ R13, BX
mterm4:
	NEXTBIT
	TERM(0, Y9, Y0)
	CLEARBIT
	JNZ  mterm4
	VMOVUPD Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  mblock4

mnextrow:
	// DI is at column n - CX of this row; the next row starts CX on.
	LEAQ (DI)(CX*8), DI
	ADDQ $8, R8               // the next row's coefficients: a's next column
	ADDQ $8, R10
	DECQ R11
	JNZ  mrow

mdone:
	VZEROUPPER
	RET

// MAC folds one broadcast coefficient times one vector of B into one
// accumulator, rounded as TERM rounds: acc += coef·bv.
#define MAC(coef, bv, tmp, acc) \
	VMULPD bv, coef, tmp; \
	VADDPD tmp, acc, acc

// RELU sets every lane of acc that is less than zero (ordered: NaN and −0
// are not) to +0 and leaves the rest, exactly as `if v < 0 { v = 0 }`.
// Y15 holds +0 and Y14 is scratch.
#define RELU(acc) \
	VCMPPD $0x11, Y15, acc, Y14; \
	VANDNPD acc, Y14, acc

// tailmask<> is three all-ones quadwords and three zero ones: the 32 bytes
// at tailmask<>+(3−r)·8 select the first r lanes of a vector.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $48

// termlanes<> compacts the lanes of a 4-column block: entry z, for the
// mask z of the lanes whose four coefficients are all zero, holds in its
// low four bytes t·8 for each lane t not in z, in ascending t (then
// zeros), and in its high four bytes how many there are, times 8.
DATA termlanes<>+0(SB)/8, $0x0000002018100800 // 0, 1, 2, 3
DATA termlanes<>+8(SB)/8, $0x0000001800181008 // 1, 2, 3
DATA termlanes<>+16(SB)/8, $0x0000001800181000 // 0, 2, 3
DATA termlanes<>+24(SB)/8, $0x0000001000001810 // 2, 3
DATA termlanes<>+32(SB)/8, $0x0000001800180800 // 0, 1, 3
DATA termlanes<>+40(SB)/8, $0x0000001000001808 // 1, 3
DATA termlanes<>+48(SB)/8, $0x0000001000001800 // 0, 3
DATA termlanes<>+56(SB)/8, $0x0000000800000018 // 3
DATA termlanes<>+64(SB)/8, $0x0000001800100800 // 0, 1, 2
DATA termlanes<>+72(SB)/8, $0x0000001000001008 // 1, 2
DATA termlanes<>+80(SB)/8, $0x0000001000001000 // 0, 2
DATA termlanes<>+88(SB)/8, $0x0000000800000010 // 2
DATA termlanes<>+96(SB)/8, $0x0000001000000800 // 0, 1
DATA termlanes<>+104(SB)/8, $0x0000000800000008 // 1
DATA termlanes<>+112(SB)/8, $0x0000000800000000 // 0
DATA termlanes<>+120(SB)/8, $0x0000000000000000 // none
GLOBL termlanes<>(SB), RODATA|NOPTR, $128

// TERMLIST writes the term list of the 4-row tile of a whose first row
// starts at R8 (row stride R9 = kdim·8 bytes, three of them in R13; R11 =
// n·8) to R10 on, leaving R10 just past its end: for every column k, in
// ascending order, whose four coefficients are not all ±0 — or for every
// k, when the byte at allArg is set — the address of a[0][k] at R10 and
// k·n·8 at R10+R9, so the buffer holds the a addresses in its first kdim
// values and the b offsets in the next kdim. Four columns go at a time:
// the four rows ORed and shifted left one bit (the sign goes) are zero in
// the lanes with no non-zero coefficient, a NaN counting as non-zero.
// VPCMPEQQ against Y15 — +0, or all ones when every term is walked, which
// no shifted value equals — and VMOVMSKPD make those lanes a 4-bit mask
// z, and termlanes<>[z] the kept lanes' offsets, which go out as one
// store of four a addresses (VPADDQ) and one of four b offsets (VPMULUDQ
// by n), R10 advancing by the count only. The junk past the count stays
// inside the block's own four values, where the next block's terms or
// the list's end fall. The last kdim mod 4 columns are read with VMASKMOVPD, which
// touches no element past the row, and appended one at a time, each
// written where the next term goes and counted only if kept, so nothing
// is written past the list. kdim = 0 reads nothing. AX, BX, CX, DX, SI,
// R14, Y0…Y9 and Y15 are scratch.
#define TERMLIST(kdimArg, allArg) \
	VMOVQ R8, X4; \
	VPBROADCASTQ X4, Y4; \
	VPXOR Y5, Y5, Y5; \
	MOVQ R11, SI; \
	SHRQ $3, SI; \
	VMOVQ SI, X6; \
	VPBROADCASTQ X6, Y6; \
	VPSLLQ $5, Y6, Y8; \
	MOVQ $32, SI; \
	VMOVQ SI, X7; \
	VPBROADCASTQ X7, Y7; \
	MOVBQZX allArg, SI; \
	NEGQ SI; \
	VMOVQ SI, X15; \
	VPBROADCASTQ X15, Y15; \
	LEAQ termlanes<>(SB), R14; \
	MOVQ R8, AX; \
	MOVQ kdimArg, CX; \
	SHRQ $2, CX; \
	JZ   listpart; \
listblock: \
	VMOVDQU (AX), Y0; \
	VPOR (AX)(R9*1), Y0, Y0; \
	VPOR (AX)(R9*2), Y0, Y0; \
	VPOR (AX)(R13*1), Y0, Y0; \
	VPSLLQ $1, Y0, Y0; \
	VPCMPEQQ Y15, Y0, Y0; \
	VMOVMSKPD Y0, BX; \
	VPMOVZXBQ (R14)(BX*8), Y1; \
	VPADDQ Y4, Y1, Y2; \
	VPMULUDQ Y6, Y1, Y3; \
	VPADDQ Y5, Y3, Y3; \
	VMOVDQU Y2, (R10); \
	VMOVDQU Y3, (R10)(R9*1); \
	MOVL 4(R14)(BX*8), SI; \
	ADDQ SI, R10; \
	VPADDQ Y7, Y4, Y4; \
	VPADDQ Y8, Y5, Y5; \
	ADDQ $32, AX; \
	DECQ CX; \
	JNZ  listblock; \
listpart: \
	MOVQ kdimArg, CX; \
	ANDQ $3, CX; \
	JZ   listdone; \
	MOVQ CX, SI; \
	NEGQ SI; \
	LEAQ tailmask<>(SB), BX; \
	VMOVDQU 24(BX)(SI*8), Y9; \
	VMASKMOVPD (AX), Y9, Y0; \
	VMASKMOVPD (AX)(R9*1), Y9, Y1; \
	VMASKMOVPD (AX)(R9*2), Y9, Y2; \
	VMASKMOVPD (AX)(R13*1), Y9, Y3; \
	VPOR Y1, Y0, Y0; \
	VPOR Y3, Y2, Y2; \
	VPOR Y2, Y0, Y0; \
	VPSLLQ $1, Y0, Y0; \
	VPCMPEQQ Y15, Y0, Y0; \
	VMOVMSKPD Y0, BX; \
	VMOVQ X5, DX; \
listlane: \
	MOVQ AX, (R10); \
	MOVQ DX, (R10)(R9*1); \
	MOVQ BX, SI; \
	NOTQ SI; \
	ANDQ $1, SI; \
	LEAQ (R10)(SI*8), R10; \
	SHRQ $1, BX; \
	ADDQ $8, AX; \
	ADDQ R11, DX; \
	DECQ CX; \
	JNZ  listlane; \
listdone:

// func tileTermsAVX2(terms *int, a *float64, kdim int, n int, all bool) int
//
// The term list mulTile4AVX2 builds for one tile — the four rows of a
// (kdim wide) from a on — written to terms, its length returned: TERMLIST
// alone, so that it can be checked against the scalar rule. The caller
// guarantees AVX2 (useAVX2), that the four rows are in bounds and that
// terms has room for 2·kdim values.
TEXT ·tileTermsAVX2(SB), NOSPLIT, $0-48
	MOVQ terms+0(FP), R10
	MOVQ a+8(FP), R8
	MOVQ kdim+16(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R13
	MOVQ n+24(FP), R11
	SHLQ $3, R11
	TERMLIST(kdim+16(FP), all+32(FP))
	SUBQ terms+0(FP), R10
	SHRQ $3, R10
	MOVQ R10, ret+40(FP)
	VZEROUPPER
	RET

// func mulTile4AVX2(dst *float64, a *float64, kdim int, b *float64, n int, tiles int, bias *float64, rectify bool, terms *int, all bool)
//
// The forward product on tiles of four rows: for each of tiles·4 rows of
// a (kdim wide) and of dst (n wide), dst[i][j] = Σₖ a[i][k]·b[k][j] over
// ascending k from +0 for j in [0, n&^3), then + bias[j] unless bias is
// nil, then v < 0 → +0 if rectify. Each tile first writes its term list
// to terms (TERMLIST): every k, if all is set, else only the k at which
// one of its four rows has a coefficient that is not ±0. A term left out
// would add ±0·b[k][j] to a chain that started at +0 and so is never −0,
// which changes no bit as long as b[k][j] is finite: all must be set
// unless every value of b is. Columns then go in blocks of 8 (eight accumulators:
// four rows by two vectors), then at most one of 4 (four), each walking
// the list. Each term loads its vectors of B once and broadcasts a[i][k]
// for each of the four rows, so a block has eight (or four) independent
// chains in flight where a single row had two (or one). Every lane is one
// output element summing its own products in the order rowCombineAVX2
// does, and the bias and the select are applied in registers before the
// one store. The caller guarantees AVX2 (useAVX2), n >= 4, that every row
// is in bounds and that terms has room for 2·kdim values; the last n&3
// columns are its own.
TEXT ·mulTile4AVX2(SB), NOSPLIT, $0-73
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ kdim+16(FP), R9
	SHLQ $3, R9               // R9: a's row stride in bytes
	LEAQ (R9)(R9*2), R13      // R13: three of them
	MOVQ n+32(FP), R11
	SHLQ $3, R11              // R11: b's and dst's row stride in bytes
	MOVQ tiles+40(FP), R12
	TESTQ R12, R12
	JZ   tilesdone

tile:
	MOVQ terms+64(FP), R10
	TERMLIST(kdim+16(FP), all+72(FP))
	MOVQ R10, R14             // R14: end of the tile's term list
	MOVQ b+24(FP), SI         // SI: row 0 of b at the current column block
	MOVQ bias+48(FP), BX      // BX: bias at the current column block
	MOVQ n+32(FP), CX         // CX: columns left

cols8:
	CMPQ CX, $8
	JLT  cols4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ terms+64(FP), R10    // R10: the next term
	CMPQ R10, R14
	JEQ  bias8
term8:
	MOVQ (R10), AX            // AX: a[0][k]'s address
	MOVQ (R10)(R9*1), DX      // DX: row k of b, from row 0
	VMOVUPD (SI)(DX*1), Y8
	VMOVUPD 32(SI)(DX*1), Y9
	VBROADCASTSD (AX), Y10
	VBROADCASTSD (AX)(R9*1), Y11
	VBROADCASTSD (AX)(R9*2), Y12
	VBROADCASTSD (AX)(R13*1), Y13
	MAC(Y10, Y8, Y14, Y0)
	MAC(Y10, Y9, Y15, Y1)
	MAC(Y11, Y8, Y14, Y2)
	MAC(Y11, Y9, Y15, Y3)
	MAC(Y12, Y8, Y14, Y4)
	MAC(Y12, Y9, Y15, Y5)
	MAC(Y13, Y8, Y14, Y6)
	MAC(Y13, Y9, Y15, Y7)
	ADDQ $8, R10
	CMPQ R10, R14
	JNE  term8
bias8:
	CMPQ bias+48(FP), $0
	JEQ  relu8
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y9, Y3, Y3
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y8, Y6, Y6
	VADDPD Y9, Y7, Y7
relu8:
	CMPB rectify+56(FP), $0
	JEQ  store8
	VXORPD Y15, Y15, Y15
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)
	RELU(Y4)
	RELU(Y5)
	RELU(Y6)
	RELU(Y7)
store8:
	LEAQ (DI)(R11*2), DX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R11*1)
	VMOVUPD Y3, 32(DI)(R11*1)
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	VMOVUPD Y6, (DX)(R11*1)
	VMOVUPD Y7, 32(DX)(R11*1)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, BX
	SUBQ $8, CX
	JMP  cols8

cols4:
	CMPQ CX, $4
	JLT  nexttile
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ terms+64(FP), R10
	CMPQ R10, R14
	JEQ  bias4
term4tile:
	MOVQ (R10), AX
	MOVQ (R10)(R9*1), DX
	VMOVUPD (SI)(DX*1), Y8
	VBROADCASTSD (AX), Y10
	VBROADCASTSD (AX)(R9*1), Y11
	VBROADCASTSD (AX)(R9*2), Y12
	VBROADCASTSD (AX)(R13*1), Y13
	MAC(Y10, Y8, Y14, Y0)
	MAC(Y11, Y8, Y15, Y1)
	MAC(Y12, Y8, Y14, Y2)
	MAC(Y13, Y8, Y15, Y3)
	ADDQ $8, R10
	CMPQ R10, R14
	JNE  term4tile
bias4:
	CMPQ bias+48(FP), $0
	JEQ  relu4
	VMOVUPD (BX), Y8
	VADDPD Y8, Y0, Y0
	VADDPD Y8, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y8, Y3, Y3
relu4:
	CMPB rectify+56(FP), $0
	JEQ  store4tile
	VXORPD Y15, Y15, Y15
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)
store4tile:
	LEAQ (DI)(R11*2), DX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R11*1)
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, (DX)(R11*1)
	ADDQ $32, DI
	SUBQ $4, CX

nexttile:
	// DI is at column n - CX of the tile's first row; the next tile starts
	// four rows below that row's column 0.
	LEAQ (DI)(CX*8), DI
	LEAQ (DI)(R11*2), DI
	ADDQ R11, DI
	LEAQ (R8)(R9*4), R8
	DECQ R12
	JNZ  tile

tilesdone:
	VZEROUPPER
	RET

// func allFiniteAVX2(x *float64, n int) bool
//
// Whether x[0 : n&^3] holds no ±Inf and no NaN: x − x is +0 for every
// finite x and NaN otherwise, and a sum of such values is +0 unless one
// of them is NaN. Sixteen elements go per pass into four accumulators,
// then four into one; a final VCMPPD $3 (UNORD_Q) finds a NaN lane. The
// last n&3 elements are the caller's. The caller guarantees AVX2
// (useAVX2).
TEXT ·allFiniteAVX2(SB), NOSPLIT, $0-17
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

fin16:
	CMPQ CX, $16
	JLT  fin4
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VSUBPD Y4, Y4, Y4
	VSUBPD Y5, Y5, Y5
	VSUBPD Y6, Y6, Y6
	VSUBPD Y7, Y7, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	ADDQ $128, SI
	SUBQ $16, CX
	JMP  fin16

fin4:
	CMPQ CX, $4
	JLT  finsum
	VMOVUPD (SI), Y4
	VSUBPD Y4, Y4, Y4
	VADDPD Y4, Y0, Y0
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  fin4

finsum:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VCMPPD $3, Y0, Y0, Y0
	VMOVMSKPD Y0, AX
	TESTQ AX, AX
	SETEQ ret+16(FP)
	VZEROUPPER
	RET

// GATE sets four elements of dst, at byte offset disp, to grad · (out > 0
// ? 1 : 0): VCMPPD $0x1E (GT_OQ, false for NaN and for both zeros) of out
// against +0 in Y15, the mask ANDed into 1.0 in Y14 to give 1 or +0, then
// one VMULPD with grad, so a zero derivative still meets grad and turns
// ±Inf into NaN. m is scratch.
#define GATE(disp, m) \
	VMOVUPD disp(DX), m; \
	VCMPPD $0x1E, Y15, m, m; \
	VANDPD Y14, m, m; \
	VMULPD disp(SI), m, m; \
	VMOVUPD m, disp(DI)

// func reluGradAVX2(dst *float64, grad *float64, out *float64, n int)
//
// The ReLU derivative gate, dst[i] = grad[i] · (out[i] > 0 ? 1 : 0) for i
// in [0, n&^3), in blocks of 16 elements, then of 4; the last n&3 are the
// caller's. dst may be grad: each element is loaded before it is stored.
// The caller guarantees AVX2 (useAVX2) and that the three are n long.
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ out+16(FP), DX
	MOVQ n+24(FP), CX
	VXORPD Y15, Y15, Y15
	MOVQ $0x3FF0000000000000, AX // 1.0
	MOVQ AX, X14
	VPBROADCASTQ X14, Y14

gate16:
	CMPQ CX, $16
	JLT  gate4
	GATE(0, Y0)
	GATE(32, Y1)
	GATE(64, Y2)
	GATE(96, Y3)
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  gate16

gate4:
	CMPQ CX, $4
	JLT  gatedone
	GATE(0, Y0)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  gate4

gatedone:
	VZEROUPPER
	RET

// func nonzeroMasksAVX2(masks *uint64, a *float64, stride int, rows int, blocks int)
//
// The zero-skip masks of the first blocks·4 columns of a rows-high tile of
// a (row stride `stride` elements): masks[c] gets bit t set when
// a[t·stride+c] is not zero. VCMPPD $4 (NEQ_UQ: true for NaN, false for +0
// and −0) of a row's four columns against +0 gives all-ones lanes where an
// element counts. The rows go from the last to the first, each shifting
// the block's four 64-bit masks left by one (VPSLLQ) and subtracting the
// compare (VPSUBQ: −1 sets the bit the shift cleared), so no element is
// moved. The caller guarantees AVX2 (useAVX2), rows in [1, 64] and that
// the tile is in bounds.
TEXT ·nonzeroMasksAVX2(SB), NOSPLIT, $0-40
	MOVQ masks+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ stride+16(FP), R8
	SHLQ $3, R8               // R8: a's row stride in bytes
	MOVQ rows+24(FP), R9
	MOVQ R9, R10
	DECQ R10
	IMULQ R8, R10             // R10: offset of the tile's last row
	MOVQ blocks+32(FP), CX
	TESTQ CX, CX
	JZ   masksdone
	VXORPD Y15, Y15, Y15

maskblock:
	VPXOR Y0, Y0, Y0
	LEAQ (SI)(R10*1), DX      // DX: the block in the last row
	MOVQ R9, AX
maskrow:
	VPSLLQ $1, Y0, Y0
	VCMPPD $4, (DX), Y15, Y1
	VPSUBQ Y1, Y0, Y0
	SUBQ R8, DX
	DECQ AX
	JNZ  maskrow
	VMOVDQU Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  maskblock

masksdone:
	VZEROUPPER
	RET

// func transpose4AVX2(dst *float64, src *float64, rows int, cols int)
//
// dst = srcᵀ over the whole 4×4 blocks of the rows × cols matrix src — its
// first rows&^3 rows and cols&^3 columns — dst being cols × rows. Each
// block is four contiguous loads, turned in registers (VUNPCKLPD and
// VUNPCKHPD pair two rows' even and odd columns within each 128-bit half,
// VPERM2F128 joins the halves) and four contiguous stores; only bits move.
// The caller guarantees AVX2 (useAVX2); the rest of the matrix is its own.
TEXT ·transpose4AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ R9, R10
	SHLQ $3, R10              // R10: src's row stride in bytes
	LEAQ (R10)(R10*2), R11    // R11: three of them
	MOVQ R8, R12
	SHLQ $3, R12              // R12: dst's row stride in bytes
	LEAQ (R12)(R12*2), R13    // R13: three of them
	SHRQ $2, R8               // R8: row blocks left
	SHRQ $2, R9               // R9: column blocks per row block
	TESTQ R8, R8
	JZ   transdone
	TESTQ R9, R9
	JZ   transdone

transrow:
	MOVQ SI, AX               // AX: src at the block
	MOVQ DI, DX               // DX: dst at the block, transposed
	MOVQ R9, CX
transblock:
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R10*1), Y1
	VMOVUPD (AX)(R10*2), Y2
	VMOVUPD (AX)(R11*1), Y3
	VUNPCKLPD Y1, Y0, Y4      // r0[0] r1[0] r0[2] r1[2]
	VUNPCKHPD Y1, Y0, Y5      // r0[1] r1[1] r0[3] r1[3]
	VUNPCKLPD Y3, Y2, Y6      // r2[0] r3[0] r2[2] r3[2]
	VUNPCKHPD Y3, Y2, Y7      // r2[1] r3[1] r2[3] r3[3]
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, (DX)(R12*1)
	VMOVUPD Y2, (DX)(R12*2)
	VMOVUPD Y3, (DX)(R13*1)
	ADDQ $32, AX
	LEAQ (DX)(R12*4), DX
	DECQ CX
	JNZ  transblock
	LEAQ (SI)(R10*4), SI
	ADDQ $32, DI
	DECQ R8
	JNZ  transrow

transdone:
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
