//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 word-row kernels. All loops process 8 uint64 words (two YMM
// registers) per iteration with unaligned loads, then finish the
// 0..7-word tail with scalar POPCNTQ/AND. Population counts use the
// Mula VPSHUFB nibble-lookup scheme: split each byte into two nibbles,
// look both up in a 16-entry popcount table, add, then horizontally
// sum bytes into qwords with VPSADBW against zero. The qword
// accumulator never overflows: counts fit 64*n bits and n is bounded
// by slice length.
//
// Register conventions shared by the count loops:
//   Y7 = nibble mask (0x0f bytes)   Y6 = popcount LUT (16 bytes x2)
//   Y5 = zero                       Y4 = qword accumulator
//   AX/BX/DX = row pointers         CX = words remaining
//   R8 = scalar accumulator

DATA popLUT<>+0x00(SB)/8, $0x0302020102010100 // popcounts of 0..7
DATA popLUT<>+0x08(SB)/8, $0x0403030203020201 // popcounts of 8..15
DATA popLUT<>+0x10(SB)/8, $0x0302020102010100 // repeated for the high lane
DATA popLUT<>+0x18(SB)/8, $0x0403030203020201
GLOBL popLUT<>(SB), RODATA|NOPTR, $32

DATA nibMask<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+0x10(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+0x18(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibMask<>(SB), RODATA|NOPTR, $32

// popcountYmm adds the per-qword popcounts of Y0 into Y4.
// Clobbers Y0, Y1. Requires Y5=0, Y6=LUT, Y7=nibble mask.
#define popcountYmm \
	VPAND   Y7, Y0, Y1   \ // low nibbles
	VPSRLW  $4, Y0, Y0   \
	VPAND   Y7, Y0, Y0   \ // high nibbles
	VPSHUFB Y1, Y6, Y1   \
	VPSHUFB Y0, Y6, Y0   \
	VPADDB  Y1, Y0, Y0   \ // per-byte popcounts
	VPSADBW Y5, Y0, Y0   \ // horizontal-sum bytes into qwords
	VPADDQ  Y0, Y4, Y4

// foldAcc folds the Y4 qword accumulator into R8 and clears YMM state.
#define foldAcc \
	VEXTRACTI128 $1, Y4, X0 \
	VPADDQ       X0, X4, X0 \
	VPSHUFD      $0xee, X0, X1 \
	VPADDQ       X1, X0, X0 \
	VMOVQ        X0, R9 \
	ADDQ         R9, R8 \
	VZEROUPPER

#define loadCountConsts \
	VMOVDQU nibMask<>(SB), Y7 \
	VMOVDQU popLUT<>(SB), Y6  \
	VPXOR   Y5, Y5, Y5        \
	VPXOR   Y4, Y4, Y4

// func andCountAsm(a, b *uint64, n int) int
TEXT ·andCountAsm(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), AX
	MOVQ b+8(FP), BX
	MOVQ n+16(FP), CX
	XORQ R8, R8
	CMPQ CX, $8
	JL   acTail
	loadCountConsts

acLoop8:
	VMOVDQU (AX), Y0
	VPAND   (BX), Y0, Y0
	popcountYmm
	VMOVDQU 32(AX), Y0
	VPAND   32(BX), Y0, Y0
	popcountYmm
	ADDQ $64, AX
	ADDQ $64, BX
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  acLoop8
	foldAcc

acTail:
	TESTQ CX, CX
	JZ    acDone
	MOVQ  (AX), R9
	ANDQ  (BX), R9
	POPCNTQ R9, R9
	ADDQ  R9, R8
	ADDQ  $8, AX
	ADDQ  $8, BX
	DECQ  CX
	JMP   acTail

acDone:
	MOVQ R8, ret+24(FP)
	RET

// func andToAsm(dst, a, b *uint64, n int)
TEXT ·andToAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DX
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	CMPQ CX, $8
	JL   atTail

atLoop8:
	VMOVDQU (AX), Y0
	VPAND   (BX), Y0, Y0
	VMOVDQU Y0, (DX)
	VMOVDQU 32(AX), Y1
	VPAND   32(BX), Y1, Y1
	VMOVDQU Y1, 32(DX)
	ADDQ $64, AX
	ADDQ $64, BX
	ADDQ $64, DX
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  atLoop8
	VZEROUPPER

atTail:
	TESTQ CX, CX
	JZ    atDone
	MOVQ  (AX), R9
	ANDQ  (BX), R9
	MOVQ  R9, (DX)
	ADDQ  $8, AX
	ADDQ  $8, BX
	ADDQ  $8, DX
	DECQ  CX
	JMP   atTail

atDone:
	RET

// func andCountToAsm(dst, a, b *uint64, n int) int
TEXT ·andCountToAsm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	XORQ R8, R8
	CMPQ CX, $8
	JL   actTail
	loadCountConsts

actLoop8:
	VMOVDQU (AX), Y0
	VPAND   (BX), Y0, Y0
	VMOVDQU Y0, (DX)
	popcountYmm
	VMOVDQU 32(AX), Y0
	VPAND   32(BX), Y0, Y0
	VMOVDQU Y0, 32(DX)
	popcountYmm
	ADDQ $64, AX
	ADDQ $64, BX
	ADDQ $64, DX
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  actLoop8
	foldAcc

actTail:
	TESTQ CX, CX
	JZ    actDone
	MOVQ  (AX), R9
	ANDQ  (BX), R9
	MOVQ  R9, (DX)
	POPCNTQ R9, R9
	ADDQ  R9, R8
	ADDQ  $8, AX
	ADDQ  $8, BX
	ADDQ  $8, DX
	DECQ  CX
	JMP   actTail

actDone:
	MOVQ R8, ret+32(FP)
	RET

// func orWithAsm(dst, a *uint64, n int)
TEXT ·orWithAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DX
	MOVQ a+8(FP), AX
	MOVQ n+16(FP), CX
	CMPQ CX, $8
	JL   owTail

owLoop8:
	VMOVDQU (DX), Y0
	VPOR    (AX), Y0, Y0
	VMOVDQU Y0, (DX)
	VMOVDQU 32(DX), Y1
	VPOR    32(AX), Y1, Y1
	VMOVDQU Y1, 32(DX)
	ADDQ $64, AX
	ADDQ $64, DX
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  owLoop8
	VZEROUPPER

owTail:
	TESTQ CX, CX
	JZ    owDone
	MOVQ  (DX), R9
	ORQ   (AX), R9
	MOVQ  R9, (DX)
	ADDQ  $8, AX
	ADDQ  $8, DX
	DECQ  CX
	JMP   owTail

owDone:
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
