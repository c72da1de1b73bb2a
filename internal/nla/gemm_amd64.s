// AVX2+FMA micro-kernel of the packed GEMM: an 8×4 block of C lives in
// eight YMM accumulators (two 4-double rows by four broadcast columns)
// while the packed panels stream through. Only used after gemm_amd64.go
// has verified AVX2, FMA and OS YMM-state support via CPUID/XGETBV.

#include "textflag.h"

// func dgemm8x4asm(kc int, ap, bp, acc *float64)
// acc is a 32-element column-major 8×4 accumulator (LD 8), overwritten.
TEXT ·dgemm8x4asm(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JZ   store

loop:
	VMOVUPD (SI), Y8        // a rows 0..3
	VMOVUPD 32(SI), Y9      // a rows 4..7
	VBROADCASTSD (DI), Y10  // b col 0
	VBROADCASTSD 8(DI), Y11 // b col 1
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD 16(DI), Y10 // b col 2
	VBROADCASTSD 24(DI), Y11 // b col 3
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	VFMADD231PD Y8, Y11, Y6
	VFMADD231PD Y9, Y11, Y7
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// AVX-512F micro-kernel of the packed GEMM: a 16×8 block of C lives in
// sixteen ZMM accumulators (two 8-double rows by eight broadcast columns),
// Z(2q) and Z(2q+1) holding column q. Per packed row l it is the AVX2
// kernel's step at twice the width: acc += a(l)·b(l) as one FMA per
// element, ascending l, from zero; so every element is the same FMA chain
// as there, and the result bits are the same. Only used after
// gemm_amd64.go has verified AVX-512F and OS ZMM-state support.
// KERNEL16x8 expects kc in CX (> 0), the packed A panel in SI and the
// packed B panel in DI.
#define KERNEL16x8 \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	VPXORQ Z4, Z4, Z4; \
	VPXORQ Z5, Z5, Z5; \
	VPXORQ Z6, Z6, Z6; \
	VPXORQ Z7, Z7, Z7; \
	VPXORQ Z8, Z8, Z8; \
	VPXORQ Z9, Z9, Z9; \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; \
	VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; \
	VPXORQ Z15, Z15, Z15; \
loop16x8: \
	VMOVUPD (SI), Z16; \
	VMOVUPD 64(SI), Z17; \
	VBROADCASTSD 0(DI), Z18; \
	VFMADD231PD Z16, Z18, Z0; \
	VFMADD231PD Z17, Z18, Z1; \
	VBROADCASTSD 8(DI), Z19; \
	VFMADD231PD Z16, Z19, Z2; \
	VFMADD231PD Z17, Z19, Z3; \
	VBROADCASTSD 16(DI), Z20; \
	VFMADD231PD Z16, Z20, Z4; \
	VFMADD231PD Z17, Z20, Z5; \
	VBROADCASTSD 24(DI), Z21; \
	VFMADD231PD Z16, Z21, Z6; \
	VFMADD231PD Z17, Z21, Z7; \
	VBROADCASTSD 32(DI), Z18; \
	VFMADD231PD Z16, Z18, Z8; \
	VFMADD231PD Z17, Z18, Z9; \
	VBROADCASTSD 40(DI), Z19; \
	VFMADD231PD Z16, Z19, Z10; \
	VFMADD231PD Z17, Z19, Z11; \
	VBROADCASTSD 48(DI), Z20; \
	VFMADD231PD Z16, Z20, Z12; \
	VFMADD231PD Z17, Z20, Z13; \
	VBROADCASTSD 56(DI), Z21; \
	VFMADD231PD Z16, Z21, Z14; \
	VFMADD231PD Z17, Z21, Z15; \
	ADDQ $128, SI; \
	ADDQ $64, DI; \
	DECQ CX; \
	JNZ  loop16x8

// func dgemm16x8asm(kc int, ap, bp, acc *float64)
// acc is a 128-element column-major 16×8 accumulator (LD 16), overwritten:
// the edge tiles' path, clipped into C by storeAcc. Requires kc > 0.
TEXT ·dgemm16x8asm(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX
	KERNEL16x8
	VMOVUPD Z0, 0(DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, 128(DX)
	VMOVUPD Z3, 192(DX)
	VMOVUPD Z4, 256(DX)
	VMOVUPD Z5, 320(DX)
	VMOVUPD Z6, 384(DX)
	VMOVUPD Z7, 448(DX)
	VMOVUPD Z8, 512(DX)
	VMOVUPD Z9, 576(DX)
	VMOVUPD Z10, 640(DX)
	VMOVUPD Z11, 704(DX)
	VMOVUPD Z12, 768(DX)
	VMOVUPD Z13, 832(DX)
	VMOVUPD Z14, 896(DX)
	VMOVUPD Z15, 960(DX)
	VZEROUPPER
	RET

// func dgemm16x8addasm(kc int, ap, bp, c *float64, ldc int, alpha float64)
// C(0:16, 0:8) += alpha·acc for a full tile of C at c with leading
// dimension ldc: each element is alpha·acc rounded, then added to C, as
// storeAcc computes it (alpha = 1 multiplies exactly). Requires kc > 0.
TEXT ·dgemm16x8addasm(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8
	KERNEL16x8
	VBROADCASTSD alpha+40(FP), Z16
	VMULPD Z16, Z0, Z0
	VADDPD (DX), Z0, Z0
	VMOVUPD Z0, (DX)
	VMULPD Z16, Z1, Z1
	VADDPD 64(DX), Z1, Z1
	VMOVUPD Z1, 64(DX)
	ADDQ R8, DX
	VMULPD Z16, Z2, Z2
	VADDPD (DX), Z2, Z2
	VMOVUPD Z2, (DX)
	VMULPD Z16, Z3, Z3
	VADDPD 64(DX), Z3, Z3
	VMOVUPD Z3, 64(DX)
	ADDQ R8, DX
	VMULPD Z16, Z4, Z4
	VADDPD (DX), Z4, Z4
	VMOVUPD Z4, (DX)
	VMULPD Z16, Z5, Z5
	VADDPD 64(DX), Z5, Z5
	VMOVUPD Z5, 64(DX)
	ADDQ R8, DX
	VMULPD Z16, Z6, Z6
	VADDPD (DX), Z6, Z6
	VMOVUPD Z6, (DX)
	VMULPD Z16, Z7, Z7
	VADDPD 64(DX), Z7, Z7
	VMOVUPD Z7, 64(DX)
	ADDQ R8, DX
	VMULPD Z16, Z8, Z8
	VADDPD (DX), Z8, Z8
	VMOVUPD Z8, (DX)
	VMULPD Z16, Z9, Z9
	VADDPD 64(DX), Z9, Z9
	VMOVUPD Z9, 64(DX)
	ADDQ R8, DX
	VMULPD Z16, Z10, Z10
	VADDPD (DX), Z10, Z10
	VMOVUPD Z10, (DX)
	VMULPD Z16, Z11, Z11
	VADDPD 64(DX), Z11, Z11
	VMOVUPD Z11, 64(DX)
	ADDQ R8, DX
	VMULPD Z16, Z12, Z12
	VADDPD (DX), Z12, Z12
	VMOVUPD Z12, (DX)
	VMULPD Z16, Z13, Z13
	VADDPD 64(DX), Z13, Z13
	VMOVUPD Z13, 64(DX)
	ADDQ R8, DX
	VMULPD Z16, Z14, Z14
	VADDPD (DX), Z14, Z14
	VMOVUPD Z14, (DX)
	VMULPD Z16, Z15, Z15
	VADDPD 64(DX), Z15, Z15
	VMOVUPD Z15, 64(DX)
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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
