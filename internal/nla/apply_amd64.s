// AVX2+FMA micro-kernels for the Householder-apply primitives: 4-way
// register-blocked dot products and scaled-column updates over shared
// streams. Main loops run 8 doubles per iteration (two YMM halves), a
// 4-wide block and a scalar FMA loop mop up the tail. rotseqasm, the
// plane-rotation sweep, closes the file. Only used after
// gemm_amd64.go has verified AVX2, FMA and OS YMM-state support.

#include "textflag.h"

// func dot4asm(n int, x, y0, y1, y2, y3 *float64) (s0, s1, s2, s3 float64)
// Four inner products sharing x: s_q = Σ x[i]·y_q[i]. Eight independent
// accumulator chains (two per output) hide the FMA latency.
TEXT ·dot4asm(SB), NOSPLIT, $0-80
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	MOVQ y0+16(FP), R8
	MOVQ y1+24(FP), R9
	MOVQ y2+32(FP), R10
	MOVQ y3+40(FP), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   dot4tail4

dot4loop8:
	VMOVUPD (SI)(AX*1), Y8
	VMOVUPD 32(SI)(AX*1), Y9
	VMOVUPD (R8)(AX*1), Y10
	VMOVUPD 32(R8)(AX*1), Y11
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y11, Y4
	VMOVUPD (R9)(AX*1), Y10
	VMOVUPD 32(R9)(AX*1), Y11
	VFMADD231PD Y8, Y10, Y1
	VFMADD231PD Y9, Y11, Y5
	VMOVUPD (R10)(AX*1), Y10
	VMOVUPD 32(R10)(AX*1), Y11
	VFMADD231PD Y8, Y10, Y2
	VFMADD231PD Y9, Y11, Y6
	VMOVUPD (R11)(AX*1), Y10
	VMOVUPD 32(R11)(AX*1), Y11
	VFMADD231PD Y8, Y10, Y3
	VFMADD231PD Y9, Y11, Y7
	ADDQ $64, AX
	DECQ DX
	JNZ  dot4loop8

dot4tail4:
	TESTQ $4, CX
	JZ    dot4reduce
	VMOVUPD (SI)(AX*1), Y8
	VMOVUPD (R8)(AX*1), Y10
	VFMADD231PD Y8, Y10, Y0
	VMOVUPD (R9)(AX*1), Y10
	VFMADD231PD Y8, Y10, Y1
	VMOVUPD (R10)(AX*1), Y10
	VFMADD231PD Y8, Y10, Y2
	VMOVUPD (R11)(AX*1), Y10
	VFMADD231PD Y8, Y10, Y3
	ADDQ $32, AX

dot4reduce:
	// Fold the odd chains into the even ones, then each YMM to a scalar.
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VHADDPD X0, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPD X8, X1, X1
	VHADDPD X1, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPD X8, X2, X2
	VHADDPD X2, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPD X8, X3, X3
	VHADDPD X3, X3, X3
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   dot4store

dot4scalar:
	VMOVSD (SI)(AX*1), X8
	VMOVSD (R8)(AX*1), X9
	VFMADD231SD X8, X9, X0
	VMOVSD (R9)(AX*1), X9
	VFMADD231SD X8, X9, X1
	VMOVSD (R10)(AX*1), X9
	VFMADD231SD X8, X9, X2
	VMOVSD (R11)(AX*1), X9
	VFMADD231SD X8, X9, X3
	ADDQ $8, AX
	DECQ DX
	JNZ  dot4scalar

dot4store:
	VMOVSD X0, s0+48(FP)
	VMOVSD X1, s1+56(FP)
	VMOVSD X2, s2+64(FP)
	VMOVSD X3, s3+72(FP)
	VZEROUPPER
	RET

// func axpy4asm(n int, a0, a1, a2, a3 float64, x, y0, y1, y2, y3 *float64)
// Four scaled additions sharing x: y_q[i] += a_q·x[i].
TEXT ·axpy4asm(SB), NOSPLIT, $0-80
	MOVQ n+0(FP), CX
	MOVQ x+40(FP), SI
	MOVQ y0+48(FP), R8
	MOVQ y1+56(FP), R9
	MOVQ y2+64(FP), R10
	MOVQ y3+72(FP), R11
	VBROADCASTSD a0+8(FP), Y12
	VBROADCASTSD a1+16(FP), Y13
	VBROADCASTSD a2+24(FP), Y14
	VBROADCASTSD a3+32(FP), Y15
	XORQ AX, AX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   axpy4tail4

axpy4loop8:
	VMOVUPD (SI)(AX*1), Y8
	VMOVUPD 32(SI)(AX*1), Y9
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD 32(R8)(AX*1), Y1
	VFMADD231PD Y8, Y12, Y0
	VFMADD231PD Y9, Y12, Y1
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD Y1, 32(R8)(AX*1)
	VMOVUPD (R9)(AX*1), Y2
	VMOVUPD 32(R9)(AX*1), Y3
	VFMADD231PD Y8, Y13, Y2
	VFMADD231PD Y9, Y13, Y3
	VMOVUPD Y2, (R9)(AX*1)
	VMOVUPD Y3, 32(R9)(AX*1)
	VMOVUPD (R10)(AX*1), Y4
	VMOVUPD 32(R10)(AX*1), Y5
	VFMADD231PD Y8, Y14, Y4
	VFMADD231PD Y9, Y14, Y5
	VMOVUPD Y4, (R10)(AX*1)
	VMOVUPD Y5, 32(R10)(AX*1)
	VMOVUPD (R11)(AX*1), Y6
	VMOVUPD 32(R11)(AX*1), Y7
	VFMADD231PD Y8, Y15, Y6
	VFMADD231PD Y9, Y15, Y7
	VMOVUPD Y6, (R11)(AX*1)
	VMOVUPD Y7, 32(R11)(AX*1)
	ADDQ $64, AX
	DECQ DX
	JNZ  axpy4loop8

axpy4tail4:
	TESTQ $4, CX
	JZ    axpy4scalarcnt
	VMOVUPD (SI)(AX*1), Y8
	VMOVUPD (R8)(AX*1), Y0
	VFMADD231PD Y8, Y12, Y0
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD (R9)(AX*1), Y1
	VFMADD231PD Y8, Y13, Y1
	VMOVUPD Y1, (R9)(AX*1)
	VMOVUPD (R10)(AX*1), Y2
	VFMADD231PD Y8, Y14, Y2
	VMOVUPD Y2, (R10)(AX*1)
	VMOVUPD (R11)(AX*1), Y3
	VFMADD231PD Y8, Y15, Y3
	VMOVUPD Y3, (R11)(AX*1)
	ADDQ $32, AX

axpy4scalarcnt:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   axpy4done

axpy4scalar:
	VMOVSD (SI)(AX*1), X8
	VMOVSD (R8)(AX*1), X0
	VFMADD231SD X8, X12, X0
	VMOVSD X0, (R8)(AX*1)
	VMOVSD (R9)(AX*1), X1
	VFMADD231SD X8, X13, X1
	VMOVSD X1, (R9)(AX*1)
	VMOVSD (R10)(AX*1), X2
	VFMADD231SD X8, X14, X2
	VMOVSD X2, (R10)(AX*1)
	VMOVSD (R11)(AX*1), X3
	VFMADD231SD X8, X15, X3
	VMOVSD X3, (R11)(AX*1)
	ADDQ $8, AX
	DECQ DX
	JNZ  axpy4scalar

axpy4done:
	VZEROUPPER
	RET

// func gaxpy4asm(n int, a0, a1, a2, a3 float64, x0, x1, x2, x3, y *float64)
// Gathered update: y[i] += a0·x0[i] + a1·x1[i] + a2·x2[i] + a3·x3[i],
// one destination load/store per four source columns.
TEXT ·gaxpy4asm(SB), NOSPLIT, $0-80
	MOVQ n+0(FP), CX
	MOVQ x0+40(FP), R8
	MOVQ x1+48(FP), R9
	MOVQ x2+56(FP), R10
	MOVQ x3+64(FP), R11
	MOVQ y+72(FP), DI
	VBROADCASTSD a0+8(FP), Y12
	VBROADCASTSD a1+16(FP), Y13
	VBROADCASTSD a2+24(FP), Y14
	VBROADCASTSD a3+32(FP), Y15
	XORQ AX, AX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   gaxpy4tail4

gaxpy4loop8:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD (R8)(AX*1), Y8
	VMOVUPD 32(R8)(AX*1), Y9
	VFMADD231PD Y8, Y12, Y0
	VFMADD231PD Y9, Y12, Y1
	VMOVUPD (R9)(AX*1), Y8
	VMOVUPD 32(R9)(AX*1), Y9
	VFMADD231PD Y8, Y13, Y0
	VFMADD231PD Y9, Y13, Y1
	VMOVUPD (R10)(AX*1), Y8
	VMOVUPD 32(R10)(AX*1), Y9
	VFMADD231PD Y8, Y14, Y0
	VFMADD231PD Y9, Y14, Y1
	VMOVUPD (R11)(AX*1), Y8
	VMOVUPD 32(R11)(AX*1), Y9
	VFMADD231PD Y8, Y15, Y0
	VFMADD231PD Y9, Y15, Y1
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	ADDQ $64, AX
	DECQ DX
	JNZ  gaxpy4loop8

gaxpy4tail4:
	TESTQ $4, CX
	JZ    gaxpy4scalarcnt
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (R8)(AX*1), Y8
	VFMADD231PD Y8, Y12, Y0
	VMOVUPD (R9)(AX*1), Y8
	VFMADD231PD Y8, Y13, Y0
	VMOVUPD (R10)(AX*1), Y8
	VFMADD231PD Y8, Y14, Y0
	VMOVUPD (R11)(AX*1), Y8
	VFMADD231PD Y8, Y15, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX

gaxpy4scalarcnt:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   gaxpy4done

gaxpy4scalar:
	VMOVSD (DI)(AX*1), X0
	VMOVSD (R8)(AX*1), X8
	VFMADD231SD X8, X12, X0
	VMOVSD (R9)(AX*1), X8
	VFMADD231SD X8, X13, X0
	VMOVSD (R10)(AX*1), X8
	VFMADD231SD X8, X14, X0
	VMOVSD (R11)(AX*1), X8
	VFMADD231SD X8, X15, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ $8, AX
	DECQ DX
	JNZ  gaxpy4scalar

gaxpy4done:
	VZEROUPPER
	RET

// func rotseqasm(m, k int, a *float64, stride int, c, s *float64)
// k plane rotations on consecutive columns of an m-row block: with x_t
// the column at a + t·stride (stride in bytes, possibly negative),
//	x_t ← c[t]·x_t + s[t]·x_{t+1},   x_{t+1} ← c[t]·x_{t+1} − s[t]·x_t
// for t = 0 … k−1 in order. Rows are taken 16, then 4, then 1 at a time;
// for each group of rows the running column x_{t+1} stays in registers
// from one rotation to the next, so every element is loaded and stored
// once per sweep. Both products with x_{t+1}'s old value are formed
// before the FMAs that fold in the running column, which keeps the
// loop-carried dependence to one FMA per rotation. Requires m, k ≥ 1.
TEXT ·rotseqasm(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), CX
	MOVQ k+8(FP), R12
	MOVQ a+16(FP), SI
	MOVQ stride+24(FP), R13
	MOVQ c+32(FP), R8
	MOVQ s+40(FP), R9

rotrows16:
	CMPQ CX, $16
	JLT  rotrows4
	MOVQ SI, DI
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ AX, AX
	MOVQ R12, DX

rotloop16:
	VBROADCASTSD (R8)(AX*1), Y12
	VBROADCASTSD (R9)(AX*1), Y13
	LEAQ (DI)(R13*1), BX
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD 64(BX), Y6
	VMOVUPD 96(BX), Y7
	VMULPD Y13, Y4, Y8
	VMULPD Y13, Y5, Y9
	VMULPD Y13, Y6, Y10
	VMULPD Y13, Y7, Y11
	VMULPD Y12, Y4, Y4
	VMULPD Y12, Y5, Y5
	VMULPD Y12, Y6, Y6
	VMULPD Y12, Y7, Y7
	VFMADD231PD Y12, Y0, Y8
	VFMADD231PD Y12, Y1, Y9
	VFMADD231PD Y12, Y2, Y10
	VFMADD231PD Y12, Y3, Y11
	VFNMADD213PD Y4, Y13, Y0
	VFNMADD213PD Y5, Y13, Y1
	VFNMADD213PD Y6, Y13, Y2
	VFNMADD213PD Y7, Y13, Y3
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
	VMOVUPD Y11, 96(DI)
	MOVQ BX, DI
	ADDQ $8, AX
	DECQ DX
	JNZ  rotloop16
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, SI
	SUBQ $16, CX
	JMP  rotrows16

rotrows4:
	CMPQ CX, $4
	JLT  rotrows1
	MOVQ SI, DI
	VMOVUPD (DI), Y0
	XORQ AX, AX
	MOVQ R12, DX

rotloop4:
	VBROADCASTSD (R8)(AX*1), Y12
	VBROADCASTSD (R9)(AX*1), Y13
	LEAQ (DI)(R13*1), BX
	VMOVUPD (BX), Y4
	VMULPD Y13, Y4, Y8
	VMULPD Y12, Y4, Y4
	VFMADD231PD Y12, Y0, Y8
	VFNMADD213PD Y4, Y13, Y0
	VMOVUPD Y8, (DI)
	MOVQ BX, DI
	ADDQ $8, AX
	DECQ DX
	JNZ  rotloop4
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  rotrows4

rotrows1:
	TESTQ CX, CX
	JZ    rotdone
	MOVQ SI, DI
	VMOVSD (DI), X0
	XORQ AX, AX
	MOVQ R12, DX

rotloop1:
	VMOVSD (R8)(AX*1), X12
	VMOVSD (R9)(AX*1), X13
	LEAQ (DI)(R13*1), BX
	VMOVSD (BX), X4
	VMULSD X13, X4, X8
	VMULSD X12, X4, X4
	VFMADD231SD X12, X0, X8
	VFNMADD213SD X4, X13, X0
	VMOVSD X8, (DI)
	MOVQ BX, DI
	ADDQ $8, AX
	DECQ DX
	JNZ  rotloop1
	VMOVSD X0, (DI)
	ADDQ $8, SI
	DECQ CX
	JMP  rotrows1

rotdone:
	VZEROUPPER
	RET
