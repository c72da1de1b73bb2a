// AVX2+FMA micro-kernels for the Householder-apply primitives: 4-way
// register-blocked dot products and scaled-column updates over shared
// streams. Main loops run 8 doubles per iteration (two YMM halves), a
// 4-wide block and a scalar FMA loop mop up the tail. rotseqasm, the
// plane-rotation sweep, and the fused T multiplies close the file. Only
// used after gemm_amd64.go has verified AVX2, FMA and OS YMM-state
// support.

#include "textflag.h"
#include "apply_amd64.h"

// func dot4asm(n int, x, y0, y1, y2, y3 *float64) (s0, s1, s2, s3 float64)
// Four inner products sharing x: s_q = Σ x[i]·y_q[i].
TEXT ·dot4asm(SB), NOSPLIT, $0-80
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	MOVQ y0+16(FP), R8
	MOVQ y1+24(FP), R9
	MOVQ y2+32(FP), R10
	MOVQ y3+40(FP), R11
	XORQ AX, AX
	DOT4ROW
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

// The fused T multiplies of TrmvApplyWS and TrmvApplyRight: one call
// runs a whole op(T)·W or W·op(T) that the Go forms (trmvTransGroups,
// trmvNoTransGroups, trmvRightGo) issue as one Dot4 or Scal/Gaxpy4 call
// per row or column. They repeat those calls' arithmetic element by
// element, so the results are the same bits.

// ROWSTORE finishes row BX of the four columns at R8…R11 from the sums in
// X0…X3 and d = (SI)(BX*8): w_q[i] = d·w_q[i] + s_q, a rounded product
// and then the add, as the Go forms compute it.
#define ROWSTORE \
	VMOVSD (SI)(BX*8), X8; \
	VMULSD (R8)(BX*8), X8, X9; \
	VADDSD X0, X9, X9; \
	VMOVSD X9, (R8)(BX*8); \
	VMULSD (R9)(BX*8), X8, X9; \
	VADDSD X1, X9, X9; \
	VMOVSD X9, (R9)(BX*8); \
	VMULSD (R10)(BX*8), X8, X9; \
	VADDSD X2, X9, X9; \
	VMOVSD X9, (R10)(BX*8); \
	VMULSD (R11)(BX*8), X8, X9; \
	VADDSD X3, X9, X9; \
	VMOVSD X9, (R11)(BX*8)

// func trmvt4asm(k, n4 int, t *float64, ldt int, w *float64, ldw int)
// w ← Tᵀ·w on the first n4 (a multiple of 4, > 0) columns of the k×n4
// panel w, four columns at a time: for i = k−1 … 0,
// w_q[i] = T(i,i)·w_q[i] + Dot4(T(0:i, i), w_q[0:i]). Requires k ≥ 1.
TEXT ·trmvt4asm(SB), NOSPLIT, $0-48
	MOVQ ldt+24(FP), R12
	SHLQ $3, R12
	MOVQ ldw+40(FP), R13
	SHLQ $3, R13
	MOVQ w+32(FP), R8
	MOVQ n4+8(FP), DI
	SHRQ $2, DI

t4group:
	LEAQ (R8)(R13*1), R9
	LEAQ (R9)(R13*1), R10
	LEAQ (R10)(R13*1), R11
	MOVQ k+0(FP), BX
	DECQ BX
	MOVQ BX, AX
	IMULQ R12, AX
	MOVQ t+16(FP), SI
	ADDQ AX, SI

t4row:
	MOVQ BX, CX
	XORQ AX, AX
	DOT4ROW
	ROWSTORE
	SUBQ R12, SI
	DECQ BX
	JGE  t4row
	LEAQ (R11)(R13*1), R8
	DECQ DI
	JNZ  t4group
	VZEROUPPER
	RET

// func trmvn4asm(k, n4 int, tt, w *float64, ldw int)
// w ← T·w on the first n4 (a multiple of 4, > 0) columns of w against
// the staged transpose tt (LD k, column i = T(i, i:k)): for i = 0 … k−1,
// w_q[i] = tt[i·k+i]·w_q[i] + Dot4(tt[i·k+i+1 : i·k+k], w_q[i+1:k]).
// Requires k ≥ 1.
TEXT ·trmvn4asm(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), R12
	SHLQ $3, R12
	MOVQ ldw+32(FP), R13
	SHLQ $3, R13
	MOVQ w+24(FP), R8
	MOVQ n4+8(FP), DI
	SHRQ $2, DI

n4group:
	LEAQ (R8)(R13*1), R9
	LEAQ (R9)(R13*1), R10
	LEAQ (R10)(R13*1), R11
	XORQ BX, BX
	MOVQ tt+16(FP), SI

n4row:
	// SI is staged column i; the dot runs over rows i+1 … k−1 of it and
	// of the w columns, from byte offset (i+1)·8.
	MOVQ k+0(FP), CX
	SUBQ BX, CX
	DECQ CX
	MOVQ BX, AX
	INCQ AX
	SHLQ $3, AX
	DOT4ROW
	ROWSTORE
	ADDQ R12, SI
	INCQ BX
	CMPQ BX, k+0(FP)
	JLT  n4row
	LEAQ (R11)(R13*1), R8
	DECQ DI
	JNZ  n4group
	VZEROUPPER
	RET

// func trmvrasm(trans bool, m, k int, t *float64, ldt int, w *float64, ldw int)
// w ← w·T (trans) or w·Tᵀ on the m×k panel w, m, k ≥ 1. Destination
// column j takes, element by element and in this order, Scal by T(j,j),
// one Gaxpy4 FMA chain per group of four source columns, and a rounded
// product then an add per remaining source column — trmvRightGo's
// sequence. Source columns are l < j for trans (j descending) and l > j
// otherwise (j ascending), so they are still original when read. Rows go
// 32, then 4, then 1 at a time, the destination block staying in
// registers across all of its source columns.
//
// Per column: DI destination column, BX &T(j,j), R8 the coefficient of
// the first source column and R9 the byte step between coefficients,
// R10 the first source column, R11 ldw in bytes, R12 the source count.
// Per row block: AX its byte offset, CX rows left, SI and DX the running
// coefficient and source pointers, R13 a counter.
TEXT ·trmvrasm(SB), NOSPLIT, $8-56
	MOVQ ldw+48(FP), R11
	SHLQ $3, R11
	CMPB trans+0(FP), $0
	JEQ  rnstart

	// trans: j = k−1 … 0, sources l = 0 … j−1, coefficients T(l,j).
	MOVQ k+16(FP), AX
	DECQ AX
	MOVQ AX, j-8(SP)
	MOVQ $8, R9

rtcol:
	MOVQ j-8(SP), R12
	MOVQ R12, DI
	IMULQ R11, DI
	ADDQ w+40(FP), DI
	MOVQ w+40(FP), R10
	MOVQ ldt+32(FP), BX
	IMULQ R12, BX
	ADDQ R12, BX
	SHLQ $3, BX
	ADDQ t+24(FP), BX
	MOVQ R12, AX
	SHLQ $3, AX
	MOVQ BX, R8
	SUBQ AX, R8
	JMP  rcolumn

rtnext:
	DECQ j-8(SP)
	JGE  rtcol
	JMP  rdone

	// no trans: j = 0 … k−1, sources l = j+1 … k−1, coefficients T(j,l).
rnstart:
	MOVQ $0, j-8(SP)
	MOVQ ldt+32(FP), R9
	SHLQ $3, R9

rncol:
	MOVQ j-8(SP), AX
	MOVQ k+16(FP), R12
	SUBQ AX, R12
	DECQ R12
	MOVQ AX, DI
	IMULQ R11, DI
	ADDQ w+40(FP), DI
	LEAQ (DI)(R11*1), R10
	MOVQ ldt+32(FP), BX
	IMULQ AX, BX
	ADDQ AX, BX
	SHLQ $3, BX
	ADDQ t+24(FP), BX
	LEAQ (BX)(R9*1), R8
	JMP  rcolumn

rnnext:
	INCQ j-8(SP)
	MOVQ j-8(SP), AX
	CMPQ AX, k+16(FP)
	JLT  rncol
	JMP  rdone

rcolumn:
	MOVQ m+8(FP), CX
	XORQ AX, AX

rrows32:
	CMPQ CX, $32
	JLT  rrows4
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD 64(DI)(AX*1), Y2
	VMOVUPD 96(DI)(AX*1), Y3
	VMOVUPD 128(DI)(AX*1), Y4
	VMOVUPD 160(DI)(AX*1), Y5
	VMOVUPD 192(DI)(AX*1), Y6
	VMOVUPD 224(DI)(AX*1), Y7
	VBROADCASTSD (BX), Y12
	VMULPD Y12, Y0, Y0
	VMULPD Y12, Y1, Y1
	VMULPD Y12, Y2, Y2
	VMULPD Y12, Y3, Y3
	VMULPD Y12, Y4, Y4
	VMULPD Y12, Y5, Y5
	VMULPD Y12, Y6, Y6
	VMULPD Y12, Y7, Y7
	MOVQ R8, SI
	LEAQ (R10)(AX*1), DX
	MOVQ R12, R13
	SHRQ $2, R13
	JZ   r32rem

r32grp:
	VBROADCASTSD (SI), Y12
	VBROADCASTSD (SI)(R9*1), Y13
	VBROADCASTSD (SI)(R9*2), Y14
	LEAQ (SI)(R9*2), SI
	VBROADCASTSD (SI)(R9*1), Y15
	LEAQ (SI)(R9*2), SI
	VFMADD231PD (DX), Y12, Y0
	VFMADD231PD 32(DX), Y12, Y1
	VFMADD231PD 64(DX), Y12, Y2
	VFMADD231PD 96(DX), Y12, Y3
	VFMADD231PD 128(DX), Y12, Y4
	VFMADD231PD 160(DX), Y12, Y5
	VFMADD231PD 192(DX), Y12, Y6
	VFMADD231PD 224(DX), Y12, Y7
	VFMADD231PD (DX)(R11*1), Y13, Y0
	VFMADD231PD 32(DX)(R11*1), Y13, Y1
	VFMADD231PD 64(DX)(R11*1), Y13, Y2
	VFMADD231PD 96(DX)(R11*1), Y13, Y3
	VFMADD231PD 128(DX)(R11*1), Y13, Y4
	VFMADD231PD 160(DX)(R11*1), Y13, Y5
	VFMADD231PD 192(DX)(R11*1), Y13, Y6
	VFMADD231PD 224(DX)(R11*1), Y13, Y7
	VFMADD231PD (DX)(R11*2), Y14, Y0
	VFMADD231PD 32(DX)(R11*2), Y14, Y1
	VFMADD231PD 64(DX)(R11*2), Y14, Y2
	VFMADD231PD 96(DX)(R11*2), Y14, Y3
	VFMADD231PD 128(DX)(R11*2), Y14, Y4
	VFMADD231PD 160(DX)(R11*2), Y14, Y5
	VFMADD231PD 192(DX)(R11*2), Y14, Y6
	VFMADD231PD 224(DX)(R11*2), Y14, Y7
	LEAQ (DX)(R11*2), DX
	VFMADD231PD (DX)(R11*1), Y15, Y0
	VFMADD231PD 32(DX)(R11*1), Y15, Y1
	VFMADD231PD 64(DX)(R11*1), Y15, Y2
	VFMADD231PD 96(DX)(R11*1), Y15, Y3
	VFMADD231PD 128(DX)(R11*1), Y15, Y4
	VFMADD231PD 160(DX)(R11*1), Y15, Y5
	VFMADD231PD 192(DX)(R11*1), Y15, Y6
	VFMADD231PD 224(DX)(R11*1), Y15, Y7
	LEAQ (DX)(R11*2), DX
	DECQ R13
	JNZ  r32grp

r32rem:
	MOVQ R12, R13
	ANDQ $3, R13
	JZ   r32store

r32remloop:
	VBROADCASTSD (SI), Y12
	VMULPD (DX), Y12, Y8
	VADDPD Y8, Y0, Y0
	VMULPD 32(DX), Y12, Y9
	VADDPD Y9, Y1, Y1
	VMULPD 64(DX), Y12, Y10
	VADDPD Y10, Y2, Y2
	VMULPD 96(DX), Y12, Y11
	VADDPD Y11, Y3, Y3
	VMULPD 128(DX), Y12, Y8
	VADDPD Y8, Y4, Y4
	VMULPD 160(DX), Y12, Y9
	VADDPD Y9, Y5, Y5
	VMULPD 192(DX), Y12, Y10
	VADDPD Y10, Y6, Y6
	VMULPD 224(DX), Y12, Y11
	VADDPD Y11, Y7, Y7
	ADDQ R9, SI
	ADDQ R11, DX
	DECQ R13
	JNZ  r32remloop

r32store:
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	VMOVUPD Y4, 128(DI)(AX*1)
	VMOVUPD Y5, 160(DI)(AX*1)
	VMOVUPD Y6, 192(DI)(AX*1)
	VMOVUPD Y7, 224(DI)(AX*1)
	ADDQ $256, AX
	SUBQ $32, CX
	JMP  rrows32

rrows4:
	CMPQ CX, $4
	JLT  rrows1
	VMOVUPD (DI)(AX*1), Y0
	VBROADCASTSD (BX), Y12
	VMULPD Y12, Y0, Y0
	MOVQ R8, SI
	LEAQ (R10)(AX*1), DX
	MOVQ R12, R13
	SHRQ $2, R13
	JZ   r4rem

r4grp:
	VBROADCASTSD (SI), Y12
	VBROADCASTSD (SI)(R9*1), Y13
	VBROADCASTSD (SI)(R9*2), Y14
	LEAQ (SI)(R9*2), SI
	VBROADCASTSD (SI)(R9*1), Y15
	LEAQ (SI)(R9*2), SI
	VFMADD231PD (DX), Y12, Y0
	VFMADD231PD (DX)(R11*1), Y13, Y0
	VFMADD231PD (DX)(R11*2), Y14, Y0
	LEAQ (DX)(R11*2), DX
	VFMADD231PD (DX)(R11*1), Y15, Y0
	LEAQ (DX)(R11*2), DX
	DECQ R13
	JNZ  r4grp

r4rem:
	MOVQ R12, R13
	ANDQ $3, R13
	JZ   r4store

r4remloop:
	VBROADCASTSD (SI), Y12
	VMULPD (DX), Y12, Y8
	VADDPD Y8, Y0, Y0
	ADDQ R9, SI
	ADDQ R11, DX
	DECQ R13
	JNZ  r4remloop

r4store:
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JMP  rrows4

rrows1:
	TESTQ CX, CX
	JZ    rcolend
	VMOVSD (DI)(AX*1), X0
	VMOVSD (BX), X12
	VMULSD X12, X0, X0
	MOVQ R8, SI
	LEAQ (R10)(AX*1), DX
	MOVQ R12, R13
	SHRQ $2, R13
	JZ   r1rem

r1grp:
	VMOVSD (SI), X12
	VMOVSD (SI)(R9*1), X13
	VMOVSD (SI)(R9*2), X14
	LEAQ (SI)(R9*2), SI
	VMOVSD (SI)(R9*1), X15
	LEAQ (SI)(R9*2), SI
	VFMADD231SD (DX), X12, X0
	VFMADD231SD (DX)(R11*1), X13, X0
	VFMADD231SD (DX)(R11*2), X14, X0
	LEAQ (DX)(R11*2), DX
	VFMADD231SD (DX)(R11*1), X15, X0
	LEAQ (DX)(R11*2), DX
	DECQ R13
	JNZ  r1grp

r1rem:
	MOVQ R12, R13
	ANDQ $3, R13
	JZ   r1store

r1remloop:
	VMOVSD (SI), X12
	VMULSD (DX), X12, X8
	VADDSD X8, X0, X0
	ADDQ R9, SI
	ADDQ R11, DX
	DECQ R13
	JNZ  r1remloop

r1store:
	VMOVSD X0, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  rrows1

rcolend:
	CMPB trans+0(FP), $0
	JNE  rtnext
	JMP  rnnext

rdone:
	VZEROUPPER
	RET
