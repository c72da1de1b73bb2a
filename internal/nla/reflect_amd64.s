// AVX2+FMA passes of the reflector sweeps (reflect.go). Each pass walks
// the column groups of a block itself and, group by group, repeats the
// Dot4, Axpy4 or Gaxpy4 arithmetic of its Go composition: a Dot4 through
// the shared DOT4ROW sequence, so its sums are dot4asm's bits, and the
// updates as one FMA (Axpy4, Gaxpy4) or a rounded product and an add or
// subtract (the scalar remainders) per element, whose bits do not depend
// on how rows are blocked. The row loops are subroutines of this file,
// called with their operands in registers.

#include "textflag.h"
#include "apply_amd64.h"

// LANES points R9…R11 at lanes 1…3 of the group whose first column is at
// R8, DX = k − c columns being left: lane q is column c+q while the block
// has it and repeats lane q−1 past its end. R12 is the column stride.
#define LANES(l2, l3, done) \
	MOVQ R8, R9; \
	CMPQ DX, $1; \
	JLE  l2; \
	ADDQ R12, R9; \
l2: \
	MOVQ R9, R10; \
	CMPQ DX, $2; \
	JLE  l3; \
	ADDQ R12, R10; \
l3: \
	MOVQ R10, R11; \
	CMPQ DX, $3; \
	JLE  done; \
	ADDQ R12, R11; \
done:

// WSTEP turns the sum in Xs into w = tau·(top + s) for the column whose
// top entry is at addr, stores top − w there and broadcasts w into Yw.
#define WSTEP(addr, Xs, Yw) \
	VADDSD       addr, Xs, Xs; \
	VMULSD       tau+16(FP), Xs, Xs; \
	VMOVSD       addr, X8; \
	VSUBSD       Xs, X8, X8; \
	VMOVSD       X8, addr; \
	VBROADCASTSD Xs, Yw

// dot4row: DOT4ROW as a subroutine. In: SI x, R8…R11 the four columns,
// AX the starting byte offset, CX the row count. Out: X0…X3. Clobbers
// AX, DX, Y0…Y11 (Z0…Z3 and Z8 under zmmRows). Under zmmRows the
// 8-double blocks go one ZMM per column: its low half is DOT4LOOP's even
// chain and its high half the odd one, split apart before DOT4TAIL, so
// the sums are the same bits.
TEXT dot4row<>(SB), NOSPLIT|NOFRAME, $0-0
	CMPB ·zmmRows(SB), $0
	JNE  dzmm
	DOT4LOOP
	JMP  rowtail4

dzmm:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ   CX, DX
	SHRQ   $3, DX
	JZ     dzsplit

dzloop:
	VMOVUPD     (SI)(AX*1), Z8
	VFMADD231PD (R8)(AX*1), Z8, Z0
	VFMADD231PD (R9)(AX*1), Z8, Z1
	VFMADD231PD (R10)(AX*1), Z8, Z2
	VFMADD231PD (R11)(AX*1), Z8, Z3
	ADDQ        $64, AX
	DECQ        DX
	JNZ         dzloop

dzsplit:
	VEXTRACTF64X4 $1, Z0, Y4
	VEXTRACTF64X4 $1, Z1, Y5
	VEXTRACTF64X4 $1, Z2, Y6
	VEXTRACTF64X4 $1, Z3, Y7
	DOT4TAIL
	RET

// dot1seq: X0 = Σ x[i]·col[i] over CX rows as a sequential sum, a
// rounded product then an add per row. In: SI x, R8 col. Clobbers AX,
// DX, X8.
TEXT dot1seq<>(SB), NOSPLIT|NOFRAME, $0-0
	VXORPD X0, X0, X0
	XORQ   AX, AX
	MOVQ   CX, DX
	TESTQ  DX, DX
	JZ     d1done

d1loop:
	VMOVSD (SI)(AX*8), X8
	VMULSD (R8)(AX*8), X8, X8
	VADDSD X8, X0, X0
	INCQ   AX
	DECQ   DX
	JNZ    d1loop

d1done:
	RET

// axpy4rows: col_q[i] −= w_q·x[i] fused, q = 0…3, over CX rows — the
// Axpy4(−w_q) of the Go forms. In: SI x, R8…R11 the columns, Y12…Y15
// the broadcast w_q. Clobbers AX, DX, Y0…Y9.
TEXT axpy4rows<>(SB), NOSPLIT|NOFRAME, $0-0
	XORQ AX, AX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   a4rows4
	CMPB ·zmmRows(SB), $0
	JNE  a4zmm

a4rows8:
	VMOVUPD      (SI)(AX*1), Y8
	VMOVUPD      32(SI)(AX*1), Y9
	VMOVUPD      (R8)(AX*1), Y0
	VMOVUPD      32(R8)(AX*1), Y1
	VFNMADD231PD Y8, Y12, Y0
	VFNMADD231PD Y9, Y12, Y1
	VMOVUPD      Y0, (R8)(AX*1)
	VMOVUPD      Y1, 32(R8)(AX*1)
	VMOVUPD      (R9)(AX*1), Y2
	VMOVUPD      32(R9)(AX*1), Y3
	VFNMADD231PD Y8, Y13, Y2
	VFNMADD231PD Y9, Y13, Y3
	VMOVUPD      Y2, (R9)(AX*1)
	VMOVUPD      Y3, 32(R9)(AX*1)
	VMOVUPD      (R10)(AX*1), Y4
	VMOVUPD      32(R10)(AX*1), Y5
	VFNMADD231PD Y8, Y14, Y4
	VFNMADD231PD Y9, Y14, Y5
	VMOVUPD      Y4, (R10)(AX*1)
	VMOVUPD      Y5, 32(R10)(AX*1)
	VMOVUPD      (R11)(AX*1), Y6
	VMOVUPD      32(R11)(AX*1), Y7
	VFNMADD231PD Y8, Y15, Y6
	VFNMADD231PD Y9, Y15, Y7
	VMOVUPD      Y6, (R11)(AX*1)
	VMOVUPD      Y7, 32(R11)(AX*1)
	ADDQ         $64, AX
	DECQ         DX
	JNZ          a4rows8

a4rows4:
	TESTQ        $4, CX
	JZ           a4rows1
	VMOVUPD      (SI)(AX*1), Y8
	VMOVUPD      (R8)(AX*1), Y0
	VFNMADD231PD Y8, Y12, Y0
	VMOVUPD      Y0, (R8)(AX*1)
	VMOVUPD      (R9)(AX*1), Y1
	VFNMADD231PD Y8, Y13, Y1
	VMOVUPD      Y1, (R9)(AX*1)
	VMOVUPD      (R10)(AX*1), Y2
	VFNMADD231PD Y8, Y14, Y2
	VMOVUPD      Y2, (R10)(AX*1)
	VMOVUPD      (R11)(AX*1), Y3
	VFNMADD231PD Y8, Y15, Y3
	VMOVUPD      Y3, (R11)(AX*1)
	ADDQ         $32, AX

a4rows1:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   a4done

a4loop1:
	VMOVSD       (SI)(AX*1), X8
	VMOVSD       (R8)(AX*1), X0
	VFNMADD231SD X8, X12, X0
	VMOVSD       X0, (R8)(AX*1)
	VMOVSD       (R9)(AX*1), X1
	VFNMADD231SD X8, X13, X1
	VMOVSD       X1, (R9)(AX*1)
	VMOVSD       (R10)(AX*1), X2
	VFNMADD231SD X8, X14, X2
	VMOVSD       X2, (R10)(AX*1)
	VMOVSD       (R11)(AX*1), X3
	VFNMADD231SD X8, X15, X3
	VMOVSD       X3, (R11)(AX*1)
	ADDQ         $8, AX
	DECQ         DX
	JNZ          a4loop1

a4done:
	RET

a4zmm:
	VBROADCASTSD X12, Z12
	VBROADCASTSD X13, Z13
	VBROADCASTSD X14, Z14
	VBROADCASTSD X15, Z15

a4zloop:
	VMOVUPD      (SI)(AX*1), Z8
	VMOVUPD      (R8)(AX*1), Z0
	VFNMADD231PD Z8, Z12, Z0
	VMOVUPD      Z0, (R8)(AX*1)
	VMOVUPD      (R9)(AX*1), Z1
	VFNMADD231PD Z8, Z13, Z1
	VMOVUPD      Z1, (R9)(AX*1)
	VMOVUPD      (R10)(AX*1), Z2
	VFNMADD231PD Z8, Z14, Z2
	VMOVUPD      Z2, (R10)(AX*1)
	VMOVUPD      (R11)(AX*1), Z3
	VFNMADD231PD Z8, Z15, Z3
	VMOVUPD      Z3, (R11)(AX*1)
	ADDQ         $64, AX
	DECQ         DX
	JNZ          a4zloop
	JMP          a4rows4

// axpy1rows: col[i] −= round(w·x[i]) over CX rows, the scalar
// remainder of the Go forms. In: SI x, R8 col, Y12 the broadcast w.
// Clobbers AX, DX, Y0, Y1, Y8, Y9.
TEXT axpy1rows<>(SB), NOSPLIT|NOFRAME, $0-0
	XORQ AX, AX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   a1rows4
	CMPB ·zmmRows(SB), $0
	JNE  a1zmm

a1rows8:
	VMULPD  (SI)(AX*1), Y12, Y8
	VMULPD  32(SI)(AX*1), Y12, Y9
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD 32(R8)(AX*1), Y1
	VSUBPD  Y8, Y0, Y0
	VSUBPD  Y9, Y1, Y1
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD Y1, 32(R8)(AX*1)
	ADDQ    $64, AX
	DECQ    DX
	JNZ     a1rows8

a1rows4:
	TESTQ   $4, CX
	JZ      a1rows1
	VMULPD  (SI)(AX*1), Y12, Y8
	VMOVUPD (R8)(AX*1), Y0
	VSUBPD  Y8, Y0, Y0
	VMOVUPD Y0, (R8)(AX*1)
	ADDQ    $32, AX

a1rows1:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   a1done

a1loop1:
	VMULSD (SI)(AX*1), X12, X8
	VMOVSD (R8)(AX*1), X0
	VSUBSD X8, X0, X0
	VMOVSD X0, (R8)(AX*1)
	ADDQ   $8, AX
	DECQ   DX
	JNZ    a1loop1

a1done:
	RET

a1zmm:
	VBROADCASTSD X12, Z12

a1zloop:
	VMULPD  (SI)(AX*1), Z12, Z8
	VMOVUPD (R8)(AX*1), Z0
	VSUBPD  Z8, Z0, Z0
	VMOVUPD Z0, (R8)(AX*1)
	ADDQ    $64, AX
	DECQ    DX
	JNZ     a1zloop
	JMP     a1rows4

// gaxpy4rows: y[i] += a0·x0[i] + a1·x1[i] + a2·x2[i] + a3·x3[i] as one
// FMA chain in that order — Gaxpy4's — over DX rows from byte offset AX,
// which it advances past them. In: DI y, R8…R11 x0…x3, Y12…Y15 the
// broadcast a_q. Clobbers DX, Y0, Y1.
TEXT gaxpy4rows<>(SB), NOSPLIT|NOFRAME, $0-0
	CMPQ DX, $8
	JLT  g4rows4
	CMPB ·zmmRows(SB), $0
	JNE  g4zmm

g4rows8:
	VMOVUPD     (DI)(AX*1), Y0
	VMOVUPD     32(DI)(AX*1), Y1
	VFMADD231PD (R8)(AX*1), Y12, Y0
	VFMADD231PD 32(R8)(AX*1), Y12, Y1
	VFMADD231PD (R9)(AX*1), Y13, Y0
	VFMADD231PD 32(R9)(AX*1), Y13, Y1
	VFMADD231PD (R10)(AX*1), Y14, Y0
	VFMADD231PD 32(R10)(AX*1), Y14, Y1
	VFMADD231PD (R11)(AX*1), Y15, Y0
	VFMADD231PD 32(R11)(AX*1), Y15, Y1
	VMOVUPD     Y0, (DI)(AX*1)
	VMOVUPD     Y1, 32(DI)(AX*1)
	ADDQ        $64, AX
	SUBQ        $8, DX
	CMPQ        DX, $8
	JGE         g4rows8

g4rows4:
	CMPQ        DX, $4
	JLT         g4rows1
	VMOVUPD     (DI)(AX*1), Y0
	VFMADD231PD (R8)(AX*1), Y12, Y0
	VFMADD231PD (R9)(AX*1), Y13, Y0
	VFMADD231PD (R10)(AX*1), Y14, Y0
	VFMADD231PD (R11)(AX*1), Y15, Y0
	VMOVUPD     Y0, (DI)(AX*1)
	ADDQ        $32, AX
	SUBQ        $4, DX

g4rows1:
	TESTQ DX, DX
	JZ    g4done

g4loop1:
	VMOVSD      (DI)(AX*1), X0
	VFMADD231SD (R8)(AX*1), X12, X0
	VFMADD231SD (R9)(AX*1), X13, X0
	VFMADD231SD (R10)(AX*1), X14, X0
	VFMADD231SD (R11)(AX*1), X15, X0
	VMOVSD      X0, (DI)(AX*1)
	ADDQ        $8, AX
	DECQ        DX
	JNZ         g4loop1

g4done:
	RET

g4zmm:
	VBROADCASTSD X12, Z12
	VBROADCASTSD X13, Z13
	VBROADCASTSD X14, Z14
	VBROADCASTSD X15, Z15

g4zloop:
	VMOVUPD     (DI)(AX*1), Z0
	VFMADD231PD (R8)(AX*1), Z12, Z0
	VFMADD231PD (R9)(AX*1), Z13, Z0
	VFMADD231PD (R10)(AX*1), Z14, Z0
	VFMADD231PD (R11)(AX*1), Z15, Z0
	VMOVUPD     Z0, (DI)(AX*1)
	ADDQ        $64, AX
	SUBQ        $8, DX
	CMPQ        DX, $8
	JGE         g4zloop
	JMP         g4rows4

// gaxpy1rows: y[i] += round(a·x[i]) over DX rows from byte offset 0, the
// scalar remainder of the Go form. In: DI y, R8 x, Y12 the broadcast a.
// Clobbers AX, DX, Y0, Y8.
TEXT gaxpy1rows<>(SB), NOSPLIT|NOFRAME, $0-0
	XORQ AX, AX
	CMPB ·zmmRows(SB), $0
	JNE  g1zmm

g1rows4cnt:
	CMPQ DX, $4
	JLT  g1rows1

g1rows4:
	VMULPD  (R8)(AX*1), Y12, Y8
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  Y8, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, DX
	CMPQ    DX, $4
	JGE     g1rows4

g1rows1:
	TESTQ DX, DX
	JZ    g1done

g1loop1:
	VMULSD (R8)(AX*1), X12, X8
	VMOVSD (DI)(AX*1), X0
	VADDSD X8, X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   DX
	JNZ    g1loop1

g1done:
	RET

g1zmm:
	VBROADCASTSD X12, Z12

g1zloop:
	CMPQ    DX, $8
	JLT     g1rows4cnt
	VMULPD  (R8)(AX*1), Z12, Z8
	VMOVUPD (DI)(AX*1), Z0
	VADDPD  Z8, Z0, Z0
	VMOVUPD Z0, (DI)(AX*1)
	ADDQ    $64, AX
	SUBQ    $8, DX
	JMP     g1zloop

// func dotcolsasm(n, k int, x, b *float64, ldb int, s *float64, inc int, upper bool)
// dotColsGo: s[c·inc] = x · b(0:n, c) for c < k (k ≥ 1), one DOT4ROW per
// group of four columns, the short last group with repeated lanes. Under
// upper the group's DOT4ROW runs over rows 0…min(c+1, n)−1 and lane q
// then adds rows c+1…min(c+q, n−1) as rounded products, in row order.
//
// BX column c, R13 its address, DI &s[c·inc], R12 ldb in bytes, SI x.
TEXT ·dotcolsasm(SB), NOSPLIT, $0-57
	MOVQ x+16(FP), SI
	MOVQ b+24(FP), R13
	MOVQ ldb+32(FP), R12
	SHLQ $3, R12
	MOVQ s+40(FP), DI
	XORQ BX, BX

dcgroup:
	MOVQ R13, R8
	MOVQ k+8(FP), DX
	SUBQ BX, DX
	LANES(dcl2, dcl3, dcrows)
	MOVQ n+0(FP), CX
	CMPB upper+56(FP), $0
	JEQ  dcdot
	LEAQ 1(BX), AX
	CMPQ AX, CX
	CMOVQLT AX, CX

dcdot:
	XORQ AX, AX
	CALL dot4row<>(SB)
	CMPB upper+56(FP), $0
	JEQ  dcstore

	// The corner: E = min(k−c−1, n−c−1) rows past row c, lane q taking
	// the first min(q, E). When E ≥ 1 the dot ran over c+1 rows and AX
	// is row c+1.
	MOVQ    k+8(FP), DX
	SUBQ    BX, DX
	DECQ    DX
	MOVQ    n+0(FP), CX
	SUBQ    BX, CX
	DECQ    CX
	CMPQ    CX, DX
	CMOVQLT CX, DX
	CMPQ    DX, $1
	JLT     dcstore
	VMOVSD  (SI)(AX*1), X8
	VMULSD  (R9)(AX*1), X8, X9
	VADDSD  X9, X1, X1
	VMULSD  (R10)(AX*1), X8, X9
	VADDSD  X9, X2, X2
	VMULSD  (R11)(AX*1), X8, X9
	VADDSD  X9, X3, X3
	CMPQ    DX, $2
	JLT     dcstore
	ADDQ    $8, AX
	VMOVSD  (SI)(AX*1), X8
	VMULSD  (R10)(AX*1), X8, X9
	VADDSD  X9, X2, X2
	VMULSD  (R11)(AX*1), X8, X9
	VADDSD  X9, X3, X3
	CMPQ    DX, $3
	JLT     dcstore
	ADDQ    $8, AX
	VMOVSD  (SI)(AX*1), X8
	VMULSD  (R11)(AX*1), X8, X9
	VADDSD  X9, X3, X3

dcstore:
	// Lanes past the block's end repeat a column whose sum is stored.
	MOVQ   k+8(FP), AX
	SUBQ   BX, AX
	MOVQ   inc+48(FP), DX
	SHLQ   $3, DX
	VMOVSD X0, (DI)
	CMPQ   AX, $1
	JLE    dcnext
	VMOVSD X1, (DI)(DX*1)
	CMPQ   AX, $2
	JLE    dcnext
	VMOVSD X2, (DI)(DX*2)
	CMPQ   AX, $3
	JLE    dcnext
	LEAQ   (DI)(DX*2), AX
	VMOVSD X3, (AX)(DX*1)

dcnext:
	LEAQ (DI)(DX*4), DI
	LEAQ (R13)(R12*4), R13
	ADDQ $4, BX
	CMPQ BX, k+8(FP)
	JLT  dcgroup
	VZEROUPPER
	RET

// func gaxpycolsasm(n, k int, a *float64, inc int, b *float64, ldb int, y *float64, mode int)
// gaxpyColsGo: y += Σ a[c·inc]·b(0:n, c) over c < k (n, k ≥ 1). mode 0 Full,
// 1 Upper, 2 Lower with TailLanes — a short last group's missing lanes
// repeat its last column with a zero coefficient —, 3 Full with TailSeq.
// Under Upper a group's Gaxpy4 covers rows 0…min(c+1, n)−1 and row c+e
// (e = 1…3) then adds t = a3·x3 + … + a_e·x_e; under Lower it covers
// rows min(c+k3, n)…n−1 and row c+e (e = 0…2) adds t = a0·x0 + … + a_e·x_e;
// t summed as rounded products, then y += t.
//
// BX column c, R13 its address, SI &a[c·inc], R12 ldb in bytes, DI y.
TEXT ·gaxpycolsasm(SB), NOSPLIT, $0-64
	MOVQ a+16(FP), SI
	MOVQ b+32(FP), R13
	MOVQ ldb+40(FP), R12
	SHLQ $3, R12
	MOVQ y+48(FP), DI
	XORQ BX, BX
	CMPQ mode+56(FP), $3
	JNE  gcgroup

gsgroup:
	MOVQ         k+8(FP), CX
	SUBQ         BX, CX
	CMPQ         CX, $4
	JLT          gsrest
	MOVQ         R13, R8
	LEAQ         (R8)(R12*1), R9
	LEAQ         (R9)(R12*1), R10
	LEAQ         (R10)(R12*1), R11
	MOVQ         inc+24(FP), AX
	SHLQ         $3, AX
	VBROADCASTSD (SI), Y12
	VBROADCASTSD (SI)(AX*1), Y13
	VBROADCASTSD (SI)(AX*2), Y14
	LEAQ         (SI)(AX*2), DX
	VBROADCASTSD (DX)(AX*1), Y15
	LEAQ         (SI)(AX*4), SI
	XORQ         AX, AX
	MOVQ         n+0(FP), DX
	CALL         gaxpy4rows<>(SB)
	LEAQ         (R11)(R12*1), R13
	ADDQ         $4, BX
	JMP          gsgroup

gsrest:
	TESTQ CX, CX
	JZ    gdone

gscol:
	MOVQ         R13, R8
	VBROADCASTSD (SI), Y12
	MOVQ         n+0(FP), DX
	CALL         gaxpy1rows<>(SB)
	MOVQ         inc+24(FP), AX
	LEAQ         (SI)(AX*8), SI
	ADDQ         R12, R13
	DECQ         CX
	JNZ          gscol
	JMP          gdone

gcgroup:
	MOVQ R13, R8
	MOVQ k+8(FP), DX
	SUBQ BX, DX
	LANES(gcl2, gcl3, gccoef)
	MOVQ         inc+24(FP), CX
	SHLQ         $3, CX
	VBROADCASTSD (SI), Y12
	VXORPD       Y13, Y13, Y13
	VXORPD       Y14, Y14, Y14
	VXORPD       Y15, Y15, Y15
	CMPQ         DX, $1
	JLE          gcmode
	VBROADCASTSD (SI)(CX*1), Y13
	CMPQ         DX, $2
	JLE          gcmode
	VBROADCASTSD (SI)(CX*2), Y14
	CMPQ         DX, $3
	JLE          gcmode
	LEAQ         (SI)(CX*2), AX
	VBROADCASTSD (AX)(CX*1), Y15

gcmode:
	MOVQ mode+56(FP), CX
	CMPQ CX, $1
	JEQ  gcupper
	CMPQ CX, $2
	JEQ  gclower
	XORQ AX, AX
	MOVQ n+0(FP), DX
	CALL gaxpy4rows<>(SB)
	JMP  gcnext

gcupper:
	LEAQ    1(BX), DX
	MOVQ    n+0(FP), CX
	CMPQ    DX, CX
	CMOVQGT CX, DX
	XORQ    AX, AX
	CALL    gaxpy4rows<>(SB)

	// E = min(k−c−1, n−c−1) corner rows; when E ≥ 1 AX is row c+1.
	MOVQ    k+8(FP), DX
	SUBQ    BX, DX
	DECQ    DX
	MOVQ    n+0(FP), CX
	SUBQ    BX, CX
	DECQ    CX
	CMPQ    CX, DX
	CMOVQLT CX, DX
	CMPQ    DX, $1
	JLT     gcnext
	VMULSD  (R11)(AX*1), X15, X0
	VMULSD  (R10)(AX*1), X14, X8
	VADDSD  X8, X0, X0
	VMULSD  (R9)(AX*1), X13, X8
	VADDSD  X8, X0, X0
	VADDSD  (DI)(AX*1), X0, X0
	VMOVSD  X0, (DI)(AX*1)
	CMPQ    DX, $2
	JLT     gcnext
	ADDQ    $8, AX
	VMULSD  (R11)(AX*1), X15, X0
	VMULSD  (R10)(AX*1), X14, X8
	VADDSD  X8, X0, X0
	VADDSD  (DI)(AX*1), X0, X0
	VMOVSD  X0, (DI)(AX*1)
	CMPQ    DX, $3
	JLT     gcnext
	ADDQ    $8, AX
	VMULSD  (R11)(AX*1), X15, X0
	VADDSD  (DI)(AX*1), X0, X0
	VMOVSD  X0, (DI)(AX*1)
	JMP     gcnext

gclower:
	// lo = min(c+k3, n), k3 = min(k−c, 4) − 1; Gaxpy4 over rows lo…n−1.
	MOVQ    k+8(FP), CX
	SUBQ    BX, CX
	MOVQ    $4, AX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	DECQ    CX
	ADDQ    BX, CX
	MOVQ    n+0(FP), DX
	CMPQ    CX, DX
	CMOVQGT DX, CX
	SUBQ    CX, DX
	MOVQ    CX, AX
	SHLQ    $3, AX
	CALL    gaxpy4rows<>(SB)

	// Corner rows c … lo−1, at most three.
	SUBQ   BX, CX
	CMPQ   CX, $1
	JLT    gcnext
	MOVQ   BX, AX
	SHLQ   $3, AX
	VMULSD (R8)(AX*1), X12, X0
	VADDSD (DI)(AX*1), X0, X0
	VMOVSD X0, (DI)(AX*1)
	CMPQ   CX, $2
	JLT    gcnext
	ADDQ   $8, AX
	VMULSD (R8)(AX*1), X12, X0
	VMULSD (R9)(AX*1), X13, X8
	VADDSD X8, X0, X0
	VADDSD (DI)(AX*1), X0, X0
	VMOVSD X0, (DI)(AX*1)
	CMPQ   CX, $3
	JLT    gcnext
	ADDQ   $8, AX
	VMULSD (R8)(AX*1), X12, X0
	VMULSD (R9)(AX*1), X13, X8
	VADDSD X8, X0, X0
	VMULSD (R10)(AX*1), X14, X8
	VADDSD X8, X0, X0
	VADDSD (DI)(AX*1), X0, X0
	VMOVSD X0, (DI)(AX*1)

gcnext:
	MOVQ inc+24(FP), AX
	SHLQ $5, AX
	ADDQ AX, SI
	LEAQ (R13)(R12*4), R13
	ADDQ $4, BX
	CMPQ BX, k+8(FP)
	JLT  gcgroup

gdone:
	VZEROUPPER
	RET

// func axpycolsasm(n, k int, alpha float64, a *float64, inc int, x, b *float64, ldb int)
// axpyColsGo: b(0:n, c) −= (alpha·a[c·inc])·x for c < k (n, k ≥ 1), fused
// in groups of four, a rounded product per entry for the rest.
//
// BX columns left, R8 the group's first column, DI &a[c·inc], R12 ldb
// in bytes, R13 inc in bytes, SI x, X10 alpha.
TEXT ·axpycolsasm(SB), NOSPLIT, $0-64
	MOVQ   n+0(FP), CX
	MOVQ   k+8(FP), BX
	VMOVSD alpha+16(FP), X10
	MOVQ   a+24(FP), DI
	MOVQ   inc+32(FP), R13
	SHLQ   $3, R13
	MOVQ   x+40(FP), SI
	MOVQ   b+48(FP), R8
	MOVQ   ldb+56(FP), R12
	SHLQ   $3, R12

axgroup:
	CMPQ         BX, $4
	JLT          axrest
	LEAQ         (R8)(R12*1), R9
	LEAQ         (R9)(R12*1), R10
	LEAQ         (R10)(R12*1), R11
	VMULSD       (DI), X10, X12
	VBROADCASTSD X12, Y12
	VMULSD       (DI)(R13*1), X10, X13
	VBROADCASTSD X13, Y13
	VMULSD       (DI)(R13*2), X10, X14
	VBROADCASTSD X14, Y14
	LEAQ         (DI)(R13*2), DX
	VMULSD       (DX)(R13*1), X10, X15
	VBROADCASTSD X15, Y15
	CALL         axpy4rows<>(SB)
	LEAQ         (DI)(R13*4), DI
	LEAQ         (R11)(R12*1), R8
	SUBQ         $4, BX
	JMP          axgroup

axrest:
	TESTQ BX, BX
	JZ    axdone

axcol:
	VMULSD       (DI), X10, X12
	VBROADCASTSD X12, Y12
	CALL         axpy1rows<>(SB)
	ADDQ         R13, DI
	ADDQ         R12, R8
	DECQ         BX
	JNZ          axcol

axdone:
	VZEROUPPER
	RET

// func reflectleftasm(n, k int, tau float64, v, top *float64, ldt int, b *float64, ldb int, seq bool)
// reflectLeftGo: for c < k (k ≥ 1), s = v · b(0:n, c), w = tau·(top[c] +
// s), top[c] −= w, b(0:n, c) −= w·v. Groups of four take a DOT4ROW and a
// fused update; the k mod 4 columns left take one DOT4ROW with repeated
// lanes (seq false) or a sequential dot each (seq true), and a rounded
// product per entry.
//
// BX columns left, R8 the group's first column, DI its top entry, R12
// ldb and R13 ldt in bytes, SI v, CX n. X13 and X14 carry lanes 1 and 2
// of the repeated-lane dot through the remainder.
TEXT ·reflectleftasm(SB), NOSPLIT, $0-65
	MOVQ n+0(FP), CX
	MOVQ k+8(FP), BX
	MOVQ v+24(FP), SI
	MOVQ top+32(FP), DI
	MOVQ ldt+40(FP), R13
	SHLQ $3, R13
	MOVQ b+48(FP), R8
	MOVQ ldb+56(FP), R12
	SHLQ $3, R12

rlgroup:
	CMPQ BX, $4
	JLT  rltail
	LEAQ (R8)(R12*1), R9
	LEAQ (R9)(R12*1), R10
	LEAQ (R10)(R12*1), R11
	XORQ AX, AX
	CALL dot4row<>(SB)
	WSTEP((DI), X0, Y12)
	WSTEP((DI)(R13*1), X1, Y13)
	WSTEP((DI)(R13*2), X2, Y14)
	LEAQ (DI)(R13*2), DX
	WSTEP((DX)(R13*1), X3, Y15)
	CALL axpy4rows<>(SB)
	LEAQ (R11)(R12*1), R8
	LEAQ (DI)(R13*4), DI
	SUBQ $4, BX
	JMP  rlgroup

rltail:
	TESTQ BX, BX
	JZ    rldone
	CMPB  seq+64(FP), $0
	JNE   rlcol
	MOVQ  BX, DX
	LANES(rll2, rll3, rldot)
	XORQ    AX, AX
	CALL    dot4row<>(SB)
	VMOVAPD X1, X13
	VMOVAPD X2, X14

rlcol:
	CMPB seq+64(FP), $0
	JEQ  rlw
	CALL dot1seq<>(SB)

rlw:
	WSTEP((DI), X0, Y12)
	CALL    axpy1rows<>(SB)
	VMOVAPD X13, X0
	VMOVAPD X14, X13
	ADDQ    R12, R8
	ADDQ    R13, DI
	DECQ    BX
	JNZ     rlcol

rldone:
	VZEROUPPER
	RET
