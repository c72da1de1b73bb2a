// Shared by apply_amd64.s and reflect_amd64.s.

// DOT4ROW computes four inner products of the n = CX doubles at SI+AX
// against those at R8+AX … R11+AX (AX a byte offset), left in the low
// lanes of X0…X3: eight independent accumulator chains (two per output)
// over 8-double blocks, a 4-wide block into the first four, the odd
// chains folded into the even ones and each YMM reduced to a scalar,
// then a scalar FMA tail. Clobbers AX, DX and Y0…Y11. dot4asm, the
// fused T multiplies and the sweep passes share it, so their sums are the
// same bits. DOT4LOOP is its first part, the 8-double blocks into the
// eight chains.
#define DOT4LOOP \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	MOVQ CX, DX; \
	SHRQ $3, DX; \
	JZ   rowtail4; \
rowloop8: \
	VMOVUPD (SI)(AX*1), Y8; \
	VMOVUPD 32(SI)(AX*1), Y9; \
	VMOVUPD (R8)(AX*1), Y10; \
	VMOVUPD 32(R8)(AX*1), Y11; \
	VFMADD231PD Y8, Y10, Y0; \
	VFMADD231PD Y9, Y11, Y4; \
	VMOVUPD (R9)(AX*1), Y10; \
	VMOVUPD 32(R9)(AX*1), Y11; \
	VFMADD231PD Y8, Y10, Y1; \
	VFMADD231PD Y9, Y11, Y5; \
	VMOVUPD (R10)(AX*1), Y10; \
	VMOVUPD 32(R10)(AX*1), Y11; \
	VFMADD231PD Y8, Y10, Y2; \
	VFMADD231PD Y9, Y11, Y6; \
	VMOVUPD (R11)(AX*1), Y10; \
	VMOVUPD 32(R11)(AX*1), Y11; \
	VFMADD231PD Y8, Y10, Y3; \
	VFMADD231PD Y9, Y11, Y7; \
	ADDQ $64, AX; \
	DECQ DX; \
	JNZ  rowloop8

// DOT4TAIL finishes DOT4LOOP's sums: the 4-wide block, the fold of each
// odd chain into its even one, the reduction to scalars and the scalar
// tail.
#define DOT4TAIL \
rowtail4: \
	TESTQ $4, CX; \
	JZ    rowreduce; \
	VMOVUPD (SI)(AX*1), Y8; \
	VMOVUPD (R8)(AX*1), Y10; \
	VFMADD231PD Y8, Y10, Y0; \
	VMOVUPD (R9)(AX*1), Y10; \
	VFMADD231PD Y8, Y10, Y1; \
	VMOVUPD (R10)(AX*1), Y10; \
	VFMADD231PD Y8, Y10, Y2; \
	VMOVUPD (R11)(AX*1), Y10; \
	VFMADD231PD Y8, Y10, Y3; \
	ADDQ $32, AX; \
rowreduce: \
	VADDPD Y4, Y0, Y0; \
	VADDPD Y5, Y1, Y1; \
	VADDPD Y6, Y2, Y2; \
	VADDPD Y7, Y3, Y3; \
	VEXTRACTF128 $1, Y0, X8; \
	VADDPD X8, X0, X0; \
	VHADDPD X0, X0, X0; \
	VEXTRACTF128 $1, Y1, X8; \
	VADDPD X8, X1, X1; \
	VHADDPD X1, X1, X1; \
	VEXTRACTF128 $1, Y2, X8; \
	VADDPD X8, X2, X2; \
	VHADDPD X2, X2, X2; \
	VEXTRACTF128 $1, Y3, X8; \
	VADDPD X8, X3, X3; \
	VHADDPD X3, X3, X3; \
	MOVQ CX, DX; \
	ANDQ $3, DX; \
	JZ   rowdone; \
rowscalar: \
	VMOVSD (SI)(AX*1), X8; \
	VMOVSD (R8)(AX*1), X9; \
	VFMADD231SD X8, X9, X0; \
	VMOVSD (R9)(AX*1), X9; \
	VFMADD231SD X8, X9, X1; \
	VMOVSD (R10)(AX*1), X9; \
	VFMADD231SD X8, X9, X2; \
	VMOVSD (R11)(AX*1), X9; \
	VFMADD231SD X8, X9, X3; \
	ADDQ $8, AX; \
	DECQ DX; \
	JNZ  rowscalar; \
rowdone:

#define DOT4ROW DOT4LOOP; DOT4TAIL
