// Package kernels implements the twelve tile kernels of the tiled
// bidiagonalization algorithms of Faverge, Langou, Robert and Dongarra
// (IPDPS 2017), Table I:
//
//	QR family                     LQ family (duals)
//	GEQRT  factor square tile     GELQT
//	UNMQR  apply Q of GEQRT       UNMLQ
//	TSQRT  zero square w/ tri     TSLQT   (Triangle on top of Square)
//	TSMQR  apply Q of TSQRT       TSMLQ
//	TTQRT  zero tri w/ tri        TTLQT   (Triangle on top of Triangle)
//	TTMQR  apply Q of TTQRT       TTMLQ
//
// # Conventions
//
// All tiles are column-major nla.Matrix values. The QR kernels build
// compact-WY products in the forward order of LAPACK dlarft:
//
//	Q = H₁H₂···H_k = I − V·T·Vᵀ
//
// with V unit-lower (column reflectors) and T upper triangular, so that
// applying Qᵀ to C from the left is C ← C − V·Tᵀ·(Vᵀ·C).
//
// The LQ kernels are exact transpose duals. GELQT applies row reflectors
// H₁···H_k from the right, producing A·P = L with P = I − Ṽ·T·Ṽᵀ and
// Ṽ = V_storedᵀ (reflector tails are stored in the rows of the factored
// tile, strictly right of the diagonal). Hence A = L·Q with Q = Pᵀ, and
// the algorithmic update "apply the same transformation to the other rows"
// is C ← C·P, i.e. UNMLQ/TSMLQ/TTMLQ with trans = true.
//
// # Cost model
//
// Weight returns the Table I cost of a kernel in units of nb³/3 floating
// point operations (GEQRT 4, UNMQR 6, TSQRT 6, TSMQR 12, TTQRT 2,
// TTMQR 6, LQ duals identical). Flops* return LAPACK-style leading-order
// operation counts used by the machine model; the compact-WY T build is
// excluded there because the inner-blocked (ib ≪ nb) kernels of the paper
// make it a lower-order term.
//
// # Workspaces
//
// No kernel allocates on its hot path. Each takes a trailing
// *nla.Workspace and checks its scratch out of that arena (releasing it
// on return); ScratchSize(kind, m, n, k) is the sizing contract, and the
// executors hand every worker one warm workspace sized to the graph's
// largest task. For square nb×nb tiles the Table I weight and the scratch
// requirement of each kernel are:
//
//	kernel  weight  scratch (float64s, nb×nb tiles)
//	GEQRT     4     nb                        one sweep's sums: VᵀV column | w
//	UNMQR     6     nb² + max(gemm pack, nb²) W panel; tail GEMMs (m>k) or Tᵀ staging
//	TSQRT     6     nb                        one sweep's sums
//	TSMQR    12     nb² + max(gemm pack, nb²) W panel + packed V2/C2 panels or Tᵀ staging
//	TTQRT     2     nb                        one sweep's sums
//	TTMQR     6     nb² + nb²                 W panel + Tᵀ staging (trapezoidal V2, no GEMM)
//	GELQT     4     2·nb                      gathered reflector row + the sweep's y
//	UNMLQ     6     nb² + gemm pack           W panel (tail GEMMs when n>k)
//	TSLQT     6     2·nb                      gathered reflector row + the sweep's y
//	TSMLQ    12     nb² + gemm pack           W panel + packed C2/V2 panels
//	TTLQT     2     2·nb                      gathered reflector row + the sweep's y
//	TTMLQ     6     nb²                       W panel (trapezoidal V2, no GEMM)
//	LACPY     0     —
//	LASET     0     —
//
// "gemm pack" is nla.GemmScratchFor for the kernel's largest product: the
// GEMM-rich kernels (the TS family and the UNM tails) bottom out in the
// packed, register-tiled nla.GemmWS, whose A/B panels are packed into the
// same workspace. "Tᵀ staging" is the k×k checkout of nla.TrmvApplyWS,
// taken only by the left-apply kernels' no-trans (apply Q, not Qᵀ)
// variant; the right applies of the LQ family read T in place.
//
// # Factor kernels
//
// The six factor kernels are two loops (factor.go). factorQR (GEQRT,
// TSQRT, TTQRT) generates reflector j with nla.Larfg on column j and then
// takes the inner products of its tail with every other column, four
// columns to an nla.Dot4 so the tail streams once per group. One sweep
// gives both halves of the step: the sums left of j are column j of VᵀV,
// which becomes column j of T by accumulating along T's columns with
// nla.Gaxpy4 (dlarft's triangular product, unit stride, T's strict lower
// part never read); the sums right of j are the w of the trailing update
// C −= v·wᵀ, applied four columns to an nla.Axpy4. factorLQ (GELQT, TSLQT,
// TTLQT) is the transpose dual on the same column-major tiles and walks a
// row exactly twice per reflector: row i is gathered for Larfg and
// scattered back. After that one Gaxpy4 sweep y = A₂·v over every row
// plays the dot sweep's part — rows above i are T's column, rows below are
// w — and the rank-1 update A₂ −= w·vᵀ is again Axpy4 along columns.
// Each sweep is one nla call (DotCols, ReflectLeft, GaxpyCols,
// AxpyCols) whose assembly pass walks the column groups itself; on QR's
// trailing columns the dot, the w step and the update of a group run
// back to back in one ReflectLeft pass, which columns being independent
// leaves every bit as it was.
//
// GE, TS and TT differ only in which rows (columns) of the tile carry a
// reflector's tail — below the diagonal of the factored tile, all of the
// second tile, or the second tile down to its diagonal — and the sweeps
// never touch what lies outside: the triangle a TT kernel leaves alone
// holds another kernel's vectors. A group of fewer than four columns
// repeats its last column (Dot4) or pads with zero coefficients
// (Gaxpy4); only the Axpy4 update has a one-column remainder loop. The
// only branch on a data value is tau == 0 (H = I: the step is skipped
// and T's column is zero). TTMQR and TTMLQ run the same sweeps, one per
// reflector, on the trapezoidal V2.
//
// The scalar kernels these replaced — one Dot/Axpy per column, one dot
// per entry of T, the LQ family gathering and scattering every trailing
// row — are kept in reference_test.go, and every factor kernel is
// compared with its reference on R or L, the vector tails, tau and all of
// T to 16·n·ε over every pair of tile dimensions in {1, 2, 3, 4, 5, 7,
// 17, 64, 65}, trapezoids, zero tails and padded views included.
//
// # Vectorized apply path
//
// The four inner-loop shapes the apply kernels (UNMQR/TSMQR and their LQ
// duals) spend their time in — the triangular T application and the
// unit-triangular V1 gather/scatter around it — are the nla primitives
// Dot4, Axpy4, Gaxpy4 and the TrmvApplyWS/TrmvApplyRight drivers built
// on them. On amd64 with AVX2+FMA they dispatch to hand-written
// assembly micro-kernels (see internal/nla/apply_amd64.s); everywhere
// else, and under BIDIAG_NOASM=1, a pure-Go fallback runs the identical
// operation sequence. The dispatch is decided once per process, and
// both paths use data-independent control flow (no skips on zero
// coefficients), so sequential, parallel and distributed runs stay
// bitwise identical to each other on either path. The factor kernels
// sit on the same three primitives and the same dispatch, through nla's
// reflector sweeps. The T
// multiply of every UNM/TS/TT apply is one assembly call
// (TrmvApplyWS/TrmvApplyRight) that repeats its Dot4 or Scal/Gaxpy4
// composition element by element. The TS kernels' dense V2 half and the
// UNM tails run through the packed GEMM (internal/nla/gemm_amd64.s):
// its 16×8 AVX-512 micro-kernel where the CPU has it, else the 8×4 AVX2
// one. The two give the same bits — the same FMA chain per C element
// and KC panel, added to C as alpha·acc in the same order — so a
// kernel's results do not depend on which one ran, only on asm versus
// the Go fallback.
package kernels
