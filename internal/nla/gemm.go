package nla

import "fmt"

// This file implements the package's GEMM. Small products fall through to
// simple two-loop kernels; everything else takes the classic packed path
// of high-performance BLAS (BLIS/GotoBLAS): op(A) and op(B) panels are
// packed into workspace scratch in micro-panel order, and a register-tiled
// micro-kernel does the flops. Three micro-kernels exist, one chosen per
// process at init (activeGemm):
//
//   - AVX-512F (amd64, OS-enabled ZMM state): 16×8, two ZMM rows by eight
//     broadcast columns; a full micro-tile is added into C by the kernel
//     itself (gemm_amd64.s).
//   - AVX2+FMA (amd64): 8×4, two YMM rows by four broadcast columns; the
//     accumulator goes back to Go (storeAcc).
//   - portable Go: 8×4 scalar accumulators, the reference and the
//     BIDIAG_NOASM path.
//
// The two assembly kernels agree bit for bit: every C element is the same
// ascending FMA chain over one KC panel, started from zero, and each
// panel is added to C in ascending order as alpha·acc + C, a multiply then
// an add. The micro-tile shape only decides which registers hold which
// chains, and KC, the one block size that splits a chain, is the same on
// every path. The Go kernel rounds each product separately, so it agrees
// with them only to rounding.

// Micro-kernel tiles: 8×4 doubles for the AVX2 and Go kernels, 16×8 for
// the AVX-512 kernel. Pack buffers and blocking are sized for the wide
// tile on every path, so the scratch a task declares does not depend on
// the CPU it runs on.
const (
	microM = 8
	microN = 4
	wideM  = 16
	wideN  = 8
)

// gemmPath names a micro-kernel of the packed GEMM.
type gemmPath uint8

const (
	gemmGo gemmPath = iota
	gemmAVX2
	gemmAVX512
)

// tile returns the micro-tile the path packs for.
func (p gemmPath) tile() (mr, nr int) {
	if p == gemmAVX512 {
		return wideM, wideN
	}
	return microM, microN
}

func (p gemmPath) String() string {
	switch p {
	case gemmAVX512:
		return "avx512-16x8"
	case gemmAVX2:
		return "avx2-8x4"
	}
	return "go-8x4"
}

// Blocking holds the cache-block sizes of the packed GEMM: panels of
// op(A) are MC×KC (packed to L2-resident micro-panels), panels of op(B)
// KC×NC. Zero fields select the defaults.
type Blocking struct {
	MC, KC, NC int
}

// DefaultBlocking are the block sizes used when a Blocking field is zero:
// tuned for tile-scale operands (the paper's nb = 64…256) on common
// 32KB-L1/1MB-L2 cores.
var DefaultBlocking = Blocking{MC: 128, KC: 256, NC: 512}

func (b Blocking) norm() Blocking {
	d := DefaultBlocking
	if b.MC > 0 {
		d.MC = roundUp(b.MC, wideM)
	}
	if b.KC > 0 {
		d.KC = b.KC
	}
	if b.NC > 0 {
		d.NC = roundUp(b.NC, wideN)
	}
	return d
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }

// GemmScratchFor returns the workspace elements GemmWS checks out for an
// (m×k)·(k×n) product under the given blocking: one packed A panel and
// one packed B panel, edge micro-panels zero-padded to the 16×8 grid of
// the widest micro-kernel whichever kernel runs. The cut-over to the small
// path is the 8×4 tile's on every path: moving it would change which
// products round each term separately.
func GemmScratchFor(bl Blocking, m, n, k int) int {
	if m < microM || n < microN || k < gemmMinK {
		return 0 // small path, no packing
	}
	bl = bl.norm()
	mc, kc, nc := min(roundUp(m, wideM), bl.MC), min(k, bl.KC), min(roundUp(n, wideN), bl.NC)
	return mc*kc + kc*nc
}

// gemmMinK is the depth below which packing cannot pay for itself and the
// small path runs instead.
const gemmMinK = 4

// Gemm computes C = alpha*op(A)*op(B) + beta*C where op is the identity or
// the transpose according to transA/transB. Scratch for the packed panels
// is allocated internally; hot paths should call GemmWS with a reusable
// Workspace instead.
func Gemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	GemmWS(transA, transB, alpha, a, b, beta, c, nil)
}

// GemmWS is Gemm with caller-owned scratch: the packed panels live in ws
// (checked out and released around the call), so a warm, correctly sized
// workspace makes the product allocation-free. A nil ws falls back to a
// throwaway workspace.
func GemmWS(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix, ws *Workspace) {
	am, ak := a.Rows, a.Cols
	if transA {
		am, ak = a.Cols, a.Rows
	}
	bk, bn := b.Rows, b.Cols
	if transB {
		bk, bn = b.Cols, b.Rows
	}
	if ak != bk || c.Rows != am || c.Cols != bn {
		panic(fmt.Sprintf("nla: Gemm: shape mismatch (%dx%d)*(%dx%d) -> %dx%d", am, ak, bk, bn, c.Rows, c.Cols))
	}
	if beta != 1 {
		for j := 0; j < bn; j++ {
			col := c.Data[j*c.LD : j*c.LD+am]
			if beta == 0 {
				for i := range col {
					col[i] = 0
				}
			} else {
				for i := range col {
					col[i] *= beta
				}
			}
		}
	}
	if alpha == 0 || ak == 0 || am == 0 || bn == 0 {
		return
	}
	if am < microM || bn < microN || ak < gemmMinK {
		gemmSmall(transA, transB, alpha, a, b, c, am, ak, bn)
		return
	}
	gemmBlocked(transA, transB, alpha, a, b, c, am, ak, bn, ws)
}

// gemmBlocked is the packed path: jc/pc/ic loops over NC/KC/MC cache
// blocks, micro-panel packing, and the active micro-kernel. The summation
// order over k is ascending for every C element regardless of blocking
// or micro-tile, so results are deterministic for a fixed KC.
func gemmBlocked(transA, transB bool, alpha float64, a, b *Matrix, c *Matrix, m, k, n int, ws *Workspace) {
	ws = ensureWorkspace(ws)
	bl := ws.Blocking.norm()
	path := activeGemm
	mr, nr := path.tile()
	mc, kc, nc := min(roundUp(m, mr), bl.MC), min(k, bl.KC), min(roundUp(n, nr), bl.NC)

	mark := ws.Mark()
	ap := ws.ScratchVec(mc * kc)
	bp := ws.ScratchVec(kc * nc)
	var acc [wideM * wideN]float64

	for jc := 0; jc < n; jc += nc {
		ncur := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcur := min(kc, k-pc)
			packB(transB, b, pc, jc, kcur, ncur, nr, bp)
			for ic := 0; ic < m; ic += mc {
				mcur := min(mc, m-ic)
				packA(transA, a, ic, pc, mcur, kcur, mr, ap)
				for jr := 0; jr < ncur; jr += nr {
					jw := min(nr, ncur-jr)
					for ir := 0; ir < mcur; ir += mr {
						iw := min(mr, mcur-ir)
						pa, pb := ap[ir*kcur:], bp[jr*kcur:]
						i0, j0 := ic+ir, jc+jr
						switch {
						case path == gemmAVX512 && iw == wideM && jw == wideN:
							// A full tile: the kernel adds alpha·acc into C.
							cc := c.Data[i0+j0*c.LD : i0+(j0+wideN-1)*c.LD+wideM]
							dgemm16x8addasm(kcur, &pa[0], &pb[0], &cc[0], c.LD, alpha)
							continue
						case path == gemmAVX512:
							dgemm16x8asm(kcur, &pa[0], &pb[0], &acc[0])
						case path == gemmAVX2:
							dgemm8x4asm(kcur, &pa[0], &pb[0], &acc[0])
						default:
							dgemm8x4go(kcur, pa, pb, (*[microM * microN]float64)(acc[:microM*microN]))
						}
						storeAcc(c, i0, j0, iw, jw, mr, alpha, acc[:mr*nr])
					}
				}
			}
		}
	}
	ws.Release(mark)
}

// packA packs the mcur×kcur block of op(A) at (i0, k0) into mr-row
// panels: dst[p*kcur + l*mr + r] = op(A)(i0+p+r, k0+l), edge rows
// zero-padded so the micro-kernel never branches.
func packA(transA bool, a *Matrix, i0, k0, mcur, kcur, mr int, dst []float64) {
	lda := a.LD
	for p := 0; p < mcur; p += mr {
		rows := min(mr, mcur-p)
		panel := dst[p*kcur : p*kcur+mr*kcur]
		if !transA {
			// op(A) columns are A columns: contiguous loads per l.
			switch {
			case rows == wideM && mr == wideM:
				for l := 0; l < kcur; l++ {
					src := a.Data[i0+p+(k0+l)*lda:][:wideM]
					d := panel[l*wideM:][:wideM]
					copy8(d[:8], src[:8])
					copy8(d[8:], src[8:])
				}
			case rows == microM && mr == microM:
				for l := 0; l < kcur; l++ {
					copy8(panel[l*microM:], a.Data[i0+p+(k0+l)*lda:])
				}
			default:
				for l := 0; l < kcur; l++ {
					d := panel[l*mr : l*mr+mr]
					copy(d, a.Data[i0+p+(k0+l)*lda:][:rows])
					clear(d[rows:])
				}
			}
			continue
		}
		// op(A) rows are A columns: each panel row r reads one contiguous
		// A column, scattered across the micro-panel with stride mr, eight
		// or four columns to a pass.
		col := func(r int) []float64 { return a.Data[k0+(i0+p+r)*lda : k0+(i0+p+r)*lda+kcur] }
		r := 0
		for ; r+8 <= rows; r += 8 {
			gather8(panel[r:], mr, col(r), col(r+1), col(r+2), col(r+3), col(r+4), col(r+5), col(r+6), col(r+7))
		}
		for ; r+4 <= rows; r += 4 {
			gather4(panel[r:], mr, col(r), col(r+1), col(r+2), col(r+3))
		}
		for ; r < rows; r++ {
			for l, v := range col(r) {
				panel[l*mr+r] = v
			}
		}
		for r := rows; r < mr; r++ {
			for l := 0; l < kcur; l++ {
				panel[l*mr+r] = 0
			}
		}
	}
}

// packB packs the kcur×ncur block of op(B) at (k0, j0) into nr-column
// panels: dst[p*kcur + l*nr + q] = op(B)(k0+l, j0+p+q), edge columns
// zero-padded.
func packB(transB bool, b *Matrix, k0, j0, kcur, ncur, nr int, dst []float64) {
	ldb := b.LD
	for p := 0; p < ncur; p += nr {
		cols := min(nr, ncur-p)
		panel := dst[p*kcur : p*kcur+nr*kcur]
		if !transB {
			// op(B) columns are B columns: one contiguous read per column,
			// interleaved with stride nr, eight or four columns to a pass.
			col := func(q int) []float64 { return b.Data[k0+(j0+p+q)*ldb : k0+(j0+p+q)*ldb+kcur] }
			q := 0
			for ; q+8 <= cols; q += 8 {
				gather8(panel[q:], nr, col(q), col(q+1), col(q+2), col(q+3), col(q+4), col(q+5), col(q+6), col(q+7))
			}
			for ; q+4 <= cols; q += 4 {
				gather4(panel[q:], nr, col(q), col(q+1), col(q+2), col(q+3))
			}
			for ; q < cols; q++ {
				for l, v := range col(q) {
					panel[l*nr+q] = v
				}
			}
			for q := cols; q < nr; q++ {
				for l := 0; l < kcur; l++ {
					panel[l*nr+q] = 0
				}
			}
			continue
		}
		// op(B) rows are B columns: row l of the panel is a contiguous
		// nr-wide B row segment.
		switch {
		case cols == wideN && nr == wideN:
			for l := 0; l < kcur; l++ {
				copy8(panel[l*wideN:], b.Data[j0+p+(k0+l)*ldb:])
			}
		case cols == microN && nr == microN:
			for l := 0; l < kcur; l++ {
				src := b.Data[j0+p+(k0+l)*ldb:][:microN]
				d := panel[l*microN:][:microN]
				d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
			}
		default:
			for l := 0; l < kcur; l++ {
				d := panel[l*nr : l*nr+nr]
				copy(d, b.Data[j0+p+(k0+l)*ldb:][:cols])
				clear(d[cols:])
			}
		}
	}
}

// gather4 interleaves four equally long vectors into a packed panel:
// dst[l*stride+q] = s_q[l] for q < 4.
func gather4(dst []float64, stride int, s0, s1, s2, s3 []float64) {
	n := len(s0)
	s1, s2, s3 = s1[:n], s2[:n], s3[:n]
	for l, v := range s0 {
		d := dst[l*stride:][:4]
		d[0], d[1], d[2], d[3] = v, s1[l], s2[l], s3[l]
	}
}

// gather8 is gather4 for eight vectors.
func gather8(dst []float64, stride int, s0, s1, s2, s3, s4, s5, s6, s7 []float64) {
	n := len(s0)
	s1, s2, s3, s4, s5, s6, s7 = s1[:n], s2[:n], s3[:n], s4[:n], s5[:n], s6[:n], s7[:n]
	for l, v := range s0 {
		d := dst[l*stride:][:8]
		d[0], d[1], d[2], d[3] = v, s1[l], s2[l], s3[l]
		d[4], d[5], d[6], d[7] = s4[l], s5[l], s6[l], s7[l]
	}
}

// copy8 copies src[0:8] to d[0:8] without a call to memmove.
func copy8(d, src []float64) {
	d, src = d[:8], src[:8]
	d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
	d[4], d[5], d[6], d[7] = src[4], src[5], src[6], src[7]
}

// storeAcc adds alpha times the micro-kernel accumulator (column-major,
// LD ld) into C(i0:, j0:), clipped to iw×jw for edge tiles. The explicit
// conversion keeps alpha·acc a rounded product, as the AVX-512 kernel's
// own store computes it, even where the compiler may fuse a*b+c.
func storeAcc(c *Matrix, i0, j0, iw, jw, ld int, alpha float64, acc []float64) {
	for j := 0; j < jw; j++ {
		cc := c.Data[i0+(j0+j)*c.LD : i0+(j0+j)*c.LD+iw]
		av := acc[j*ld : j*ld+iw]
		if alpha == 1 {
			for i := range cc {
				cc[i] += av[i]
			}
		} else {
			for i := range cc {
				cc[i] += float64(alpha * av[i])
			}
		}
	}
}

// AsmKernels reports whether assembly kernels are in use (AVX2+FMA, with
// or without the AVX-512 GEMM micro-kernel; the two give the same bits).
// Their results differ in the last bits from the pure-Go fallbacks, so a
// test that pins exact result bits has to know which path ran.
func AsmKernels() bool { return useAVX2 }

// GemmKernel names the packed GEMM's micro-kernel in this process:
// "avx512-16x8", "avx2-8x4" or "go-8x4". A recorded GEMM rate means
// little without it.
func GemmKernel() string { return activeGemm.String() }

// dgemm8x4go is the portable micro-kernel: 32 scalar accumulators over the
// packed panels, the exact structure the assembly kernel vectorizes.
func dgemm8x4go(kc int, ap, bp []float64, acc *[microM * microN]float64) {
	var c00, c01, c02, c03, c04, c05, c06, c07 float64
	var c10, c11, c12, c13, c14, c15, c16, c17 float64
	var c20, c21, c22, c23, c24, c25, c26, c27 float64
	var c30, c31, c32, c33, c34, c35, c36, c37 float64
	for l := 0; l < kc; l++ {
		a := ap[l*microM : l*microM+microM]
		b := bp[l*microN : l*microN+microN]
		a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a1 * b0
		c02 += a2 * b0
		c03 += a3 * b0
		c04 += a4 * b0
		c05 += a5 * b0
		c06 += a6 * b0
		c07 += a7 * b0
		c10 += a0 * b1
		c11 += a1 * b1
		c12 += a2 * b1
		c13 += a3 * b1
		c14 += a4 * b1
		c15 += a5 * b1
		c16 += a6 * b1
		c17 += a7 * b1
		c20 += a0 * b2
		c21 += a1 * b2
		c22 += a2 * b2
		c23 += a3 * b2
		c24 += a4 * b2
		c25 += a5 * b2
		c26 += a6 * b2
		c27 += a7 * b2
		c30 += a0 * b3
		c31 += a1 * b3
		c32 += a2 * b3
		c33 += a3 * b3
		c34 += a4 * b3
		c35 += a5 * b3
		c36 += a6 * b3
		c37 += a7 * b3
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = c00, c01, c02, c03, c04, c05, c06, c07
	acc[8], acc[9], acc[10], acc[11], acc[12], acc[13], acc[14], acc[15] = c10, c11, c12, c13, c14, c15, c16, c17
	acc[16], acc[17], acc[18], acc[19], acc[20], acc[21], acc[22], acc[23] = c20, c21, c22, c23, c24, c25, c26, c27
	acc[24], acc[25], acc[26], acc[27], acc[28], acc[29], acc[30], acc[31] = c30, c31, c32, c33, c34, c35, c36, c37
}

// gemmSmall handles products too small to amortize packing, with the
// innermost loop stride-1 over columns of C and A where possible.
func gemmSmall(transA, transB bool, alpha float64, a, b *Matrix, c *Matrix, am, ak, bn int) {
	switch {
	case !transA && !transB:
		for j := 0; j < bn; j++ {
			cc := c.Data[j*c.LD : j*c.LD+am]
			for k := 0; k < ak; k++ {
				t := alpha * b.Data[k+j*b.LD]
				if t == 0 {
					continue
				}
				ac := a.Data[k*a.LD : k*a.LD+am]
				for i, av := range ac {
					cc[i] += t * av
				}
			}
		}
	case transA && !transB:
		for j := 0; j < bn; j++ {
			bc := b.Data[j*b.LD : j*b.LD+ak]
			for i := 0; i < am; i++ {
				ac := a.Data[i*a.LD : i*a.LD+ak]
				var s float64
				for k, bv := range bc {
					s += ac[k] * bv
				}
				c.Data[i+j*c.LD] += alpha * s
			}
		}
	case !transA && transB:
		for k := 0; k < ak; k++ {
			ac := a.Data[k*a.LD : k*a.LD+am]
			for j := 0; j < bn; j++ {
				t := alpha * b.Data[j+k*b.LD]
				if t == 0 {
					continue
				}
				cc := c.Data[j*c.LD : j*c.LD+am]
				for i, av := range ac {
					cc[i] += t * av
				}
			}
		}
	default: // transA && transB
		for j := 0; j < bn; j++ {
			for i := 0; i < am; i++ {
				var s float64
				for k := 0; k < ak; k++ {
					s += a.Data[k+i*a.LD] * b.Data[j+k*b.LD]
				}
				c.Data[i+j*c.LD] += alpha * s
			}
		}
	}
}
