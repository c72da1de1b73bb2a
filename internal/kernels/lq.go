package kernels

import (
	"github.com/tiled-la/bidiag/internal/nla"
)

// GELQT computes the LQ factorization of the tile a (m×n), overwriting the
// lower triangle (including the diagonal) with L and the strictly upper part
// with the row-reflector tails (unit diagonal implicit). With
// P = H₁···H_k = I − Ṽ·T·Ṽᵀ (Ṽ = V_storedᵀ), A·P = L, i.e. A = L·Q with
// Q = Pᵀ. tau receives the k = min(m,n) scalar factors, t the k×k upper
// triangular factor.
func GELQT(a, t *nla.Matrix, tau []float64, ws *nla.Workspace) {
	k := min(a.Rows, a.Cols)
	if len(tau) < k || t.Rows < k || t.Cols < k {
		panic("kernels: GELQT: workspace too small")
	}
	factorLQ(geShape, a, a, t, k, tau, ws)
}

// UNMLQ overwrites c (m×n) with c·P (trans=true, the factorization update
// C·Qᵀ) or c·Q (trans=false), where the row reflectors are held in the first
// k rows of v (unit-upper storage from GELQT) and t is the k×k factor.
func UNMLQ(trans bool, k int, v, t, c *nla.Matrix, ws *nla.Workspace) {
	m, n := c.Rows, c.Cols
	if v.Cols != n {
		panic("kernels: UNMLQ: V and C column mismatch")
	}
	ws, mark := grab(ws)
	// W = C·Ṽ = C·V_storedᵀ, m×k with unit-upper V rows. As in UNMQR, the
	// head (columns < k of C against the unit-triangular head of V) is a
	// gathered triangular update on the nla vector primitives and the
	// tail a plain GEMM. No loop branches on data values, so the scalar
	// and assembly paths execute the same operation sequence.
	w := ws.Scratch(m, k)
	for trow := 0; trow < k; trow++ {
		wc := w.Data[trow*w.LD : trow*w.LD+m]
		copy(wc, c.Data[trow*c.LD:trow*c.LD+m])
		j := trow + 1
		for ; j+4 <= k; j += 4 {
			nla.Gaxpy4(v.Data[trow+j*v.LD], v.Data[trow+(j+1)*v.LD], v.Data[trow+(j+2)*v.LD], v.Data[trow+(j+3)*v.LD],
				c.Data[j*c.LD:j*c.LD+m],
				c.Data[(j+1)*c.LD:(j+1)*c.LD+m],
				c.Data[(j+2)*c.LD:(j+2)*c.LD+m],
				c.Data[(j+3)*c.LD:(j+3)*c.LD+m],
				wc)
		}
		for ; j < k; j++ {
			vt := v.Data[trow+j*v.LD]
			cc := c.Data[j*c.LD : j*c.LD+m]
			for i := range wc {
				wc[i] += vt * cc[i]
			}
		}
	}
	if n > k {
		nla.GemmWS(false, true, 1, c.View(0, k, m, n-k), v.View(0, k, k, n-k), 1, w, ws)
	}
	nla.TrmvApplyRight(trans, t, w)
	// C(:,0:k) −= W·V1 (unit-upper head), C(:,k:n) −= W·V2: each W column
	// scatters into four C columns per pass, one streamed read of W.
	for trow := 0; trow < k; trow++ {
		wc := w.Data[trow*w.LD : trow*w.LD+m]
		cc := c.Data[trow*c.LD : trow*c.LD+m]
		for i := range wc {
			cc[i] -= wc[i]
		}
		j := trow + 1
		for ; j+4 <= k; j += 4 {
			nla.Axpy4(-v.Data[trow+j*v.LD], -v.Data[trow+(j+1)*v.LD], -v.Data[trow+(j+2)*v.LD], -v.Data[trow+(j+3)*v.LD],
				wc,
				c.Data[j*c.LD:j*c.LD+m],
				c.Data[(j+1)*c.LD:(j+1)*c.LD+m],
				c.Data[(j+2)*c.LD:(j+2)*c.LD+m],
				c.Data[(j+3)*c.LD:(j+3)*c.LD+m])
		}
		for ; j < k; j++ {
			vt := v.Data[trow+j*v.LD]
			cj := c.Data[j*c.LD : j*c.LD+m]
			for i := range wc {
				cj[i] -= wc[i] * vt
			}
		}
	}
	if n > k {
		nla.GemmWS(false, false, -1, w, v.View(0, k, k, n-k), 1, c.View(0, k, m, n-k), ws)
	}
	ws.Release(mark)
}

// TSLQT factors the triangle-on-square LQ pair [L, A2] (side by side):
// a1 is the m×m lower-triangular tile updated in place, a2 an m×n dense
// tile that receives the row-reflector tails: v_i = [e_i, a2(i,:)].
func TSLQT(a1, a2, t *nla.Matrix, tau []float64, ws *nla.Workspace) {
	m := a1.Rows
	if a1.Cols < m || a2.Rows != m || len(tau) < m || t.Rows < m || t.Cols < m {
		panic("kernels: TSLQT: shape mismatch")
	}
	factorLQ(tsShape, a1, a2, t, m, tau, ws)
}

// TSMLQ applies the TSLQT transformation (k reflectors, tails v2, factor t)
// to the tile pair [C1, C2] from the right; trans=true applies the
// factorization update C·P. Only the first k columns of c1 participate.
func TSMLQ(trans bool, k int, v2, t, c1, c2 *nla.Matrix, ws *nla.Workspace) {
	m := c1.Rows
	n2 := c2.Cols
	if c2.Rows != m || v2.Cols != n2 || v2.Rows < k || c1.Cols < k {
		panic("kernels: TSMLQ: shape mismatch")
	}
	// Dense-V2 GEMM form (dual of TSMQR): W = C1(:,0:k) + C2·V2ᵀ;
	// W ← W·op(T); C1(:,0:k) −= W; C2 −= W·V2.
	ws, mark := grab(ws)
	w := ws.Scratch(m, k)
	vv := v2.View(0, 0, k, n2)
	c1v := c1.View(0, 0, m, k)
	nla.CopyInto(w, c1v)
	nla.GemmWS(false, true, 1, c2, vv, 1, w, ws)
	nla.TrmvApplyRight(trans, t, w)
	for trow := 0; trow < k; trow++ {
		wc := w.Data[trow*w.LD : trow*w.LD+m]
		cc := c1.Data[trow*c1.LD : trow*c1.LD+m]
		for i := range wc {
			cc[i] -= wc[i]
		}
	}
	nla.GemmWS(false, false, -1, w, vv, 1, c2, ws)
	ws.Release(mark)
}

// TTLQT factors the triangle-on-triangle LQ pair [L1, L2]: a1 is the k×k
// lower triangle of the pivot tile, a2 the k×n2 lower triangle (or
// trapezoid when n2 < k) being annihilated; its lower part is overwritten
// with the row-reflector tails. Row i's reflector involves only columns
// 0..min(i+1,n2)-1 of a2.
func TTLQT(a1, a2, t *nla.Matrix, tau []float64, ws *nla.Workspace) {
	k := a1.Rows
	if a2.Rows != k || len(tau) < k || t.Rows < k || t.Cols < k {
		panic("kernels: TTLQT: shape mismatch")
	}
	factorLQ(ttShape, a1, a2, t, k, tau, ws)
}

// TTMLQ applies the TTLQT transformation to the tile pair [C1, C2] from the
// right; v2 holds the lower-trapezoidal row tails produced by TTLQT. Only
// the first k columns of c1 participate.
func TTMLQ(trans bool, k int, v2, t, c1, c2 *nla.Matrix, ws *nla.Workspace) {
	m := c1.Rows
	n2 := c2.Cols
	if c2.Rows != m || v2.Cols != n2 || v2.Rows < k || c1.Cols < k {
		panic("kernels: TTMLQ: shape mismatch")
	}
	// Dual of TTMQR: W = C1(:,0:k) + C2·V2ᵀ; W ← W·op(T); C1(:,0:k) −= W;
	// C2 −= W·V2, with V2 lower trapezoidal — reflector trow reaches
	// columns 0..min(trow+1,n2)−1 of C2 only, whatever values it holds
	// there — so column trow of W is one gathered sweep over those
	// columns and the update one scattered sweep back, row trow of V2
	// the strided coefficient vector of both.
	ws, mark := grab(ws)
	w := ws.Scratch(m, k)
	nla.CopyInto(w, c1.View(0, 0, m, k))
	for trow := 0; trow < k; trow++ {
		nla.GaxpyCols(v2.Data[trow:], v2.LD, c2.Data, c2.LD, min(trow+1, n2), nla.Full, nla.TailLanes, w.Data[trow*w.LD:][:m])
	}
	nla.TrmvApplyRight(trans, t, w)
	for trow := 0; trow < k; trow++ {
		wc := w.Data[trow*w.LD:][:m]
		cc := c1.Data[trow*c1.LD:][:m]
		for i, x := range wc {
			cc[i] -= x
		}
		nla.AxpyCols(1, v2.Data[trow:], v2.LD, wc, c2.Data, c2.LD, min(trow+1, n2))
	}
	ws.Release(mark)
}
