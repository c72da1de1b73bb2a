package kernels

import (
	"github.com/tiled-la/bidiag/internal/nla"
)

// GEQRT computes the QR factorization of the tile a (m×n), overwriting the
// upper triangle (including the diagonal) with R and the strictly lower
// part with the Householder vectors V (unit diagonal implicit). tau receives
// the k = min(m,n) scalar factors and t the k×k upper-triangular block
// reflector factor such that Q = I − V·T·Vᵀ.
//
// ws provides scratch (ScratchSize(GEQRTKind, m, n, 0) elements); nil
// falls back to a throwaway workspace.
func GEQRT(a, t *nla.Matrix, tau []float64, ws *nla.Workspace) {
	k := min(a.Rows, a.Cols)
	if len(tau) < k || t.Rows < k || t.Cols < k {
		panic("kernels: GEQRT: workspace too small")
	}
	factorQR(geShape, a, a, t, k, tau, ws)
}

// UNMQR overwrites c (m×n) with Qᵀ·c (trans=true) or Q·c (trans=false),
// where Q is the compact-WY product held in the first k columns of v
// (unit-lower storage from GEQRT) and the k×k factor t.
func UNMQR(trans bool, k int, v, t, c *nla.Matrix, ws *nla.Workspace) {
	m, n := c.Rows, c.Cols
	if v.Rows != m {
		panic("kernels: UNMQR: V and C row mismatch")
	}
	// Split V into its unit-lower k×k head V1 and dense tail V2 (dlarfb
	// style): the V2 halves are plain GEMMs, the V1 halves 4-column
	// register-blocked triangular updates on the nla vector primitives.
	// None of the loops branch on data values, so the operation sequence
	// is identical with and without the assembly micro-kernels.
	ws, mark := grab(ws)
	w := ws.Scratch(k, n)
	// W = V1ᵀ·C(0:k,:) (unit-lower triangular): four columns of C share
	// each streamed load of a V column.
	var j int
	for j = 0; j+4 <= n; j += 4 {
		cc0 := c.Data[j*c.LD : j*c.LD+k]
		cc1 := c.Data[(j+1)*c.LD : (j+1)*c.LD+k]
		cc2 := c.Data[(j+2)*c.LD : (j+2)*c.LD+k]
		cc3 := c.Data[(j+3)*c.LD : (j+3)*c.LD+k]
		wc0 := w.Data[j*w.LD : j*w.LD+k]
		wc1 := w.Data[(j+1)*w.LD : (j+1)*w.LD+k]
		wc2 := w.Data[(j+2)*w.LD : (j+2)*w.LD+k]
		wc3 := w.Data[(j+3)*w.LD : (j+3)*w.LD+k]
		for tcol := 0; tcol < k; tcol++ {
			vc := v.Data[tcol*v.LD+tcol+1 : tcol*v.LD+k]
			s0, s1, s2, s3 := nla.Dot4(vc, cc0[tcol+1:], cc1[tcol+1:], cc2[tcol+1:], cc3[tcol+1:])
			wc0[tcol] = cc0[tcol] + s0
			wc1[tcol] = cc1[tcol] + s1
			wc2[tcol] = cc2[tcol] + s2
			wc3[tcol] = cc3[tcol] + s3
		}
	}
	for ; j < n; j++ {
		cc := c.Data[j*c.LD : j*c.LD+k]
		wc := w.Data[j*w.LD : j*w.LD+k]
		for tcol := 0; tcol < k; tcol++ {
			s := cc[tcol]
			vc := v.Data[tcol*v.LD : tcol*v.LD+k]
			for i := tcol + 1; i < k; i++ {
				s += vc[i] * cc[i]
			}
			wc[tcol] = s
		}
	}
	// W += V2ᵀ·C(k:m,:).
	if m > k {
		nla.GemmWS(true, false, 1, v.View(k, 0, m-k, k), c.View(k, 0, m-k, n), 1, w, ws)
	}
	nla.TrmvApplyWS(trans, t, w, ws)
	// C(0:k,:) −= V1·W (unit-lower), C(k:m,:) −= V2·W.
	for j = 0; j+4 <= n; j += 4 {
		cc0 := c.Data[j*c.LD : j*c.LD+k]
		cc1 := c.Data[(j+1)*c.LD : (j+1)*c.LD+k]
		cc2 := c.Data[(j+2)*c.LD : (j+2)*c.LD+k]
		cc3 := c.Data[(j+3)*c.LD : (j+3)*c.LD+k]
		wc0 := w.Data[j*w.LD : j*w.LD+k]
		wc1 := w.Data[(j+1)*w.LD : (j+1)*w.LD+k]
		wc2 := w.Data[(j+2)*w.LD : (j+2)*w.LD+k]
		wc3 := w.Data[(j+3)*w.LD : (j+3)*w.LD+k]
		for tcol := 0; tcol < k; tcol++ {
			wt0, wt1, wt2, wt3 := wc0[tcol], wc1[tcol], wc2[tcol], wc3[tcol]
			cc0[tcol] -= wt0
			cc1[tcol] -= wt1
			cc2[tcol] -= wt2
			cc3[tcol] -= wt3
			vc := v.Data[tcol*v.LD+tcol+1 : tcol*v.LD+k]
			nla.Axpy4(-wt0, -wt1, -wt2, -wt3, vc, cc0[tcol+1:], cc1[tcol+1:], cc2[tcol+1:], cc3[tcol+1:])
		}
	}
	for ; j < n; j++ {
		cc := c.Data[j*c.LD : j*c.LD+k]
		wc := w.Data[j*w.LD : j*w.LD+k]
		for tcol := 0; tcol < k; tcol++ {
			wt := wc[tcol]
			cc[tcol] -= wt
			vc := v.Data[tcol*v.LD : tcol*v.LD+k]
			for i := tcol + 1; i < k; i++ {
				cc[i] -= vc[i] * wt
			}
		}
	}
	if m > k {
		nla.GemmWS(false, false, -1, v.View(k, 0, m-k, k), w, 1, c.View(k, 0, m-k, n), ws)
	}
	ws.Release(mark)
}

// TSQRT factors the triangle-on-square pair [R; A2] where R = a1 is the n×n
// upper-triangular tile updated in place and a2 is an m×n dense tile that
// receives the Householder vector tails. t receives the n×n block reflector
// factor. The reflectors have an implicit identity top: v_j = [e_j; a2(:,j)].
func TSQRT(a1, a2, t *nla.Matrix, tau []float64, ws *nla.Workspace) {
	n := a1.Cols
	if a1.Rows < n || a2.Cols != n || len(tau) < n || t.Rows < n || t.Cols < n {
		panic("kernels: TSQRT: shape mismatch")
	}
	factorQR(tsShape, a1, a2, t, n, tau, ws)
}

// TSMQR applies the TSQRT transformation (k reflectors, vector tails v2,
// factor t) to the tile pair [C1; C2] from the left: with trans=true it
// applies Qᵀ (the factorization update), with trans=false it applies Q.
// Only the first k rows of c1 participate.
func TSMQR(trans bool, k int, v2, t, c1, c2 *nla.Matrix, ws *nla.Workspace) {
	n := c1.Cols
	m2 := c2.Rows
	if c2.Cols != n || v2.Rows != m2 || v2.Cols < k || c1.Rows < k {
		panic("kernels: TSMQR: shape mismatch")
	}
	// The dense V2 block makes this the GEMM-rich kernel of the TS family
	// (cost 12 in Table I): W = C1(0:k,:) + V2ᵀ·C2; W ← op(T)·W;
	// C1(0:k,:) −= W; C2 −= V2·W.
	ws, mark := grab(ws)
	w := ws.Scratch(k, n)
	vv := v2.View(0, 0, m2, k)
	c1v := c1.View(0, 0, k, n)
	nla.CopyInto(w, c1v)
	nla.GemmWS(true, false, 1, vv, c2, 1, w, ws)
	nla.TrmvApplyWS(trans, t, w, ws)
	for j := 0; j < n; j++ {
		wc := w.Data[j*w.LD : j*w.LD+k]
		c1c := c1.Data[j*c1.LD:]
		for tcol := 0; tcol < k; tcol++ {
			c1c[tcol] -= wc[tcol]
		}
	}
	nla.GemmWS(false, false, -1, vv, w, 1, c2, ws)
	ws.Release(mark)
}

// TTQRT factors the triangle-on-triangle pair [R1; R2]: a1 is the k×k upper
// triangle of the pivot tile, a2 the m2×k upper triangle (or trapezoid when
// m2 < k) being annihilated; its upper part is overwritten with the vector
// tails. The reflector for column j only involves rows 0..min(j+1,m2)-1 of
// a2, which is what makes the TT kernels cheaper than TS (Table I).
func TTQRT(a1, a2, t *nla.Matrix, tau []float64, ws *nla.Workspace) {
	k := a1.Cols
	if a2.Cols != k || len(tau) < k || t.Rows < k || t.Cols < k {
		panic("kernels: TTQRT: shape mismatch")
	}
	factorQR(ttShape, a1, a2, t, k, tau, ws)
}

// TTMQR applies the TTQRT transformation to the tile pair [C1; C2] from the
// left; v2 holds the upper-trapezoidal vector tails produced by TTQRT.
// Only the first k rows of c1 participate.
func TTMQR(trans bool, k int, v2, t, c1, c2 *nla.Matrix, ws *nla.Workspace) {
	n := c1.Cols
	m2 := c2.Rows
	if c2.Cols != n || v2.Rows != m2 || v2.Cols < k || c1.Rows < k {
		panic("kernels: TTMQR: shape mismatch")
	}
	// The TSMQR recipe — W = C1(0:k,:) + V2ᵀ·C2; W ← op(T)·W;
	// C1(0:k,:) −= W; C2 −= V2·W — with V2 upper trapezoidal: reflector
	// tcol reaches rows 0..min(tcol+1,m2)−1 of C2 only, so both products
	// are the factor kernels' column sweeps, one per reflector, with row
	// tcol of W as the strided result and coefficient vector.
	ws, mark := grab(ws)
	w := ws.Scratch(k, n)
	for tcol := 0; tcol < k; tcol++ {
		vc := v2.Data[tcol*v2.LD:][:min(tcol+1, m2)]
		nla.DotCols(vc, c2.Data, c2.LD, n, nla.Full, w.Data[tcol:], w.LD)
	}
	for j := 0; j < n; j++ {
		wc := w.Data[j*w.LD : j*w.LD+k]
		for tcol, x := range c1.Data[j*c1.LD:][:k] {
			wc[tcol] += x
		}
	}
	nla.TrmvApplyWS(trans, t, w, ws)
	for j := 0; j < n; j++ {
		c1c := c1.Data[j*c1.LD:][:k]
		for tcol, x := range w.Data[j*w.LD:][:k] {
			c1c[tcol] -= x
		}
	}
	for tcol := 0; tcol < k; tcol++ {
		vc := v2.Data[tcol*v2.LD:][:min(tcol+1, m2)]
		nla.AxpyCols(1, w.Data[tcol:], w.LD, vc, c2.Data, c2.LD, n)
	}
	ws.Release(mark)
}
